//! A pinned calibration kernel: host speed measured with code that no
//! change to the simulator can touch.
//!
//! Shared hosts drift in speed by tens of percent over minutes, and a
//! drift that large would swamp any regression bound on host time. The
//! benchmark times this kernel before every repetition and scales its
//! host-time metrics to a nominal host on which the kernel takes
//! [`NOMINAL_S`]. The kernel mixes the simulator's two host-time
//! profiles: ordered-map churn over owned string keys (the event loop's
//! queues and identity sets) and a bit-plane boolean sweep (the compiled
//! plan). Its code and constants are part of the benchmark's definition:
//! changing them rescales every host metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the nominal host, s.
pub const NOMINAL_S: f64 = 0.012;

/// One run of the kernel: the geometric mean of its two halves' host
/// seconds.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut map: BTreeMap<(String, u64), u64> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert((format!("t{}", x % 4), i), x);
        if i % 3 == 0 {
            if let Some((key, _)) = map.pop_first() {
                acc = acc.wrapping_add(key.1);
            }
        }
    }
    black_box((acc, map.len()));
    let churn = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut plane: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    for round in 0..1_500u64 {
        for i in 0..plane.len() {
            let a = plane[i];
            let b = plane[(i * 7 + 13) & 4095];
            let c = plane[(i * 31 + round as usize) & 4095];
            let v = (a & b) ^ (!a & c) ^ (b | c).rotate_left(7);
            plane[i] = v ^ round;
            acc = acc.wrapping_add(v);
        }
    }
    black_box((acc, &plane));
    let sweep = start.elapsed().as_secs_f64();
    (churn * sweep).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_takes_measurable_time() {
        let s = calibrate();
        assert!(s > 0.0 && s.is_finite());
    }
}
