//! Multi-kernel offload sessions.
//!
//! The paper's Fig. 5 notes that once ways are flushed and locked, steps
//! 4-6 (configure, fill, run) can repeat: "a new set of accelerators can be
//! programmed or new data can be provided to the existing set", and "once
//! configuration bits for an accelerator have been loaded, they needn't be
//! fetched again" (Sec. III-C). [`OffloadSession`] models exactly that:
//! the expensive flush/lock happens once, reconfiguration is charged only
//! when the resident accelerator changes, and repeated runs of the same
//! accelerator pay only data movement — FReaC Cache's answer to FPGA
//! reconfiguration cost.

use freac_sim::{DramModel, Time};

use crate::accel::Accelerator;
use crate::ccctrl::{encode_ways, regs, CcCtrl};
use crate::error::CoreError;
use crate::exec::{run_kernel, ExecConfig, KernelRun, KernelSpec};

/// One offload executed within a session.
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// Accelerator name.
    pub name: String,
    /// Whether this offload had to rewrite the configuration bitstream.
    pub reconfigured: bool,
    /// Configuration time charged (0 when the bitstream was resident).
    pub config_ps: Time,
    /// The timed run.
    pub run: KernelRun,
}

impl SessionRun {
    /// This offload's contribution to the session timeline: configuration
    /// (if any) + fill + kernel + drain. Flush/lock were paid at session
    /// start.
    pub fn elapsed_ps(&self) -> Time {
        self.config_ps + self.run.setup.fill_ps + self.run.kernel_time_ps + self.run.drain_ps
    }
}

/// A sequence of offloads over one slice partition, with the flush/lock
/// paid once and configurations reused when possible.
#[derive(Debug)]
pub struct OffloadSession {
    ctrl: CcCtrl,
    cfg: ExecConfig,
    dram: DramModel,
    /// LRU list of accelerator configurations held on the fabric and in
    /// spare scratchpad capacity; the front is most recent, and only the
    /// front is wired into the compute sub-arrays, but re-activating any
    /// cached entry skips the host-side configuration transfer (paper
    /// Sec. VI: "total memory capacity only limits … the number of
    /// configurations we can store").
    cached: Vec<String>,
    config_slots: usize,
    flush_lock_ps: Time,
    runs: Vec<SessionRun>,
}

impl OffloadSession {
    /// Opens a session: selects, flushes, and locks the partition's ways.
    /// One configuration is resident at a time (no cache).
    ///
    /// # Errors
    ///
    /// Propagates protocol errors from the controller.
    pub fn begin(cfg: ExecConfig) -> Result<Self, CoreError> {
        OffloadSession::with_config_slots(cfg, 1)
    }

    /// Opens a session that retains up to `slots` accelerator
    /// configurations in spare scratchpad capacity (LRU replacement).
    ///
    /// # Errors
    ///
    /// Propagates protocol errors; `slots` of zero is rejected as a
    /// partition misuse.
    pub fn with_config_slots(cfg: ExecConfig, slots: usize) -> Result<Self, CoreError> {
        if slots == 0 {
            return Err(CoreError::BadPartition {
                reason: "a session needs at least one configuration slot".into(),
            });
        }
        let dram = DramModel::ddr4_2400_x4();
        let mut ctrl = CcCtrl::new(cfg.dirty_fraction)?;
        ctrl.store(regs::SELECT, encode_ways(&cfg.partition), &dram)?;
        ctrl.store(regs::FLUSH, 1, &dram)?;
        ctrl.store(regs::LOCK, 1, &dram)?;
        let flush_lock_ps = ctrl.timing().flush_ps;
        Ok(OffloadSession {
            ctrl,
            cfg,
            dram,
            cached: Vec::new(),
            config_slots: slots,
            flush_lock_ps,
            runs: Vec::new(),
        })
    }

    /// Offloads one kernel. The host-side configuration transfer happens
    /// only when `accel` is not in the session's configuration cache.
    ///
    /// # Errors
    ///
    /// Propagates execution and protocol errors.
    pub fn offload(
        &mut self,
        accel: &Accelerator,
        spec: &KernelSpec,
    ) -> Result<&SessionRun, CoreError> {
        let name = accel.name().to_owned();
        let needs_config = !self.cached.contains(&name);
        let config_before = self.ctrl.timing().config_ps;
        if needs_config {
            self.ctrl.store(
                regs::CONFIG_DATA,
                accel.bitstream().total_bytes() as u64,
                &self.dram,
            )?;
        }
        // LRU update: move (or insert) to the front; evict beyond capacity.
        self.cached.retain(|n| n != &name);
        self.cached.insert(0, name);
        self.cached.truncate(self.config_slots);
        let config_ps = self.ctrl.timing().config_ps - config_before;

        // The timed run (its own setup fields are recomputed; the session
        // charges only the incremental parts).
        let run = run_kernel(accel, spec, &self.cfg)?;
        self.ctrl.store(regs::RUN, 1, &self.dram)?;
        self.ctrl.complete_run()?;

        self.runs.push(SessionRun {
            name: accel.name().to_owned(),
            reconfigured: needs_config,
            config_ps,
            run,
        });
        Ok(self.runs.last().expect("just pushed"))
    }

    /// All offloads so far.
    pub fn runs(&self) -> &[SessionRun] {
        &self.runs
    }

    /// One-time session setup cost (flush of the selected ways).
    pub fn flush_lock_ps(&self) -> Time {
        self.flush_lock_ps
    }

    /// Total session time: one-time setup plus every offload's elapsed
    /// time.
    pub fn total_ps(&self) -> Time {
        self.flush_lock_ps + self.runs.iter().map(SessionRun::elapsed_ps).sum::<Time>()
    }

    /// Configuration bytes actually transferred (reconfigurations only).
    pub fn config_bytes(&self) -> u64 {
        self.ctrl.config_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::SlicePartition;
    use crate::tile::AcceleratorTile;
    use freac_netlist::builder::CircuitBuilder;

    fn accel(name: &str, taps: usize) -> Accelerator {
        let mut b = CircuitBuilder::new(name);
        let a = b.word_input("a", 32);
        let x = b.word_input("b", 32);
        let mut acc = b.add(&a, &x);
        for _ in 0..taps {
            acc = b.add(&acc, &x);
        }
        b.word_output("o", &acc);
        Accelerator::map(&b.finish().unwrap(), &AcceleratorTile::new(1).unwrap()).unwrap()
    }

    fn spec(name: &str) -> KernelSpec {
        KernelSpec {
            name: name.into(),
            items: 100_000,
            cycles_per_item: 1,
            read_words_per_item: 2,
            write_words_per_item: 1,
            working_set_per_tile: 4096,
            input_bytes: 800_000,
            output_bytes: 400_000,
        }
    }

    fn cfg() -> ExecConfig {
        ExecConfig {
            partition: SlicePartition::end_to_end(),
            slices: 4,
            dirty_fraction: 0.5,
        }
    }

    #[test]
    fn repeated_offloads_skip_reconfiguration() {
        let a = accel("alpha", 2);
        let mut s = OffloadSession::begin(cfg()).unwrap();
        s.offload(&a, &spec("alpha")).unwrap();
        s.offload(&a, &spec("alpha")).unwrap();
        let runs = s.runs();
        assert!(runs[0].reconfigured);
        assert!(runs[0].config_ps > 0);
        assert!(!runs[1].reconfigured);
        assert_eq!(runs[1].config_ps, 0);
        assert!(runs[1].elapsed_ps() < runs[0].elapsed_ps());
    }

    #[test]
    fn switching_kernels_pays_reconfiguration() {
        let a = accel("alpha", 2);
        let b = accel("beta", 6);
        let mut s = OffloadSession::begin(cfg()).unwrap();
        s.offload(&a, &spec("alpha")).unwrap();
        s.offload(&b, &spec("beta")).unwrap();
        s.offload(&a, &spec("alpha")).unwrap();
        let flags: Vec<bool> = s.runs().iter().map(|r| r.reconfigured).collect();
        assert_eq!(flags, vec![true, true, true]);
        assert_eq!(
            s.config_bytes(),
            (2 * a.bitstream().total_bytes() + b.bitstream().total_bytes()) as u64
        );
    }

    #[test]
    fn flush_paid_once() {
        let a = accel("alpha", 2);
        let mut s = OffloadSession::begin(cfg()).unwrap();
        let flush = s.flush_lock_ps();
        assert!(flush > 0);
        s.offload(&a, &spec("alpha")).unwrap();
        s.offload(&a, &spec("alpha")).unwrap();
        assert_eq!(s.flush_lock_ps(), flush, "no re-flush inside a session");
        assert!(s.total_ps() >= flush);
    }

    #[test]
    fn config_cache_absorbs_alternation() {
        // With two slots, A-B-A-B reconfigures only twice (both fit).
        let a = accel("alpha", 2);
        let b = accel("beta", 6);
        let mut s = OffloadSession::with_config_slots(cfg(), 2).unwrap();
        for acc in [&a, &b, &a, &b] {
            s.offload(acc, &spec(acc.name())).unwrap();
        }
        let flags: Vec<bool> = s.runs().iter().map(|r| r.reconfigured).collect();
        assert_eq!(flags, vec![true, true, false, false]);
        assert_eq!(
            s.config_bytes(),
            (a.bitstream().total_bytes() + b.bitstream().total_bytes()) as u64
        );
    }

    #[test]
    fn lru_evicts_the_coldest_configuration() {
        // Two slots, three kernels: A B C -> A evicted -> A reconfigures.
        let a = accel("alpha", 2);
        let b = accel("beta", 6);
        let c = accel("gamma", 10);
        let mut s = OffloadSession::with_config_slots(cfg(), 2).unwrap();
        for acc in [&a, &b, &c, &b, &a] {
            s.offload(acc, &spec(acc.name())).unwrap();
        }
        let flags: Vec<bool> = s.runs().iter().map(|r| r.reconfigured).collect();
        // A miss, B miss, C miss (evicts A), B hit, A miss again.
        assert_eq!(flags, vec![true, true, true, false, true]);
    }

    #[test]
    fn zero_slots_rejected() {
        assert!(OffloadSession::with_config_slots(cfg(), 0).is_err());
    }

    #[test]
    fn grouping_same_kernel_beats_alternating() {
        // A-A-B-B pays two configurations; A-B-A-B pays four.
        let a = accel("alpha", 2);
        let b = accel("beta", 6);
        let mut grouped = OffloadSession::begin(cfg()).unwrap();
        for acc in [&a, &a, &b, &b] {
            grouped.offload(acc, &spec(acc.name())).unwrap();
        }
        let mut alternating = OffloadSession::begin(cfg()).unwrap();
        for acc in [&a, &b, &a, &b] {
            alternating.offload(acc, &spec(acc.name())).unwrap();
        }
        assert!(grouped.total_ps() < alternating.total_ps());
        assert!(grouped.config_bytes() < alternating.config_bytes());
    }
}
