//! Functional verification of every benchmark accelerator against its
//! software reference, running through the full FReaC pipeline
//! (tech-map → fold → folded execution) exactly as the hardware would.

use freac::core::{Accelerator, AcceleratorTile};
use freac::kernels::{aes, conv, dot, fc, gemm, kmp, nw, srt, stn2, stn3, vadd};
use freac::netlist::{Netlist, Value};
use freac_rand::Rng64;

/// Maps a circuit onto a 1-MCC tile and returns a folded executor factory.
fn folded(circuit: &Netlist) -> (Accelerator, ()) {
    let tile = AcceleratorTile::new(1).expect("tile 1 is valid");
    (
        Accelerator::map(circuit, &tile).expect("kernel circuits map"),
        (),
    )
}

fn run_stream(accel: &Accelerator, stream: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut ex = accel.fold_plan().executor();
    stream
        .iter()
        .map(|inputs| ex.run_cycle(inputs).expect("folded execution succeeds"))
        .collect()
}

#[test]
fn aes_blocks_match_reference() {
    let (accel, ()) = folded(&aes::build_circuit());
    let mut rng = Rng64::new(7);
    for _ in 0..3 {
        let mut pt = [0u8; 16];
        rng.fill_bytes(&mut pt);
        let inputs: Vec<Value> = (0..4)
            .map(|c| {
                Value::Word(u32::from_le_bytes([
                    pt[c * 4],
                    pt[c * 4 + 1],
                    pt[c * 4 + 2],
                    pt[c * 4 + 3],
                ]))
            })
            .collect();
        let stream: Vec<Vec<Value>> = (0..11).map(|_| inputs.clone()).collect();
        let outs = run_stream(&accel, &stream);
        let last = outs.last().expect("eleven cycles ran");
        let mut ct = [0u8; 16];
        for c in 0..4 {
            ct[c * 4..c * 4 + 4].copy_from_slice(&last[c].as_word().expect("word").to_le_bytes());
        }
        assert_eq!(ct, aes::encrypt_block(&pt, &aes::KEY));
    }
}

#[test]
fn vadd_matches_reference() {
    let (accel, ()) = folded(&vadd::build_circuit());
    let a = [5u32, u32::MAX, 123_456_789];
    let b = [9u32, 2, 987_654_321];
    let stream: Vec<Vec<Value>> = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| vec![Value::Word(x), Value::Word(y)])
        .collect();
    let outs = run_stream(&accel, &stream);
    let expect = vadd::reference(&a, &b);
    for (o, e) in outs.iter().zip(expect) {
        assert_eq!(o[0].as_word(), Some(e));
    }
}

#[test]
fn dot_accumulates_like_reference() {
    let (accel, ()) = folded(&dot::build_circuit());
    let a = [2u32, 3, 5, 7, 11];
    let b = [13u32, 17, 19, 23, 29];
    let stream: Vec<Vec<Value>> = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| vec![Value::Word(x), Value::Word(y)])
        .collect();
    let outs = run_stream(&accel, &stream);
    assert_eq!(
        outs.last().expect("stream ran")[0].as_word(),
        Some(dot::reference(&a, &b))
    );
}

#[test]
fn gemm_pe_computes_inner_products() {
    // Stream one 64-deep column pair through the PE.
    let (accel, ()) = folded(&gemm::build_circuit());
    let mut rng = Rng64::new(11);
    let a: Vec<u32> = (0..64).map(|_| rng.range_u32(0, 1000)).collect();
    let b: Vec<u32> = (0..64).map(|_| rng.range_u32(0, 1000)).collect();
    let stream: Vec<Vec<Value>> = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| vec![Value::Word(x), Value::Word(y)])
        .collect();
    let outs = run_stream(&accel, &stream);
    let last = outs.last().expect("stream ran");
    let expect = a
        .iter()
        .zip(&b)
        .fold(0u32, |s, (&x, &y)| s.wrapping_add(x.wrapping_mul(y)));
    assert_eq!(last[0].as_word(), Some(expect));
    assert_eq!(last[1], Value::Bit(true), "done asserted after 64 cycles");
}

#[test]
fn fc_neuron_with_relu() {
    let (accel, ()) = folded(&fc::build_circuit());
    let mut rng = Rng64::new(13);
    let w: Vec<u32> = (0..fc::IN).map(|_| rng.range_u32(0, 512)).collect();
    let x: Vec<u32> = (0..fc::IN).map(|_| rng.range_u32(0, 512)).collect();
    let stream: Vec<Vec<Value>> = w
        .iter()
        .zip(&x)
        .map(|(&a, &b)| vec![Value::Word(a), Value::Word(b)])
        .collect();
    let outs = run_stream(&accel, &stream);
    assert_eq!(
        outs.last().expect("stream ran")[0].as_word(),
        Some(fc::neuron(&w, &x))
    );
}

#[test]
fn conv_pixel_through_folded_pipeline() {
    let (accel, ()) = folded(&conv::build_circuit());
    let p = [10u32, 20, 30, 40, 50, 60, 70, 80, 90];
    let stream: Vec<Vec<Value>> = p.iter().map(|&v| vec![Value::Word(v)]).collect();
    let outs = run_stream(&accel, &stream);
    assert_eq!(
        outs.last().expect("stream ran")[0].as_word(),
        Some(conv::pixel(&p))
    );
}

#[test]
fn stencils_match_reference() {
    let (a2, ()) = folded(&stn2::build_circuit());
    let out = run_stream(
        &a2,
        &[vec![
            Value::Word(9),
            Value::Word(8),
            Value::Word(7),
            Value::Word(6),
            Value::Word(5),
        ]],
    );
    assert_eq!(out[0][0].as_word(), Some(stn2::point(9, 8, 7, 6, 5)));

    let (a3, ()) = folded(&stn3::build_circuit());
    let vals = [1u32, 2, 3, 4, 5, 6, 7];
    let out = run_stream(
        &a3,
        &[vals.iter().map(|&v| Value::Word(v)).collect::<Vec<_>>()],
    );
    assert_eq!(out[0][0].as_word(), Some(stn3::point(vals)));
}

#[test]
fn nw_cell_matches_reference() {
    let (accel, ()) = folded(&nw::build_circuit());
    let cases = [
        (nw::BIAS, nw::BIAS, nw::BIAS, b'C', b'C'),
        (nw::BIAS + 3, nw::BIAS + 1, nw::BIAS + 7, b'A', b'G'),
    ];
    for (nwv, n, w, a, b) in cases {
        let out = run_stream(
            &accel,
            &[vec![
                Value::Word(nwv as u32),
                Value::Word(n as u32),
                Value::Word(w as u32),
                Value::Word(a as u32),
                Value::Word(b as u32),
            ]],
        );
        assert_eq!(out[0][0].as_word(), Some(nw::cell(nwv, n, w, a, b) as u32));
    }
}

#[test]
fn kmp_counts_matches_on_folded_hardware() {
    let (accel, ()) = folded(&kmp::build_circuit());
    let text = b"ABABXXABABABTEST";
    let stream: Vec<Vec<Value>> = text
        .chunks(4)
        .map(|c| vec![Value::Word(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))])
        .collect();
    let outs = run_stream(&accel, &stream);
    assert_eq!(
        outs.last().expect("stream ran")[0].as_word(),
        Some(kmp::count_matches(text))
    );
}

#[test]
fn srt_compare_exchange_on_folded_hardware() {
    let (accel, ()) = folded(&srt::build_circuit());
    let outs = run_stream(&accel, &[vec![Value::Word(42), Value::Word(17)]]);
    let (mn, mx) = srt::compare_exchange(42, 17);
    assert_eq!(outs[0][0].as_word(), Some(mn));
    assert_eq!(outs[0][1].as_word(), Some(mx));
}

#[test]
fn full_gemm_against_matrix_reference() {
    // Drive the PE through an entire (small) matrix multiply and compare
    // against the dense software reference.
    let n = 4usize;
    let mut rng = Rng64::new(17);
    let a: Vec<u32> = (0..n * n).map(|_| rng.range_u32(0, 100)).collect();
    let b: Vec<u32> = (0..n * n).map(|_| rng.range_u32(0, 100)).collect();
    let expect = gemm::reference(&a, &b, n);

    // A PE with K = n.
    let circuit = {
        // Reuse the gemm builder shape via a small local PE of depth 4.
        use freac::netlist::builder::CircuitBuilder;
        let mut bld = CircuitBuilder::new("gemm4");
        let wa = bld.word_input("a", 32);
        let wb = bld.word_input("b", 32);
        let (acc, acc_h) = bld.word_reg(0, 32);
        let (k, k_h) = bld.word_reg(0, 8);
        let zero8 = bld.const_word(0, 8);
        let last = bld.const_word(n as u32 - 1, 8);
        let is_first = bld.eq_words(&k, &zero8);
        let is_last = bld.eq_words(&k, &last);
        let zero32 = bld.const_word(0, 32);
        let acc_in = bld.mux_word(is_first, &acc, &zero32);
        let m = bld.mac(&wa, &wb, &acc_in);
        bld.connect_word_reg(acc_h, &m);
        let k1 = bld.inc(&k);
        let k_next = bld.mux_word(is_last, &k1, &zero8);
        bld.connect_word_reg(k_h, &k_next);
        bld.word_output("acc", &m);
        bld.bit_output("done", is_last);
        bld.finish().expect("pe builds")
    };
    let (accel, ()) = folded(&circuit);
    let mut ex = accel.fold_plan().executor();
    let mut got = vec![0u32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut out = Vec::new();
            for k in 0..n {
                out = ex
                    .run_cycle(&[Value::Word(a[i * n + k]), Value::Word(b[k * n + j])])
                    .expect("pe runs");
            }
            assert_eq!(out[1], Value::Bit(true));
            got[i * n + j] = out[0].as_word().expect("word");
        }
    }
    assert_eq!(got, expect);
}
