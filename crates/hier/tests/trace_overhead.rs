//! The disabled-recorder overhead contract: with tracing off, the
//! instrumented fast-wavelet-transform serving path must cost within 2%
//! of the same arithmetic with no instrumentation at all.
//!
//! The instrumented side is `BasisRep::apply_into` on the FWT path (one
//! disabled histogram probe per call plus the workspace plumbing); the
//! control hand-inlines the identical forward / Gw / inverse sequence on
//! raw preallocated buffers. Both sides are timed interleaved, taking the
//! minimum over many batches, so one-off scheduler hiccups cannot settle
//! on either side of the ratio.

use std::hint::black_box;
use std::time::Instant;

use subsparse_hier::BasisRep;
use subsparse_linalg::{trace, ApplyWorkspace, CouplingOp, Csr, Triplets};

mod common;
use common::binary_haar;

#[test]
fn disabled_recorder_overhead_under_two_percent() {
    assert!(!trace::enabled(), "trace recorder must ship disabled");
    let n = 1024;
    let fwt = binary_haar(n);
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0 + (i % 7) as f64 * 0.1);
        t.push(i, (i + 1) % n, -0.4);
        t.push(i, (i + 17) % n, -0.2);
    }
    let gw = t.to_csr();
    let rep = BasisRep::with_fwt(Csr::identity(n), gw.clone(), fwt.clone());
    assert_eq!(rep.kind(), "basis-rep-fwt");

    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n];
    let mut ws = ApplyWorkspace::new();
    rep.apply_into(&x, &mut y, &mut ws); // warm the workspace once

    // the uninstrumented control's buffers, shaped exactly like the
    // workspace the instrumented path reuses
    let scratch = fwt.scratch_len();
    let mut coeffs = vec![0.0; n];
    let mut cur = vec![0.0; scratch];
    let mut nxt = vec![0.0; scratch];
    let mut mid = vec![0.0; n];
    let mut yc = vec![0.0; n];

    const ITERS: usize = 200;
    const BATCHES: usize = 25;
    let mut best_inst = f64::INFINITY;
    let mut best_ctrl = f64::INFINITY;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            rep.apply_into(black_box(&x), &mut y, &mut ws);
            black_box(&y);
        }
        best_inst = best_inst.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for _ in 0..ITERS {
            fwt.forward_into(black_box(&x), &mut coeffs, &mut cur, &mut nxt);
            gw.matvec_into(&coeffs, &mut mid);
            fwt.inverse_into(&mid, &mut yc, &mut cur, &mut nxt);
            black_box(&yc);
        }
        best_ctrl = best_ctrl.min(t0.elapsed().as_secs_f64());
    }

    // both sides computed the same product (the control really is the
    // same arithmetic, not a cheaper stand-in)
    for (a, b) in y.iter().zip(&yc) {
        assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "control diverged: {a} vs {b}");
    }

    // The 2% contract is about optimized serving. A debug build cannot
    // inline the probes' relaxed-load fast path (every disabled probe
    // becomes an outlined call), so it gets a looser sanity bound; the
    // release run (CI's trace-smoke job, `cargo test --release`) holds
    // the real line.
    let bound = if cfg!(debug_assertions) { 1.15 } else { 1.02 };
    let ratio = best_inst / best_ctrl;
    assert!(
        ratio < bound,
        "disabled tracing costs {:.2}% over the uninstrumented control, bound {:.0}% \
         (instrumented {best_inst:.6}s vs control {best_ctrl:.6}s per {ITERS}-apply batch)",
        (ratio - 1.0) * 100.0,
        (bound - 1.0) * 100.0
    );
}
