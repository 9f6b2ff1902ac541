//! The `core.phase1` and `core.phase2` latency histograms count runs:
//! one observation per Phase-1 search, and one per Phase-2 run — a
//! whole register sweep, or one allocation at a single register count.
//!
//! Both histograms live in the process-wide registry, so exact counts
//! need a test binary of their own: this file holds a single test, and
//! nothing else records into the registry between two reads.

use raco_core::Optimizer;
use raco_ir::{AccessPattern, AguSpec};

/// `(core.phase1, core.phase2)` observation counts.
fn counts() -> (u64, u64) {
    let count = |name| raco_obs::global().histogram(name).snapshot().count;
    (count("core.phase1"), count("core.phase2"))
}

#[test]
fn core_phase_histograms_accumulate() {
    // The paper's example: K̃ = 3, so smaller register counts merge.
    let pattern = AccessPattern::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1);
    let plain = Optimizer::new(AguSpec::new(2, 1).unwrap());
    let saris_sized = Optimizer::new(AguSpec::new(8, 1).unwrap().with_modify_registers(8));

    // A single-count allocation: one run of each phase.
    let (phase1, phase2) = counts();
    let _ = plain.allocate(&pattern);
    assert_eq!(counts(), (phase1 + 1, phase2 + 1));

    // A sweep on a modify-register machine evaluates eight register
    // counts at nine selection levels, and is still one Phase-2 run.
    let (phase1, phase2) = counts();
    let sweep = saris_sized.sweep(&pattern, 8);
    assert_eq!(counts(), (phase1 + 1, phase2 + 1));
    // Its reports finish any swept count without another run …
    let _ = sweep.into_allocation(2);
    assert_eq!(counts(), (phase1 + 1, phase2 + 1));
    // … and a count past the sweep is one single-count run.
    let _ = saris_sized.sweep(&pattern, 2).into_allocation(3);
    assert_eq!(counts(), (phase1 + 2, phase2 + 3));

    // A plain sweep keeps only the curve's trajectory: one run for the
    // sweep, one for the allocation that finishes it.
    let (phase1, phase2) = counts();
    let _ = plain.sweep(&pattern, 2).into_allocation(1);
    assert_eq!(counts(), (phase1 + 1, phase2 + 2));
}
