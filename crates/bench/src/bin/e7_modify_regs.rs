//! E7 — extension experiment: modify registers (the machine model of the
//! paper's ref \[2\], Araujo et al.). How many explicit updates per
//! iteration remain when the machine has L ∈ {0, 1, 2, 4} modify
//! registers, on kernels and on random patterns — and, since the
//! allocator's cost model prices modify registers itself, the
//! measured-vs-predicted comparison: the MR-blind model over-predicts
//! by exactly the deltas codegen absorbs, the MR-aware model matches
//! the simulator cycle for cycle.
//!
//! Usage: `e7_modify_regs [--samples N]` (default 100).

use raco_agu::codegen::CodeGenerator;
use raco_agu::sim;
use raco_bench::stats::Summary;
use raco_bench::sweep::{sample_seed, CellKey};
use raco_bench::table::{f1, f2, Table};
use raco_core::random::{PatternGenerator, Spread};
use raco_core::{Optimizer, OptimizerOptions};
use raco_graph::{ModifyAllocation, PathCover};
use raco_ir::{AguSpec, MemoryLayout, Trace};

fn main() {
    let samples = raco_bench::samples_arg(100);
    println!("E7 — modify-register extension (ref [2] machine model)\n");

    // Kernels: generated code, verified by simulation.
    let mut table = Table::new(
        "Explicit updates per iteration by modify-register count (K = 4, M = 1)",
        &["kernel", "L = 0", "L = 1", "L = 2", "L = 4"],
    );
    for kernel in raco_kernels::suite() {
        if kernel.spec().patterns().len() > 4 {
            continue;
        }
        let mut cells = Vec::new();
        for l in [0usize, 1, 2, 4] {
            let agu = AguSpec::new(4, 1).unwrap().with_modify_registers(l);
            let alloc = Optimizer::new(agu).allocate_loop(kernel.spec()).unwrap();
            let layout = MemoryLayout::contiguous(kernel.spec(), 0x800, 0x400);
            let program = CodeGenerator::new(agu)
                .generate(kernel.spec(), &alloc, &layout)
                .unwrap();
            let trace = Trace::capture(kernel.spec(), &layout, 32);
            let report = sim::run(&program, &trace, &agu).expect("verified");
            cells.push(report.explicit_updates_per_iteration().to_string());
        }
        table.push_row(vec![
            kernel.name().to_owned(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
    }
    table.emit("e7_kernels");

    // Measured vs predicted on an MR-equipped machine: the MR-blind
    // model (pre-change allocator) vs the MR-aware model vs simulated
    // ground truth. The aware column must equal the measured column on
    // every kernel — the gap the cost model closes.
    let mut gap = Table::new(
        "Measured vs predicted per iteration (K = 4, M = 1, L = 2)",
        &[
            "kernel",
            "blind pred",
            "aware pred",
            "measured",
            "gap closed",
        ],
    );
    let agu = AguSpec::new(4, 1).unwrap().with_modify_registers(2);
    for kernel in raco_kernels::suite() {
        if kernel.spec().patterns().len() > 4 {
            continue;
        }
        let blind = Optimizer::with_options(agu, OptimizerOptions::default())
            .allocate_loop(kernel.spec())
            .unwrap();
        let aware = Optimizer::new(agu).allocate_loop(kernel.spec()).unwrap();
        let layout = MemoryLayout::contiguous(kernel.spec(), 0x800, 0x400);
        let program = CodeGenerator::new(agu)
            .generate(kernel.spec(), &aware, &layout)
            .unwrap();
        let trace = Trace::capture(kernel.spec(), &layout, 32);
        let measured = sim::run(&program, &trace, &agu)
            .expect("verified")
            .explicit_updates_per_iteration();
        assert_eq!(
            u64::from(aware.total_cost()),
            measured,
            "{}: the MR-aware prediction must match the simulator",
            kernel.name()
        );
        gap.push_row(vec![
            kernel.name().to_owned(),
            blind.total_cost().to_string(),
            aware.total_cost().to_string(),
            measured.to_string(),
            u64::from(blind.total_cost())
                .saturating_sub(measured)
                .to_string(),
        ]);
    }
    gap.emit("e7_predicted_vs_measured");

    // Random patterns: mean residual cost after modify-register absorption.
    let mut rnd = Table::new(
        "Random patterns: mean explicit updates per iteration (K = 2, M = 1)",
        &["N", "spread", "L = 0", "L = 1", "L = 2", "savings L=2 %"],
    );
    for spread in Spread::all() {
        for n in [12usize, 20, 32] {
            let generator = PatternGenerator::new(n).spread(spread, 1);
            let key = CellKey {
                n,
                m: 1,
                k: 2,
                spread,
            };
            let mut by_l: Vec<Vec<f64>> = vec![Vec::new(); 3];
            for s in 0..samples {
                let pattern = generator.generate(sample_seed(0x30D1F7, &key, s));
                let agu = AguSpec::new(2, 1).unwrap();
                let alloc = Optimizer::new(agu).allocate(&pattern);
                for (i, l) in [0usize, 1, 2].into_iter().enumerate() {
                    // Residual = paths' over-range deltas not absorbed by
                    // the L most frequent values.
                    let modif =
                        ModifyAllocation::for_cover(alloc.cover(), alloc.distance_model(), l);
                    let residual =
                        cover_cost_with_modify(alloc.cover(), alloc.distance_model(), &modif);
                    by_l[i].push(f64::from(residual));
                }
            }
            let l0 = Summary::of(&by_l[0]).mean;
            let l2 = Summary::of(&by_l[2]).mean;
            rnd.push_row(vec![
                n.to_string(),
                spread.name().into(),
                f2(l0),
                f2(Summary::of(&by_l[1]).mean),
                f2(l2),
                f1(if l0 > 0.0 {
                    (l0 - l2) / l0 * 100.0
                } else {
                    0.0
                }),
            ]);
        }
    }
    rnd.emit("e7_random");
}

/// Steady-state explicit updates of a cover when deltas held in modify
/// registers are free.
fn cover_cost_with_modify(
    cover: &PathCover,
    dm: &raco_graph::DistanceModel,
    modify: &ModifyAllocation,
) -> u32 {
    let mut cost = 0;
    for path in cover.paths() {
        for delta in path.intra_steps(dm) {
            if !dm.is_free(delta) && !modify.is_free_delta(delta) {
                cost += 1;
            }
        }
        let wrap = path.wrap_step(dm);
        if !dm.is_free(wrap) && !modify.is_free_delta(wrap) {
            cost += 1;
        }
    }
    cost
}
