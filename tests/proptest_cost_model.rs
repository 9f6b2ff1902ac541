//! Differential properties of the modify-register-aware cost model.
//!
//! The allocator's Phase 2 prices modify registers itself, so its
//! predicted address-update count must equal what the cycle-accurate
//! simulator measures on the generated code — on every machine,
//! including MR-equipped ones. These properties pin that end to end:
//!
//! * **differential** — random patterns × machines with 0..=4 modify
//!   registers: allocate, generate code, simulate, and require
//!   `predicted == measured` exactly (single- and multi-array loops,
//!   uncached and through the pipeline's cached path);
//! * **monotonicity** — more modify registers never increase the
//!   predicted cost;
//! * **zero-MR identity** — on machines without modify registers the
//!   allocation is byte-identical to the pre-change model (the paper's
//!   Figure 1 reproduction cannot drift);
//! * **sweep reuse** — a register sweep reproduces `cost_curve`, and
//!   finishing it at any register count reproduces
//!   `allocate_with_registers`, at the built-in machines' sizes (up to
//!   8 address and 8 modify registers);
//! * **incremental pricing** — Phase 2's merge pricer agrees with
//!   re-pricing the merged cover from scratch;
//! * **cache-key soundness** — machines differing only in MR count
//!   never share allocation-cache entries, in memory or through
//!   snapshots, and pre-bump snapshots are rejected cleanly.

use proptest::prelude::*;

use raco::agu::codegen::CodeGenerator;
use raco::agu::sim;
use raco::core::phase2::MergePricer;
use raco::core::{CostModel, Optimizer, OptimizerOptions};
use raco::driver::{persist, AllocationCache, Pipeline, PipelineConfig};
use raco::graph::{DistanceModel, Path, PathCover};
use raco::ir::{
    AccessKind, AccessPattern, AguSpec, CanonicalPattern, CostTable, LoopSpec, MemoryLayout, Trace,
    UpdateRange,
};

/// Strategy: a random access pattern (offsets, stride, modify range).
fn pattern() -> impl Strategy<Value = (Vec<i64>, i64, u32)> {
    (
        prop::collection::vec(-12i64..=12, 2..=10),
        prop_oneof![Just(1i64), Just(-1i64), Just(2i64), Just(-3i64), Just(5i64)],
        0u32..=2,
    )
}

/// Strategy: the update windows the sweep and pricing properties cover,
/// asymmetric ones included.
fn update_range() -> impl Strategy<Value = UpdateRange> {
    prop_oneof![
        Just(UpdateRange::symmetric(0)),
        Just(UpdateRange::symmetric(1)),
        Just(UpdateRange::symmetric(2)),
        Just(UpdateRange::new(0, 1).unwrap()),
        Just(UpdateRange::new(-1, 3).unwrap()),
    ]
}

/// The cover whose paths group the accesses by label: access `i` lies
/// on the path of `labels[i]`. Random labels give anything from all
/// singletons to one chain, zero-cost and relaxed covers alike.
fn cover_from_labels(labels: &[usize]) -> PathCover {
    let mut paths: Vec<Vec<usize>> = Vec::new();
    let mut path_of_label = std::collections::HashMap::new();
    for (access, label) in labels.iter().enumerate() {
        let path = *path_of_label.entry(label).or_insert_with(|| {
            paths.push(Vec::new());
            paths.len() - 1
        });
        paths[path].push(access);
    }
    let paths = paths.into_iter().map(|p| Path::new(p).unwrap()).collect();
    PathCover::new(paths, labels.len()).unwrap()
}

/// Builds a single-array loop whose pattern is exactly `offsets`.
fn single_array_loop(offsets: &[i64], stride: i64) -> LoopSpec {
    let mut spec = LoopSpec::new("prop", "i", stride);
    let a = spec.add_array("a", 1);
    for &off in offsets {
        spec.push_access(a, off, AccessKind::Read).unwrap();
    }
    spec
}

/// Allocates `spec` on `agu`, generates code, simulates, and returns
/// `(predicted, measured)` updates per iteration.
fn predict_and_measure(spec: &LoopSpec, agu: AguSpec, iterations: u64) -> (u64, u64) {
    let alloc = Optimizer::new(agu).allocate_loop(spec).expect("allocates");
    let layout = MemoryLayout::contiguous(spec, 0x2000, 0x400);
    let program = CodeGenerator::new(agu)
        .generate(spec, &alloc, &layout)
        .expect("emits");
    let trace = Trace::capture(spec, &layout, iterations);
    let report = sim::run(&program, &trace, &agu).expect("simulates");
    (
        u64::from(alloc.total_cost()),
        report.explicit_updates_per_iteration(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core differential: predicted address-update cycles equal the
    /// simulator's measured cycles for every machine in 0..=4 modify
    /// registers.
    #[test]
    fn predicted_equals_measured_across_modify_register_counts(
        (offsets, stride, m) in pattern(),
        k in 1usize..=4,
        mr in 0usize..=4,
    ) {
        let spec = single_array_loop(&offsets, stride);
        let agu = AguSpec::new(k, m).unwrap().with_modify_registers(mr);
        let (predicted, measured) = predict_and_measure(&spec, agu, 8);
        prop_assert_eq!(
            predicted, measured,
            "K={} M={} MR={} offsets {:?} stride {}",
            k, m, mr, &offsets, stride
        );
    }

    /// Multi-array loops pool the machine-wide modify-register budget;
    /// prediction must still match measurement exactly.
    #[test]
    fn predicted_equals_measured_for_multi_array_loops(
        (offsets_a, stride, m) in pattern(),
        offsets_b in prop::collection::vec(-12i64..=12, 2..=8),
        k in 2usize..=4,
        mr in 0usize..=4,
    ) {
        let mut spec = LoopSpec::new("prop2", "i", stride);
        let a = spec.add_array("a", 1);
        let b = spec.add_array("b", 2);
        for (pos, &off) in offsets_a.iter().enumerate() {
            spec.push_access(a, off, AccessKind::Read).unwrap();
            if let Some(&boff) = offsets_b.get(pos) {
                spec.push_access(b, boff, AccessKind::Read).unwrap();
            }
        }
        for &boff in offsets_b.iter().skip(offsets_a.len()) {
            spec.push_access(b, boff, AccessKind::Write).unwrap();
        }
        let agu = AguSpec::new(k, m).unwrap().with_modify_registers(mr);
        let (predicted, measured) = predict_and_measure(&spec, agu, 6);
        prop_assert_eq!(
            predicted, measured,
            "K={} M={} MR={} a {:?} b {:?} stride {}",
            k, m, mr, &offsets_a, &offsets_b, stride
        );
    }

    /// The pipeline's cached path validates every loop against the
    /// simulator with the strict equality check — a random pattern must
    /// never trip it, warm or cold.
    #[test]
    fn pipeline_validation_never_sees_a_cost_mismatch(
        (offsets, stride, m) in pattern(),
        mr in 0usize..=4,
    ) {
        let agu = AguSpec::new(4, m).unwrap().with_modify_registers(mr);
        let mut config = PipelineConfig::new(agu);
        config.validation_iterations = 6;
        let pipeline = Pipeline::with_config(config);
        let spec = single_array_loop(&offsets, stride);
        for round in 0..2 {
            // Second round is a warm cache hit; results must validate
            // identically.
            let (report, _) = pipeline.compile_loop(&spec);
            prop_assert!(
                report.failure.is_none(),
                "round {}: {:?} (offsets {:?} stride {} MR {})",
                round, report.failure, &offsets, stride, mr
            );
            prop_assert_eq!(report.measured_cost, Some(report.cost));
        }
    }

    /// More modify registers never increase the predicted cost.
    #[test]
    fn predicted_cost_is_monotone_in_modify_registers(
        (offsets, stride, m) in pattern(),
        k in 1usize..=4,
    ) {
        let pattern = AccessPattern::from_offsets(&offsets, stride);
        let mut last = u32::MAX;
        for mr in 0..=4usize {
            let agu = AguSpec::new(k, m).unwrap().with_modify_registers(mr);
            let cost = Optimizer::new(agu).allocate(&pattern).cost();
            prop_assert!(
                cost <= last,
                "K={} M={} MR={}: cost {} > {} with one register fewer (offsets {:?})",
                k, m, mr, cost, last, &offsets
            );
            last = cost;
        }
    }

    /// Machines without modify registers allocate byte-identically to
    /// the pre-change model — no regression to the paper reproduction.
    #[test]
    fn zero_mr_allocations_are_byte_identical_to_the_plain_model(
        (offsets, stride, m) in pattern(),
        k in 1usize..=4,
    ) {
        let pattern = AccessPattern::from_offsets(&offsets, stride);
        let agu = AguSpec::new(k, m).unwrap();
        // `new` prices the machine (zero MRs here); explicit default
        // options are the pre-change model. Identical structs means
        // identical covers, costs, merge records and trajectories.
        let via_machine = Optimizer::new(agu).allocate(&pattern);
        let pre_change = Optimizer::with_options(agu, OptimizerOptions::default())
            .allocate(&pattern);
        prop_assert_eq!(via_machine, pre_change);
    }

    /// A sweep is the curve plus what every allocation reuses: its
    /// curve equals `cost_curve`, and finishing it at any register
    /// count — past the swept counts too, where it falls back to one
    /// Phase-2 run — equals `allocate_with_registers`. Asymmetric
    /// windows and non-unit cost tables included.
    #[test]
    fn sweeps_reproduce_curves_and_allocations(
        (offsets, stride, _) in pattern(),
        range in update_range(),
        costs in prop_oneof![Just(CostTable::UNIT), Just(CostTable::new(1, 2, 2).unwrap())],
        k in 1usize..=8,
        mr in 0usize..=8,
    ) {
        let pattern = AccessPattern::from_offsets(&offsets, stride);
        let agu = AguSpec::new(k, 1)
            .unwrap()
            .with_update_range(range)
            .with_cost_table(costs)
            .with_modify_registers(mr);
        let optimizer = Optimizer::with_options(agu, PipelineConfig::new(agu).effective_options());
        let sweep = optimizer.sweep(&pattern, k);
        prop_assert_eq!(
            sweep.curve().to_vec(),
            optimizer.cost_curve(&pattern, k),
            "{:?} offsets {:?} stride {}", agu, &offsets, stride
        );
        for j in 1..=k + 1 {
            prop_assert_eq!(
                optimizer.sweep(&pattern, k).into_allocation(j),
                optimizer.allocate_with_registers(&pattern, j),
                "j={} {:?} offsets {:?} stride {}", j, agu, &offsets, stride
            );
        }
    }

    /// Phase 2 prices a merge candidate incrementally; the price must
    /// equal the oracle: clone the cover, merge the pair, and re-price
    /// it with `cover_cost`. Random covers (zero-cost and relaxed), both
    /// wrap conventions, 0..=4 modify registers and ADDA costs 1–2. The
    /// best (or, with `worst`, the worst) pair must win the oracle's
    /// ranking too; the pricer then follows that merge, so every cover
    /// down to one path is checked.
    #[test]
    fn merge_pricer_matches_repricing_the_merged_cover(
        (offsets, stride, _) in pattern(),
        range in update_range(),
        labels in prop::collection::vec(0usize..6, 10),
        wrap in prop::bool::ANY,
        worst in prop::bool::ANY,
        mr in 0usize..=4,
        adda in 1u32..=2,
    ) {
        let dm = DistanceModel::from_offsets_range(&offsets, stride, range);
        let mut cover = cover_from_labels(&labels[..offsets.len()]);
        let base = if wrap { CostModel::steady_state() } else { CostModel::paper_literal() };
        let model = base.with_modify_registers(mr).with_adda_cost(adda);
        let mut pricer = MergePricer::new(&cover, &dm, model);
        loop {
            prop_assert_eq!(pricer.cost(), model.cover_cost(&cover, &dm), "{}", &cover);
            let p = cover.register_count();
            if p < 2 {
                break;
            }
            let mut best: Option<((u32, usize, usize, usize), u32)> = None;
            for i in 0..p {
                for j in (i + 1)..p {
                    let mut merged = cover.clone();
                    merged.merge_pair(i, j).unwrap();
                    let cost = model.cover_cost(&merged, &dm);
                    prop_assert_eq!(
                        pricer.merged_cost(&cover, i, j),
                        cost,
                        "{} merging {} and {}: {:?} offsets {:?} stride {}",
                        &cover, i, j, model, &offsets, stride
                    );
                    let primary = if worst { u32::MAX - cost } else { cost };
                    let merged_len = cover.paths()[i].len() + cover.paths()[j].len();
                    let rank = (primary, merged_len, i, j);
                    if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                        best = Some((rank, cost));
                    }
                }
            }
            let ((_, _, i, j), cost) = best.unwrap();
            prop_assert_eq!(pricer.best_pair(&cover, worst), (i, j, cost), "{}", &cover);
            pricer.merge(&cover, i, j);
            cover.merge_pair(i, j).unwrap();
        }
    }
}

/// Machines differing only in modify-register count must produce
/// distinct allocation-cache keys: the cost model's MR count is part of
/// the optimizer options, which are part of every key.
#[test]
fn cache_keys_distinguish_modify_register_counts() {
    let cache = AllocationCache::new();
    let canonical = CanonicalPattern::from_offsets(&[0, 10, 20, 30], 1);
    let pattern = AccessPattern::from_offsets(&[0, 10, 20, 30], 1);
    let mut computed = 0u32;
    for mr in [0usize, 2] {
        let agu = AguSpec::new(1, 1).unwrap().with_modify_registers(mr);
        let optimizer = Optimizer::new(agu);
        let _ = cache.allocation(
            &canonical,
            raco_ir::UpdateRange::symmetric(1),
            1,
            optimizer.options(),
            || {
                computed += 1;
                optimizer.allocate(&pattern)
            },
        );
    }
    assert_eq!(computed, 2, "each machine must compute its own entry");
    let stats = cache.stats();
    assert_eq!(stats.allocation_misses, 2);
    assert_eq!(stats.allocation_entries, 2);
}

/// A snapshot saved under one modify-register count must not warm-hit a
/// pipeline targeting another MR count — and must fully warm-hit the
/// same machine.
#[test]
fn snapshots_do_not_cross_modify_register_machines() {
    let source = "for (i = 0; i < 32; i++) { s += x[i] + x[i + 10] + x[i + 20]; }";
    let dir = std::env::temp_dir();
    let path = dir.join(format!("raco-mr-key-test-{}.snap", std::process::id()));

    let plain = Pipeline::new(AguSpec::new(2, 1).unwrap());
    let report = plain.compile_str("warm", source).unwrap();
    assert_eq!(report.failed(), 0);
    plain.save_cache(&path).unwrap();

    // Same machine: the first batch after boot is all hits.
    let same = Pipeline::new(AguSpec::new(2, 1).unwrap());
    same.load_cache(&path).unwrap();
    let warm = same.compile_str("warm", source).unwrap();
    assert_eq!(warm.cache.allocation_misses, 0, "{:?}", warm.cache);
    assert!(warm.cache.allocation_hits > 0);

    // A machine differing only in MR count: every allocation recomputes
    // (a false hit would replay MR-blind covers and costs).
    let other = Pipeline::new(AguSpec::new(2, 1).unwrap().with_modify_registers(2));
    other.load_cache(&path).unwrap();
    let cross = other.compile_str("warm", source).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(cross.failed(), 0);
    assert!(
        cross.cache.allocation_misses > 0,
        "MR-equipped machine must not reuse MR-blind snapshot entries: {:?}",
        cross.cache
    );
    assert_eq!(cross.cache.allocation_hits, 0, "{:?}", cross.cache);
}

/// Cross-version regression for the v1 → v2 snapshot bump: a
/// structurally valid version-1 file is rejected whole, with a warning,
/// and the cache stays cold.
#[test]
fn version_one_snapshots_are_rejected_by_the_version_two_reader() {
    assert_eq!(
        persist::SNAPSHOT_VERSION,
        3,
        "this regression test pins the v2 -> v3 bump; revisit it on the next bump"
    );
    // Both prior on-disk formats must be rejected whole: v1 predates
    // option-discriminated keys, v2 cannot express update ranges or
    // ADDA costs, so neither may warm-hit a v3 cache.
    for stale in [1u32, 2u32] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&persist::SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&stale.to_le_bytes()); // the pre-bump version
        bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved
        bytes.push(0x00); // end marker
        let sum = persist::checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());

        let cache = AllocationCache::new();
        let report = persist::decode_into(&cache, &bytes);
        assert_eq!(report.loaded(), 0);
        assert_eq!(report.skipped, 1);
        let needle = format!("unsupported snapshot version {stale}");
        assert!(
            report.warnings[0].contains(&needle),
            "{:?}",
            report.warnings
        );
        assert_eq!(cache.stats().loaded, 0);
        assert_eq!(cache.stats().allocation_entries, 0);
    }
}
