//! Two-oracle validation at the integration level.
//!
//! The pipeline validates every generated listing twice: operationally
//! (the simulator replays it against a captured access trace) and
//! declaratively (`raco-check` re-derives correctness from the listing
//! rows alone). These tests drive both oracles over the full kernel
//! suite and then mutation-test the declarative one: a deliberately
//! corrupted listing must be caught, the offending program shrunk, and
//! a minimal `.dsp` reproducer written — the same path `raco fuzz`
//! takes on a real failure.

use raco::agu::codegen::CodeGenerator;
use raco::agu::isa::{AddressInstr, AddressProgram, Update};
use raco::agu::sim;
use raco::check;
use raco::core::Optimizer;
use raco::fuzz::{gen_unit, shrink_unit, write_failure, GenUnit};
use raco::ir::dsl;
use raco::ir::{AguSpec, LoopSpec, MemoryLayout, Trace};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The pipeline's layout defaults (`PipelineConfig::new`).
fn layout_for(spec: &LoopSpec) -> MemoryLayout {
    MemoryLayout::contiguous(spec, 0x1000, 0x400)
}

/// Compiles the loop, or `None` when the machine is too small for it
/// (e.g. a 3-array kernel on K = 2 — a legitimate allocation error,
/// not a listing bug).
fn compile(spec: &LoopSpec, agu: &AguSpec) -> Option<(MemoryLayout, AddressProgram)> {
    let allocation = Optimizer::new(*agu).allocate_loop(spec).ok()?;
    let layout = layout_for(spec);
    let program = CodeGenerator::new(*agu)
        .generate(spec, &allocation, &layout)
        .expect("kernel codegen succeeds");
    Some((layout, program))
}

fn simulate(
    spec: &LoopSpec,
    layout: &MemoryLayout,
    agu: &AguSpec,
    program: &AddressProgram,
) -> Result<(), String> {
    let iterations = match spec.nest() {
        Some(nest) => nest.total_iterations().clamp(1, 256),
        None => 16,
    };
    let trace = Trace::capture(spec, layout, iterations);
    sim::run(program, &trace, agu)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

#[test]
fn every_kernel_passes_both_oracles_across_machines() {
    let machines = [
        AguSpec::new(2, 1).unwrap(),
        AguSpec::new(4, 1).unwrap(),
        AguSpec::new(4, 2).unwrap().with_modify_registers(2),
        AguSpec::new(8, 0).unwrap().with_modify_registers(1),
    ];
    let suite = raco::kernels::suite();
    assert!(suite.len() >= 12, "kernel suite shrank to {}", suite.len());
    let mut combinations = 0usize;
    for kernel in suite {
        for agu in &machines {
            let spec = kernel.spec();
            let Some((layout, program)) = compile(spec, agu) else {
                continue;
            };
            combinations += 1;
            simulate(spec, &layout, agu, &program).unwrap_or_else(|e| {
                panic!(
                    "simulator rejected kernel `{}` on {agu:?}: {e}",
                    kernel.name()
                )
            });
            let report = check::check_program(spec, &layout, agu, &program, None);
            assert!(
                report.is_clean(),
                "checker rejected kernel `{}` on {agu:?}: {}",
                kernel.name(),
                report.summary()
            );
        }
    }
    assert!(
        combinations >= suite.len() * 2,
        "too few feasible kernel × machine combinations: {combinations}"
    );
}

#[test]
fn pipeline_rejects_nothing_on_the_clean_kernel_suite() {
    // The pipeline gates on BOTH oracles since the checker landed; a
    // clean suite means neither oracle fires and they never disagree.
    let report = raco::driver::Pipeline::new(AguSpec::new(4, 1).unwrap()).compile_kernels();
    assert_eq!(report.failed(), 0, "{}", report.render_table());
}

/// Corrupts the first auto-update of the body: the classic off-by-one
/// a buggy distance model would produce. Returns `None` for programs
/// with no auto-updating serve (nothing to corrupt).
fn corrupt_first_auto_update(program: &AddressProgram) -> Option<AddressProgram> {
    let mut body = program.body().to_vec();
    let target = body.iter_mut().find_map(|instr| match instr {
        AddressInstr::Use {
            update: Update::Auto { delta },
            ..
        } => Some(delta),
        _ => None,
    })?;
    *target += 1;
    Some(
        AddressProgram::new(
            program.prologue().to_vec(),
            body,
            program.address_registers(),
            program.modify_values().to_vec(),
        )
        .with_carries(program.carries().to_vec()),
    )
}

/// The mutation predicate `raco fuzz` would shrink against: compile
/// the unit with the reference toolchain, corrupt the listing, and
/// report whether the declarative checker catches it.
fn mutated_unit_fails_checker(unit: &GenUnit, agu: &AguSpec) -> bool {
    let Ok(specs) = dsl::parse_program(&unit.render()) else {
        return false;
    };
    for spec in &specs {
        let Ok(allocation) = Optimizer::new(*agu).allocate_loop(spec) else {
            continue;
        };
        let layout = layout_for(spec);
        let Ok(program) = CodeGenerator::new(*agu).generate(spec, &allocation, &layout) else {
            continue;
        };
        let Some(corrupted) = corrupt_first_auto_update(&program) else {
            continue;
        };
        if !check::check_program(spec, &layout, agu, &corrupted, None).is_clean() {
            return true;
        }
    }
    false
}

#[test]
fn corrupted_listing_is_caught_shrunk_and_written_as_a_repro() {
    let agu = AguSpec::new(4, 1).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xbadc0de);
    // Find a generated unit whose corrupted listing the checker flags
    // (almost all of them: any program with an auto-updating serve).
    let unit = loop {
        let unit = gen_unit(&mut rng);
        if mutated_unit_fails_checker(&unit, &agu) {
            break unit;
        }
    };

    let minimal = shrink_unit(&unit, |u| mutated_unit_fails_checker(u, &agu), 400);
    assert!(
        mutated_unit_fails_checker(&minimal, &agu),
        "shrinking must preserve the failure"
    );
    assert_eq!(minimal.loops.len(), 1, "minimal repro keeps one loop");
    assert_eq!(
        minimal.loops[0].stmts.len(),
        1,
        "minimal repro keeps one statement"
    );

    // The fuzz failure path writes the shrunk source as a `.dsp` repro
    // with a JSON sidecar carrying the seed and request.
    let dir = std::env::temp_dir().join(format!("raco-check-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = minimal.render();
    let path = write_failure(
        &dir,
        "checker-mutation",
        0xbadc0de,
        1,
        Some(&source),
        r#"{"op":"compile","name":"mutation"}"#,
        "corrupted auto-update caught by delta-coverage",
    )
    .unwrap();
    assert!(path.exists());
    let dsp = std::fs::read_to_string(&path).unwrap();
    assert!(dsp.contains("seed 0xbadc0de"));
    // The repro must itself be valid DSL (comments included).
    let reparsed = dsl::parse_program(&source).expect("repro parses");
    assert!(!reparsed.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checker_names_the_violated_invariant_for_a_corrupted_kernel() {
    let agu = AguSpec::new(4, 1).unwrap();
    let suite = raco::kernels::suite();
    let mut corrupted_any = false;
    for kernel in suite {
        let spec = kernel.spec();
        let (layout, program) = compile(spec, &agu).expect("K = 4 fits every kernel");
        let Some(corrupted) = corrupt_first_auto_update(&program) else {
            continue;
        };
        corrupted_any = true;
        let report = check::check_program(spec, &layout, &agu, &corrupted, None);
        assert!(
            !report.is_clean(),
            "kernel `{}`: corrupted listing slipped past the checker",
            kernel.name()
        );
        assert!(
            report
                .violations()
                .iter()
                .any(|v| v.invariant == "delta-coverage" || v.invariant == "steady-state-advance"),
            "kernel `{}`: unexpected invariants {:?}",
            kernel.name(),
            report
                .violations()
                .iter()
                .map(|v| v.invariant)
                .collect::<Vec<_>>()
        );
    }
    assert!(corrupted_any, "no kernel had an auto-update to corrupt");
}
