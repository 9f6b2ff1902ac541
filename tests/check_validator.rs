//! Two-oracle validation at the integration level.
//!
//! The pipeline validates every generated listing twice: operationally
//! (the simulator replays it against a captured access trace) and
//! declaratively (`raco-check` re-derives correctness from the listing
//! rows alone). These tests drive both oracles over the full kernel
//! suite and then mutation-test the declarative one: a deliberately
//! corrupted listing must be caught, the offending program shrunk, and
//! a minimal `.dsp` reproducer written — the same path `raco fuzz`
//! takes on a real failure. Finally, a fixed list of listing mutations
//! over every kernel on every built-in machine pins the checker's exact
//! violation messages and their order
//! (`tests/fixtures/check_violations.txt`).

use raco::agu::codegen::CodeGenerator;
use raco::agu::isa::{AddressInstr, AddressProgram, CarryBlock, MrId, RegId, Update};
use raco::agu::sim;
use raco::check;
use raco::core::Optimizer;
use raco::fuzz::{gen_unit, shrink_unit, write_failure, GenUnit};
use raco::ir::dsl;
use raco::ir::{AguSpec, CostTable, LoopSpec, MachineDescription, MemoryLayout, Trace};
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

// ---------------------------------------------------------------------
// Pinned checker output: every violation string, in report order.
// ---------------------------------------------------------------------

/// A listing mutation: the corrupted program plus the cycle count the
/// caller claims, or `None` when the program has nothing to corrupt.
type Mutation = fn(&AddressProgram) -> Option<(AddressProgram, Option<u64>)>;

/// Reassembles `program` from new parts, keeping its carries and cost
/// table so only the intended mutation differs.
fn reassemble(
    program: &AddressProgram,
    prologue: Vec<AddressInstr>,
    body: Vec<AddressInstr>,
    modify_values: Vec<i64>,
) -> AddressProgram {
    AddressProgram::new(prologue, body, program.address_registers(), modify_values)
        .with_carries(program.carries().to_vec())
        .with_cost_table(program.cost_table())
}

fn with_prologue(program: &AddressProgram, prologue: Vec<AddressInstr>) -> AddressProgram {
    reassemble(
        program,
        prologue,
        program.body().to_vec(),
        program.modify_values().to_vec(),
    )
}

fn with_body(program: &AddressProgram, body: Vec<AddressInstr>) -> AddressProgram {
    reassemble(
        program,
        program.prologue().to_vec(),
        body,
        program.modify_values().to_vec(),
    )
}

fn use_rows(program: &AddressProgram) -> Vec<usize> {
    (0..program.body().len())
        .filter(|&i| matches!(program.body()[i], AddressInstr::Use { .. }))
        .collect()
}

fn first_prologue(program: &AddressProgram, lda: bool) -> Option<usize> {
    program.prologue().iter().position(|instr| match instr {
        AddressInstr::Lda { .. } => lda,
        AddressInstr::Ldm { .. } => !lda,
        _ => false,
    })
}

fn duplicate_prologue_row(program: &AddressProgram, row: usize) -> AddressProgram {
    let mut prologue = program.prologue().to_vec();
    prologue.insert(row + 1, prologue[row]);
    with_prologue(program, prologue)
}

const MUTATIONS: &[(&str, Mutation)] = &[
    ("bump-first-auto", |p| {
        corrupt_first_auto_update(p).map(|c| (c.with_cost_table(p.cost_table()), None))
    }),
    ("drop-prologue-lda", |p| {
        let mut prologue = p.prologue().to_vec();
        prologue.remove(first_prologue(p, true)?);
        Some((with_prologue(p, prologue), None))
    }),
    ("double-prologue-lda", |p| {
        Some((duplicate_prologue_row(p, first_prologue(p, true)?), None))
    }),
    ("double-prologue-ldm", |p| {
        Some((duplicate_prologue_row(p, first_prologue(p, false)?), None))
    }),
    ("swap-first-uses", |p| {
        let uses = use_rows(p);
        let (&a, &b) = (uses.first()?, uses.get(1)?);
        let mut body = p.body().to_vec();
        body.swap(a, b);
        Some((with_body(p, body), None))
    }),
    ("drop-last-use", |p| {
        let mut body = p.body().to_vec();
        body.remove(*use_rows(p).last()?);
        Some((with_body(p, body), None))
    }),
    ("bump-modify-value", |p| {
        let mut values = p.modify_values().to_vec();
        *values.first_mut()? += 1;
        let program = reassemble(p, p.prologue().to_vec(), p.body().to_vec(), values);
        Some((program, None))
    }),
    ("ar-past-count", |p| {
        let mut body = p.body().to_vec();
        let row = *use_rows(p).first()?;
        if let AddressInstr::Use { reg, .. } = &mut body[row] {
            reg.0 = u16::try_from(p.address_registers()).ok()?;
        }
        Some((with_body(p, body), None))
    }),
    ("mr-past-count", |p| {
        let mut prologue = p.prologue().to_vec();
        prologue.push(AddressInstr::Ldm {
            mr: MrId(u16::try_from(p.modify_values().len()).ok()?),
            value: 1,
        });
        Some((with_prologue(p, prologue), None))
    }),
    ("adda-in-prologue", |p| {
        let mut prologue = p.prologue().to_vec();
        prologue.push(AddressInstr::Adda {
            reg: RegId(0),
            delta: 1,
        });
        Some((with_prologue(p, prologue), None))
    }),
    ("lda-in-body", |p| {
        let mut body = p.body().to_vec();
        body.push(p.prologue()[first_prologue(p, true)?]);
        Some((with_body(p, body), None))
    }),
    ("carry-off-by-one", |p| {
        let mut carries = p.carries().to_vec();
        let delta =
            carries
                .iter_mut()
                .flat_map(|b| &mut b.instrs)
                .find_map(|instr| match instr {
                    AddressInstr::Adda { delta, .. } => Some(delta),
                    _ => None,
                })?;
        *delta += 1;
        Some((p.clone().with_carries(carries), None))
    }),
    ("carry-at-non-period", |p| {
        let mut carries = p.carries().to_vec();
        carries.first_mut()?.period += 1;
        Some((p.clone().with_carries(carries), None))
    }),
    ("extra-carry-block", |p| {
        let mut carries = p.carries().to_vec();
        carries.push(CarryBlock {
            period: 1,
            instrs: vec![AddressInstr::Adda {
                reg: RegId(0),
                delta: 1,
            }],
        });
        Some((p.clone().with_carries(carries), None))
    }),
    ("expected-cycles-off-by-one", |p| {
        Some((p.clone(), Some(p.cycles_per_iteration() + 1)))
    }),
    ("foreign-cost-table", |p| {
        let costs = p.cost_table();
        let foreign = CostTable::new(costs.lda() + 1, costs.ldm() + 1, costs.adda() + 1).ok()?;
        Some((p.clone().with_cost_table(foreign), None))
    }),
];

/// Runs every mutation over every kernel on every built-in machine and
/// renders one `machine/kernel/mutation: invariant: message` line per
/// violation, in report order.
fn render_mutation_violations() -> String {
    let mut out = String::new();
    for &machine in MachineDescription::builtin_names() {
        let agu = *MachineDescription::builtin(machine).unwrap().spec();
        for kernel in raco::kernels::suite() {
            let spec = kernel.spec();
            let Some((layout, program)) = compile(spec, &agu) else {
                continue;
            };
            for (mutation, apply) in MUTATIONS {
                let Some((mutated, expected_cycles)) = apply(&program) else {
                    continue;
                };
                let report = check::check_program(spec, &layout, &agu, &mutated, expected_cycles);
                for violation in report.violations() {
                    out.push_str(&format!(
                        "{machine}/{}/{mutation}: {violation}\n",
                        kernel.name()
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn mutated_listings_reproduce_the_pinned_violations() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/check_violations.txt");
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let actual = render_mutation_violations();
    if let Some((line, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!("fixture line {}:\n  want: {want}\n  got:  {got}", line + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "violation count drifted from the fixture"
    );
    for invariant in check::INVARIANTS {
        assert!(
            expected.contains(&format!(": {}: ", invariant.name)),
            "fixture never trips `{}`",
            invariant.name
        );
    }
}
