//! Declarative listing invariants — the second correctness oracle.
//!
//! The simulator (`raco_agu::sim`) is an *operational* oracle: it runs
//! the generated address program against a captured access trace and
//! compares every served address. This crate is the *declarative* one:
//! each [`Invariant`] re-derives one property of a correct listing
//! directly from the instruction rows — without executing them against
//! a trace — and reports a structured [`Violation`] when the rows break
//! it. The pipeline runs both oracles on every validated loop; a
//! listing that one oracle accepts and the other rejects is itself a
//! reportable bug class (an oracle disagreement), because the two
//! derivations share no code.
//!
//! [`check`] reads the rows in one walk — prologue, body, then each
//! carry block — in the style of a trace's row constraints. Rules that
//! concern one row (register indices in range, loads only in the
//! prologue, free updates in range, no reloads in the body, only ADDAs
//! in carry blocks) are applied as the row passes. Everything the
//! cross-row invariants need is collected on the way: the first LDA /
//! LDM per register, the first post-prologue reference per AR, one
//! delta ledger per AR, the served positions, the body's cycles, the
//! words, and the carry sum per (AR, period). Each invariant then
//! closes with a short check over those facts.
//!
//! The invariant inventory lives in [`INVARIANTS`]; each entry carries
//! a stable kebab-case `name` (used in violation reports, docs, and
//! fuzz repros) and a `why` sentence explaining what a violation would
//! mean for generated code. See ARCHITECTURE.md § "Listing invariants"
//! for the prose version.
//!
//! Entry point: [`check_program`] (or [`check`] with a prepared
//! [`CheckContext`]).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

use raco_agu::{AddressInstr, AddressProgram, Update};
use raco_ir::{AguSpec, ArrayId, LoopSpec, MemoryLayout};

/// Everything an invariant may consult: the loop, the machine, the
/// memory layout codegen targeted, the generated program, and (when
/// the caller has one) the cost model's claimed cycles per iteration.
#[derive(Debug, Clone, Copy)]
pub struct CheckContext<'a> {
    /// The loop the program was generated for.
    pub spec: &'a LoopSpec,
    /// The memory layout the program's absolute addresses target.
    pub layout: &'a MemoryLayout,
    /// The machine the program must fit.
    pub agu: &'a AguSpec,
    /// The generated address program under check.
    pub program: &'a AddressProgram,
    /// Externally claimed addressing cycles per iteration (the cost
    /// model's prediction), compared by `cycle-accounting` when given.
    pub expected_cycles: Option<u64>,
}

/// One violated invariant instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the violated invariant (see [`INVARIANTS`]).
    pub invariant: &'static str,
    /// What the rows actually say, with concrete values.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.message)
    }
}

/// Structured result of running every invariant over one program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    invariants_checked: usize,
    violations: Vec<Violation>,
}

impl CheckReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Every violation, in invariant-registry order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Number of invariants that ran.
    pub fn invariants_checked(&self) -> usize {
        self.invariants_checked
    }

    /// One-line summary: the first violations joined with `; `, with a
    /// count of the remainder. Empty string when clean.
    pub fn summary(&self) -> String {
        const SHOWN: usize = 3;
        let mut parts: Vec<String> = self
            .violations
            .iter()
            .take(SHOWN)
            .map(Violation::to_string)
            .collect();
        if self.violations.len() > SHOWN {
            parts.push(format!("… and {} more", self.violations.len() - SHOWN));
        }
        parts.join("; ")
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean ({} invariants)", self.invariants_checked)
        } else {
            write!(
                f,
                "{} violation(s): {}",
                self.violations.len(),
                self.summary()
            )
        }
    }
}

/// A named declarative invariant over listing rows.
#[derive(Debug)]
pub struct Invariant {
    /// Stable kebab-case name, referenced by violations and docs.
    pub name: &'static str,
    /// Why the invariant must hold on a correct listing.
    pub why: &'static str,
}

const AR_RANGE: &str = "ar-in-machine-range";
const MR_RANGE: &str = "mr-in-machine-range";
const PROLOGUE_LOADS: &str = "prologue-loads-only";
const INITIALIZED: &str = "registers-initialized";
const USE_SEQUENCE: &str = "use-sequence";
const FREE_UPDATES: &str = "free-updates-in-range";
const DELTA_COVERAGE: &str = "delta-coverage";
const STEADY_STATE: &str = "steady-state-advance";
const CARRY_BOUNDARIES: &str = "carry-boundaries";
const CYCLE_ACCOUNTING: &str = "cycle-accounting";

/// The full invariant inventory, in the order [`check`] reports them.
pub const INVARIANTS: &[Invariant] = &[
    Invariant {
        name: AR_RANGE,
        why: "every address-register index must fit both the program's declared register \
              count and the machine's K; an out-of-range AR encodes to a register the \
              hardware does not have",
    },
    Invariant {
        name: MR_RANGE,
        why: "every modify-register index must fit the program's modify-value table and \
              the machine's modify-register file; an out-of-range M reads undefined state",
    },
    Invariant {
        name: PROLOGUE_LOADS,
        why: "the prologue runs once before the loop and may only establish state (LDA/LDM, \
              each destination exactly once); an ADDA or USE there would execute outside \
              the steady state the body's delta ledger assumes",
    },
    Invariant {
        name: INITIALIZED,
        why: "each AR the body serves from must be LDA-ed to its first access's address and \
              each M applied as a post-modify must be LDM-ed to its declared value; an \
              uninitialized register serves whatever the hardware woke up with",
    },
    Invariant {
        name: USE_SEQUENCE,
        why: "the body must serve access positions 0..N exactly once each, in order — the \
              data-path instructions consume their addresses in program order, so any \
              permutation or omission feeds an instruction the wrong operand",
    },
    Invariant {
        name: FREE_UPDATES,
        why: "an auto post-modify is only free when |delta| <= M; a larger immediate would \
              not encode and must be an explicit ADDA instead",
    },
    Invariant {
        name: DELTA_COVERAGE,
        why: "between consecutive serves of one AR, the applied updates (auto post-modify, \
              modify-register content, explicit ADDAs) must sum exactly to the address \
              distance between the served accesses — including the wrap back to the next \
              iteration; any gap leaves the register pointing at the wrong word",
    },
    Invariant {
        name: STEADY_STATE,
        why: "over one body pass each serving AR must advance by exactly the effective \
              stride of its array, or addresses drift further off every iteration",
    },
    Invariant {
        name: CARRY_BOUNDARIES,
        why: "carry blocks may appear only at the flattened nest's period boundaries, hold \
              only ADDAs, and per register must sum to the array's carry at that level — \
              carries anywhere else fire mid-sweep and corrupt the inner loop",
    },
    Invariant {
        name: CYCLE_ACCOUNTING,
        why: "the per-iteration addressing cost must be re-derivable from the rows (one \
              cycle per body LDA/LDM/ADDA, zero per USE) and equal the cost the model \
              claims; unaccounted cycles mean the optimizer is minimizing the wrong number",
    },
];

/// Checks every invariant in [`INVARIANTS`] over `ctx`: one walk over
/// the rows, then the closing checks over what the walk collected.
pub fn check(ctx: &CheckContext<'_>) -> CheckReport {
    let mut violations = Vec::new();
    let facts = Facts::walk(ctx, &mut violations);
    registers_initialized(ctx, &facts, &mut violations);
    use_sequence(ctx, &facts, &mut violations);
    delta_coverage(ctx, &facts, &mut violations);
    steady_state_advance(&facts, &mut violations);
    carry_boundaries(ctx, &facts, &mut violations);
    cycle_accounting(ctx, &facts, &mut violations);
    // Report in registry order. The sort is stable, so each invariant
    // keeps its own order: walk findings in row order, then closing
    // findings.
    violations.sort_by_key(|v| INVARIANTS.iter().position(|i| i.name == v.invariant));
    CheckReport {
        invariants_checked: INVARIANTS.len(),
        violations,
    }
}

/// Convenience entry point: builds the [`CheckContext`] and runs
/// [`check`].
pub fn check_program(
    spec: &LoopSpec,
    layout: &MemoryLayout,
    agu: &AguSpec,
    program: &AddressProgram,
    expected_cycles: Option<u64>,
) -> CheckReport {
    check(&CheckContext {
        spec,
        layout,
        agu,
        program,
        expected_cycles,
    })
}

// ---------------------------------------------------------------------
// The row walk
// ---------------------------------------------------------------------

/// Where a row sits inside the program (for violation messages).
#[derive(Debug, Clone, Copy)]
enum RowLoc {
    Prologue(usize),
    Body(usize),
    Carry(usize, usize),
}

impl fmt::Display for RowLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowLoc::Prologue(i) => write!(f, "prologue[{i}]"),
            RowLoc::Body(i) => write!(f, "body[{i}]"),
            RowLoc::Carry(b, i) => write!(f, "carry[{b}][{i}]"),
        }
    }
}

/// The one value every served access of a register agrees on.
#[derive(Debug, Default, Clone, Copy)]
enum Shared<T> {
    /// No served access yet.
    #[default]
    Empty,
    One(T),
    /// Two served accesses disagree.
    Mixed,
}

impl<T: Copy + PartialEq> Shared<T> {
    fn add(&mut self, value: T) {
        *self = match *self {
            Shared::Empty => Shared::One(value),
            Shared::One(seen) if seen == value => Shared::One(seen),
            _ => Shared::Mixed,
        };
    }
}

/// The delta ledger of one address register over one body pass,
/// re-derived purely from the rows.
#[derive(Debug, Default, Clone)]
struct Ledger {
    /// Served positions with the update sum applied since the previous
    /// serve (`gap` of the first entry is the head: deltas before the
    /// register's first serve of the pass).
    serves: Vec<(usize, i64)>,
    /// Update sum accumulated since the last serve (the tail once the
    /// walk ends).
    pending: i64,
    /// Sum of every update applied to the register in one body pass.
    total: i64,
    /// Set when the body reloads the register absolutely (LDA), which
    /// makes a steady-state ledger underivable.
    poisoned: bool,
    /// The array of the served accesses (positions outside the loop's
    /// access list are skipped).
    array: Shared<ArrayId>,
    /// The per-iteration address advance of the served accesses:
    /// `coefficient * loop stride`.
    stride: Shared<i64>,
}

impl Ledger {
    fn serve(&mut self, spec: &LoopSpec, position: usize, applied: i64) {
        self.serves.push((position, self.pending));
        self.pending = applied;
        self.total += applied;
        if let Some(access) = spec.accesses().get(position) {
            self.array.add(access.array);
            if let Some(info) = spec.array_info(access.array) {
                self.stride.add(info.coefficient() * spec.stride());
            }
        }
    }
}

/// Everything the closing checks consult, gathered in one walk over
/// the rows.
#[derive(Debug, Default)]
struct Facts {
    /// Per AR loaded in the prologue: the row of its latest LDA and the
    /// address of its first.
    lda: BTreeMap<u16, (usize, i64)>,
    /// Per modify register loaded in the prologue: the row of its
    /// latest LDM and the value of its first.
    ldm: BTreeMap<u16, (usize, i64)>,
    /// The first row after the prologue that references each AR.
    referenced: BTreeMap<u16, RowLoc>,
    /// One ledger per declared AR; out-of-range register ids (reported
    /// by `ar-in-machine-range`) have none.
    ledgers: Vec<Ledger>,
    /// Number of USEs in the body.
    serves: usize,
    /// The first body USE out of order: `(serve index, position)`.
    misplaced: Option<(usize, usize)>,
    /// The flattened nest's periods, `None` for a flat loop.
    periods: Option<Vec<u64>>,
    /// ADDA sum per (AR, period) across the carry blocks.
    carry_sums: BTreeMap<(usize, u64), i64>,
    /// Body cycles, priced by the machine's cost table.
    body_cycles: u64,
    /// Instruction words of every row.
    words: u64,
}

impl Facts {
    /// The one walk over the program's rows: the prologue, the body,
    /// then each carry block. Row-local violations go to `out` as the
    /// rows pass.
    fn walk(ctx: &CheckContext<'_>, out: &mut Vec<Violation>) -> Facts {
        let program = ctx.program;
        let costs = ctx.agu.cost_table();
        let mut facts = Facts {
            ledgers: vec![Ledger::default(); program.address_registers()],
            periods: ctx.spec.nest().map(|nest| nest.periods()),
            ..Facts::default()
        };
        let (declared, machine) = (program.address_registers(), ctx.agu.address_registers());
        if declared > machine {
            push(
                out,
                AR_RANGE,
                format!(
                    "program declares {declared} address registers but the machine has {machine}"
                ),
            );
        }
        let (declared, machine) = (program.modify_values().len(), ctx.agu.modify_registers());
        if declared > machine {
            push(
                out,
                MR_RANGE,
                format!("program declares {declared} modify values but the machine has {machine} modify registers"),
            );
        }
        for (i, instr) in program.prologue().iter().enumerate() {
            facts.any_row(ctx, out, RowLoc::Prologue(i), instr);
            let repeat = match *instr {
                AddressInstr::Lda { reg, address } => {
                    load(&mut facts.lda, reg.0, i, address).map(|first| (reg.to_string(), first))
                }
                AddressInstr::Ldm { mr, value } => {
                    load(&mut facts.ldm, mr.0, i, value).map(|first| (mr.to_string(), first))
                }
                other => {
                    push(
                        out,
                        PROLOGUE_LOADS,
                        format!("prologue[{i}] is `{other}`, not a load"),
                    );
                    None
                }
            };
            if let Some((register, first)) = repeat {
                push(
                    out,
                    PROLOGUE_LOADS,
                    format!("{register} loaded twice in the prologue (rows {first} and {i})"),
                );
            }
        }
        for (i, instr) in program.body().iter().enumerate() {
            facts.any_row(ctx, out, RowLoc::Body(i), instr);
            facts.body_cycles += instr.cycles_with(&costs);
            match *instr {
                AddressInstr::Lda { reg, .. } => {
                    push(
                        out,
                        DELTA_COVERAGE,
                        format!("body[{i}] reloads {reg} absolutely; steady-state deltas are underivable"),
                    );
                    if let Some(ledger) = facts.ledgers.get_mut(usize::from(reg.0)) {
                        ledger.poisoned = true;
                    }
                }
                AddressInstr::Ldm { mr, .. } => push(
                    out,
                    DELTA_COVERAGE,
                    format!("body[{i}] reloads {mr}; modify registers must be loop-invariant"),
                ),
                AddressInstr::Adda { reg, delta } => {
                    if let Some(ledger) = facts.ledgers.get_mut(usize::from(reg.0)) {
                        ledger.pending += delta;
                        ledger.total += delta;
                    }
                }
                AddressInstr::Use {
                    reg,
                    position,
                    update,
                } => {
                    if position != facts.serves && facts.misplaced.is_none() {
                        facts.misplaced = Some((facts.serves, position));
                    }
                    facts.serves += 1;
                    let applied = match update {
                        Update::None => 0,
                        Update::Auto { delta } => delta,
                        Update::Modify { mr } => program
                            .modify_values()
                            .get(usize::from(mr.0))
                            .copied()
                            .unwrap_or_default(),
                    };
                    if let Some(ledger) = facts.ledgers.get_mut(usize::from(reg.0)) {
                        ledger.serve(ctx.spec, position, applied);
                    }
                }
            }
        }
        for (b, block) in program.carries().iter().enumerate() {
            if let Some(periods) = &facts.periods {
                if !periods.contains(&block.period) {
                    push(
                        out,
                        CARRY_BOUNDARIES,
                        format!(
                            "carry block {b} fires every {} iterations, which is not a nest \
                             period (periods: {periods:?})",
                            block.period
                        ),
                    );
                }
            }
            for (i, instr) in block.instrs.iter().enumerate() {
                facts.any_row(ctx, out, RowLoc::Carry(b, i), instr);
                match *instr {
                    AddressInstr::Adda { reg, delta } => {
                        *facts
                            .carry_sums
                            .entry((usize::from(reg.0), block.period))
                            .or_default() += delta;
                    }
                    // A flat loop's carry blocks are reported whole by
                    // the closing check.
                    other if facts.periods.is_some() => push(
                        out,
                        CARRY_BOUNDARIES,
                        format!("carry[{b}][{i}] is `{other}`, not an ADDA"),
                    ),
                    _ => {}
                }
            }
        }
        facts
    }

    /// The rules for a row wherever it sits: register indices and free
    /// updates in range, words, and the first post-prologue reference
    /// per AR.
    fn any_row(
        &mut self,
        ctx: &CheckContext<'_>,
        out: &mut Vec<Violation>,
        loc: RowLoc,
        instr: &AddressInstr,
    ) {
        self.words += instr.words();
        if let Some(reg) = instr.register() {
            let declared = ctx.program.address_registers();
            if usize::from(reg.0) >= declared {
                push(
                    out,
                    AR_RANGE,
                    format!(
                        "{reg} referenced at {loc} but the program declares only {declared} ARs"
                    ),
                );
            }
            if !matches!(loc, RowLoc::Prologue(_)) {
                self.referenced.entry(reg.0).or_insert(loc);
            }
        }
        if let Some(mr) = instr.modify_register() {
            let declared = ctx.program.modify_values().len();
            if usize::from(mr.0) >= declared {
                push(
                    out,
                    MR_RANGE,
                    format!("{mr} referenced at {loc} but the program declares only {declared} modify values"),
                );
            }
        }
        if let AddressInstr::Use {
            update: Update::Auto { delta },
            ..
        } = *instr
        {
            if !ctx.agu.is_free_delta(delta) {
                push(
                    out,
                    FREE_UPDATES,
                    format!(
                        "{loc} auto post-modify {delta:+} exceeds the machine's modify range M={}",
                        ctx.agu.update_range()
                    ),
                );
            }
        }
    }
}

/// Records a prologue load of register `id` at `row`; on a repeat,
/// returns the row of the previous load.
fn load(loads: &mut BTreeMap<u16, (usize, i64)>, id: u16, row: usize, value: i64) -> Option<usize> {
    let seen = &mut loads.entry(id).or_insert((row, value)).0;
    (*seen != row).then(|| std::mem::replace(seen, row))
}

/// Iteration-0, carry-free address of access `position`:
/// `base + coefficient * start + offset`.
fn flat_address(ctx: &CheckContext<'_>, position: usize) -> Option<i64> {
    let access = ctx.spec.accesses().get(position)?;
    let base = ctx.layout.base(access.array)?;
    let info = ctx.spec.array_info(access.array)?;
    Some(base + info.coefficient() * ctx.spec.start() + access.offset)
}

fn push(out: &mut Vec<Violation>, invariant: &'static str, message: String) {
    out.push(Violation { invariant, message });
}

// ---------------------------------------------------------------------
// Closing checks over the collected facts
// ---------------------------------------------------------------------

fn registers_initialized(ctx: &CheckContext<'_>, facts: &Facts, out: &mut Vec<Violation>) {
    // Every declared modify value must be LDM-ed to exactly that value:
    // the delta ledger (and the hardware) read the register, not the
    // table, so table and load must agree.
    for (i, &value) in ctx.program.modify_values().iter().enumerate() {
        let mr = u16::try_from(i).unwrap_or(u16::MAX);
        match facts.ldm.get(&mr) {
            None => push(
                out,
                INITIALIZED,
                format!("M{i} declares value {value} but the prologue never loads it"),
            ),
            Some(&(_, loaded)) if loaded != value => push(
                out,
                INITIALIZED,
                format!("M{i} declares value {value} but the prologue loads {loaded}"),
            ),
            Some(_) => {}
        }
    }

    // Every AR referenced after the prologue must be LDA-ed, and a
    // serving AR must start at its first access's address (adjusted by
    // any deltas the body applies before that first serve).
    for (&reg, &loc) in &facts.referenced {
        if !facts.lda.contains_key(&reg) {
            push(
                out,
                INITIALIZED,
                format!("AR{reg} used at {loc} but never loaded in the prologue"),
            );
        }
    }
    for (idx, ledger) in facts.ledgers.iter().enumerate() {
        let Some(&(first_position, head)) = ledger.serves.first() else {
            continue;
        };
        let (Some(&(_, loaded)), Some(expected)) = (
            facts.lda.get(&(idx as u16)),
            flat_address(ctx, first_position),
        ) else {
            continue; // missing LDA reported above; bad position elsewhere
        };
        if loaded + head != expected {
            push(
                out,
                INITIALIZED,
                format!(
                    "AR{idx} is loaded to {loaded} but its first serve (position {first_position}) \
                     needs address {expected}{}",
                    if head != 0 {
                        format!(" ({head} applied before the first serve)")
                    } else {
                        String::new()
                    }
                ),
            );
        }
    }
}

fn use_sequence(ctx: &CheckContext<'_>, facts: &Facts, out: &mut Vec<Violation>) {
    let expected = ctx.spec.len();
    if facts.serves != expected {
        push(
            out,
            USE_SEQUENCE,
            format!(
                "body serves {} accesses but the loop has {expected}",
                facts.serves
            ),
        );
    }
    // One divergence implies a cascade; the walk kept the first.
    if let Some((i, position)) = facts.misplaced {
        push(
            out,
            USE_SEQUENCE,
            format!("serve #{i} is position {position}, expected {i}"),
        );
    }
}

fn delta_coverage(ctx: &CheckContext<'_>, facts: &Facts, out: &mut Vec<Violation>) {
    for (idx, ledger) in facts.ledgers.iter().enumerate() {
        if ledger.poisoned || ledger.serves.is_empty() {
            continue;
        }
        // Intra-iteration gaps: updates between serve i-1 and serve i
        // must equal the flat address distance.
        for pair in ledger.serves.windows(2) {
            let [(from, _), (to, gap)] = pair else {
                continue;
            };
            let (Some(a), Some(b)) = (flat_address(ctx, *from), flat_address(ctx, *to)) else {
                push(
                    out,
                    DELTA_COVERAGE,
                    format!("AR{idx} serves a position outside the loop's access list"),
                );
                continue;
            };
            let distance = b - a;
            if *gap != distance {
                push(
                    out,
                    DELTA_COVERAGE,
                    format!(
                        "AR{idx} moves {gap:+} between positions {from} and {to}, but their \
                         addresses are {distance:+} apart"
                    ),
                );
            }
        }
        // Wrap: tail + head must carry the register from its last serve
        // to its first serve of the next iteration. That distance is
        // only constant when the chain stays on one effective stride.
        let stride = match ledger.stride {
            Shared::Empty => continue,
            Shared::Mixed => {
                push(
                    out,
                    DELTA_COVERAGE,
                    format!(
                        "AR{idx} serves arrays with different effective strides; its wrap \
                         delta cannot be constant"
                    ),
                );
                continue;
            }
            Shared::One(stride) => stride,
        };
        let (first, head) = ledger.serves[0];
        let (last, _) = ledger.serves[ledger.serves.len() - 1];
        let (Some(first_addr), Some(last_addr)) =
            (flat_address(ctx, first), flat_address(ctx, last))
        else {
            continue;
        };
        let wrap = ledger.pending + head;
        let needed = first_addr + stride - last_addr;
        if wrap != needed {
            push(
                out,
                DELTA_COVERAGE,
                format!(
                    "AR{idx} wraps {wrap:+} from position {last} back to position {first}, \
                     but the next iteration needs {needed:+}"
                ),
            );
        }
    }
}

fn steady_state_advance(facts: &Facts, out: &mut Vec<Violation>) {
    for (idx, ledger) in facts.ledgers.iter().enumerate() {
        // Mixed strides are reported by delta-coverage.
        let Shared::One(stride) = ledger.stride else {
            continue;
        };
        if !ledger.poisoned && ledger.total != stride {
            push(
                out,
                STEADY_STATE,
                format!(
                    "AR{idx} advances {:+} per iteration but its array strides {stride:+}",
                    ledger.total
                ),
            );
        }
    }
}

fn carry_boundaries(ctx: &CheckContext<'_>, facts: &Facts, out: &mut Vec<Violation>) {
    let Some(periods) = &facts.periods else {
        let blocks = ctx.program.carries().len();
        if blocks > 0 {
            push(
                out,
                CARRY_BOUNDARIES,
                format!("program has {blocks} carry block(s) but the loop is not a flattened nest"),
            );
        }
        return;
    };

    // Per register and period, the ADDA sum across blocks (`got`) must
    // equal the summed carries of the register's array at the levels
    // sharing that period (`need`; levels with trip count 1 can share a
    // period).
    let mut sums: BTreeMap<(usize, u64), (i64, i64)> = BTreeMap::new();
    for (&(reg, period), &got) in &facts.carry_sums {
        // Mixed-array chains are reported by delta-coverage; their
        // expected carries are not well-defined, so exclude them.
        let unchained = facts
            .ledgers
            .get(reg)
            .is_some_and(|ledger| !matches!(ledger.array, Shared::One(_)));
        if !(unchained && periods.contains(&period)) {
            sums.entry((reg, period)).or_default().0 = got;
        }
    }
    for (idx, ledger) in facts.ledgers.iter().enumerate() {
        let Shared::One(array) = ledger.array else {
            continue;
        };
        let Some(info) = ctx.spec.array_info(array) else {
            continue;
        };
        for (k, &period) in periods.iter().enumerate() {
            let carry = info.carries().get(k).copied().unwrap_or(0);
            if carry != 0 {
                sums.entry((idx, period)).or_default().1 += carry;
            }
        }
    }
    for ((reg, period), (got, need)) in sums {
        if got != need {
            push(
                out,
                CARRY_BOUNDARIES,
                format!(
                    "AR{reg} carry at period {period}: rows add {got:+}, nest requires {need:+}"
                ),
            );
        }
    }
}

fn cycle_accounting(ctx: &CheckContext<'_>, facts: &Facts, out: &mut Vec<Violation>) {
    // Prices come from the *machine's* cost table, so a program whose
    // embedded table disagrees with the target machine is caught here.
    let costs = ctx.agu.cost_table();
    if ctx.program.cost_table() != costs {
        push(
            out,
            CYCLE_ACCOUNTING,
            format!(
                "program is priced under a different cost table (lda={}, ldm={}, adda={}) than the machine (lda={}, ldm={}, adda={})",
                ctx.program.cost_table().lda(),
                ctx.program.cost_table().ldm(),
                ctx.program.cost_table().adda(),
                costs.lda(),
                costs.ldm(),
                costs.adda()
            ),
        );
    }
    let derived = facts.body_cycles;
    if derived != ctx.program.cycles_per_iteration() {
        push(
            out,
            CYCLE_ACCOUNTING,
            format!(
                "rows give {derived} cycles per iteration but the program claims {}",
                ctx.program.cycles_per_iteration()
            ),
        );
    }
    if let Some(expected) = ctx.expected_cycles {
        if expected != derived {
            push(
                out,
                CYCLE_ACCOUNTING,
                format!(
                    "cost model claims {expected} cycles per iteration but the rows give {derived}"
                ),
            );
        }
    }
    if facts.words != ctx.program.words() {
        push(
            out,
            CYCLE_ACCOUNTING,
            format!(
                "rows occupy {} instruction words but the program claims {}",
                facts.words,
                ctx.program.words()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_agu::{MrId, RegId};
    use raco_ir::{AccessKind, LoopNest, NestLevel};

    /// `for (i = 0; i < n; i++) { … x[i] … x[i+2] … }` with x based at
    /// 100: AR0 serves offset 0, AR1 serves offset 2, both advancing by
    /// the stride 1 each iteration.
    fn two_register_loop() -> (LoopSpec, MemoryLayout) {
        let mut spec = LoopSpec::new("pair", "i", 1);
        let x = spec.add_array("x", 1);
        spec.push_access(x, 0, AccessKind::Read).unwrap();
        spec.push_access(x, 2, AccessKind::Read).unwrap();
        let layout = MemoryLayout::from_bases(vec![100]);
        (spec, layout)
    }

    fn two_register_program() -> AddressProgram {
        AddressProgram::new(
            vec![
                AddressInstr::Lda {
                    reg: RegId(0),
                    address: 100,
                },
                AddressInstr::Lda {
                    reg: RegId(1),
                    address: 102,
                },
            ],
            vec![
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 0,
                    update: Update::Auto { delta: 1 },
                },
                AddressInstr::Use {
                    reg: RegId(1),
                    position: 1,
                    update: Update::Auto { delta: 1 },
                },
            ],
            2,
            vec![],
        )
    }

    fn agu() -> AguSpec {
        AguSpec::new(4, 1).unwrap().with_modify_registers(2)
    }

    fn run(spec: &LoopSpec, layout: &MemoryLayout, program: &AddressProgram) -> CheckReport {
        check_program(spec, layout, &agu(), program, None)
    }

    fn violated(report: &CheckReport) -> Vec<&'static str> {
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn clean_program_passes_every_invariant() {
        let (spec, layout) = two_register_loop();
        let report = run(&spec, &layout, &two_register_program());
        assert!(report.is_clean(), "unexpected violations: {report}");
        assert_eq!(report.invariants_checked(), INVARIANTS.len());
        assert_eq!(report.summary(), "");
    }

    #[test]
    fn expected_cycles_are_compared_when_given() {
        let (spec, layout) = two_register_loop();
        let program = two_register_program();
        let clean = check_program(&spec, &layout, &agu(), &program, Some(0));
        assert!(clean.is_clean());
        let wrong = check_program(&spec, &layout, &agu(), &program, Some(3));
        assert_eq!(violated(&wrong), ["cycle-accounting"]);
    }

    #[test]
    fn out_of_range_address_register_is_caught() {
        let (spec, layout) = two_register_loop();
        let mut program = two_register_program();
        program = AddressProgram::new(
            program.prologue().to_vec(),
            vec![
                AddressInstr::Use {
                    reg: RegId(9),
                    position: 0,
                    update: Update::Auto { delta: 1 },
                },
                AddressInstr::Use {
                    reg: RegId(1),
                    position: 1,
                    update: Update::Auto { delta: 1 },
                },
            ],
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"ar-in-machine-range"));
    }

    #[test]
    fn out_of_range_modify_register_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            vec![
                AddressInstr::Lda {
                    reg: RegId(0),
                    address: 100,
                },
                AddressInstr::Lda {
                    reg: RegId(1),
                    address: 102,
                },
                AddressInstr::Ldm {
                    mr: MrId(7),
                    value: 1,
                },
            ],
            two_register_program().body().to_vec(),
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"mr-in-machine-range"));
    }

    #[test]
    fn adda_in_prologue_is_caught() {
        let (spec, layout) = two_register_loop();
        let mut prologue = two_register_program().prologue().to_vec();
        prologue.push(AddressInstr::Adda {
            reg: RegId(0),
            delta: 1,
        });
        let program =
            AddressProgram::new(prologue, two_register_program().body().to_vec(), 2, vec![]);
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"prologue-loads-only"));
    }

    #[test]
    fn wrong_initial_address_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            vec![
                AddressInstr::Lda {
                    reg: RegId(0),
                    address: 100,
                },
                AddressInstr::Lda {
                    reg: RegId(1),
                    address: 101, // should be 102
                },
            ],
            two_register_program().body().to_vec(),
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"registers-initialized"));
    }

    #[test]
    fn missing_modify_load_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            two_register_program().prologue().to_vec(),
            two_register_program().body().to_vec(),
            2,
            vec![5], // declared but never LDM-ed
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"registers-initialized"));
    }

    #[test]
    fn permuted_use_sequence_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            two_register_program().prologue().to_vec(),
            vec![
                AddressInstr::Use {
                    reg: RegId(1),
                    position: 1,
                    update: Update::Auto { delta: 1 },
                },
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 0,
                    update: Update::Auto { delta: 1 },
                },
            ],
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"use-sequence"));
    }

    #[test]
    fn oversized_auto_update_is_caught() {
        // M = 1, so an auto post-modify of +2 cannot be free.
        let mut spec = LoopSpec::new("wide", "i", 2);
        let x = spec.add_array("x", 1);
        spec.push_access(x, 0, AccessKind::Read).unwrap();
        let layout = MemoryLayout::from_bases(vec![100]);
        let program = AddressProgram::new(
            vec![AddressInstr::Lda {
                reg: RegId(0),
                address: 100,
            }],
            vec![AddressInstr::Use {
                reg: RegId(0),
                position: 0,
                update: Update::Auto { delta: 2 },
            }],
            1,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        assert_eq!(violated(&report), ["free-updates-in-range"]);
    }

    #[test]
    fn uncovered_delta_is_caught_with_its_positions() {
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            two_register_program().prologue().to_vec(),
            vec![
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 0,
                    update: Update::None, // drops the +1 wrap
                },
                AddressInstr::Use {
                    reg: RegId(1),
                    position: 1,
                    update: Update::Auto { delta: 1 },
                },
            ],
            2,
            vec![],
        );
        let report = run(&spec, &layout, &program);
        let names = violated(&report);
        assert!(names.contains(&"delta-coverage"));
        assert!(names.contains(&"steady-state-advance"));
        let message = &report
            .violations()
            .iter()
            .find(|v| v.invariant == "delta-coverage")
            .unwrap()
            .message;
        assert!(message.contains("AR0"), "message: {message}");
    }

    #[test]
    fn modify_register_deltas_participate_in_the_ledger() {
        // One register serving offsets 0 and 2 with M0 = +2 covering
        // the intra gap and an explicit ADDA covering the wrap (-1).
        let (spec, layout) = two_register_loop();
        let program = AddressProgram::new(
            vec![
                AddressInstr::Lda {
                    reg: RegId(0),
                    address: 100,
                },
                AddressInstr::Ldm {
                    mr: MrId(0),
                    value: 2,
                },
            ],
            vec![
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 0,
                    update: Update::Modify { mr: MrId(0) },
                },
                AddressInstr::Use {
                    reg: RegId(0),
                    position: 1,
                    update: Update::Auto { delta: -1 },
                },
            ],
            1,
            vec![2],
        );
        let report = run(&spec, &layout, &program);
        assert!(report.is_clean(), "unexpected violations: {report}");
    }

    #[test]
    fn body_lda_poisons_the_ledger_and_is_reported() {
        let (spec, layout) = two_register_loop();
        let mut body = two_register_program().body().to_vec();
        body.push(AddressInstr::Lda {
            reg: RegId(0),
            address: 100,
        });
        let program =
            AddressProgram::new(two_register_program().prologue().to_vec(), body, 2, vec![]);
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"delta-coverage"));
    }

    /// A 2-level nest `for j in 0..3 { for i in 0..4 { x[i] } }` where
    /// x carries +10 per outer sweep.
    fn nested_loop() -> (LoopSpec, MemoryLayout) {
        let mut spec = LoopSpec::new("nested", "i", 1);
        let x = spec.add_array("x", 1);
        spec.push_access(x, 0, AccessKind::Read).unwrap();
        spec.set_nest(LoopNest::new(
            vec![NestLevel {
                var: "j".to_owned(),
                start: 0,
                stride: 1,
                trips: 3,
            }],
            4,
        ));
        spec.set_array_carries(x, vec![10]).unwrap();
        let layout = MemoryLayout::from_bases(vec![100]);
        (spec, layout)
    }

    fn nested_program(carry: i64) -> AddressProgram {
        AddressProgram::new(
            vec![AddressInstr::Lda {
                reg: RegId(0),
                address: 100,
            }],
            vec![AddressInstr::Use {
                reg: RegId(0),
                position: 0,
                update: Update::Auto { delta: 1 },
            }],
            1,
            vec![],
        )
        .with_carries(vec![raco_agu::isa::CarryBlock {
            period: 4,
            instrs: vec![AddressInstr::Adda {
                reg: RegId(0),
                delta: carry,
            }],
        }])
    }

    #[test]
    fn correct_carry_block_passes() {
        let (spec, layout) = nested_loop();
        let report = run(&spec, &layout, &nested_program(10));
        assert!(report.is_clean(), "unexpected violations: {report}");
    }

    #[test]
    fn wrong_carry_amount_is_caught() {
        let (spec, layout) = nested_loop();
        let report = run(&spec, &layout, &nested_program(9));
        assert_eq!(violated(&report), ["carry-boundaries"]);
    }

    #[test]
    fn carry_at_a_non_period_boundary_is_caught() {
        let (spec, layout) = nested_loop();
        let program = AddressProgram::new(
            nested_program(10).prologue().to_vec(),
            nested_program(10).body().to_vec(),
            1,
            vec![],
        )
        .with_carries(vec![raco_agu::isa::CarryBlock {
            period: 5, // nest periods are [4]
            instrs: vec![AddressInstr::Adda {
                reg: RegId(0),
                delta: 10,
            }],
        }]);
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"carry-boundaries"));
    }

    #[test]
    fn carry_block_on_a_flat_loop_is_caught() {
        let (spec, layout) = two_register_loop();
        let program = two_register_program().with_carries(vec![raco_agu::isa::CarryBlock {
            period: 4,
            instrs: vec![AddressInstr::Adda {
                reg: RegId(0),
                delta: 1,
            }],
        }]);
        let report = run(&spec, &layout, &program);
        assert!(violated(&report).contains(&"carry-boundaries"));
    }

    #[test]
    fn invariant_registry_is_well_formed() {
        assert!(INVARIANTS.len() >= 8);
        for invariant in INVARIANTS {
            assert!(!invariant.name.is_empty());
            assert!(!invariant.why.is_empty());
            assert!(
                invariant
                    .name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                invariant.name
            );
        }
        let mut names: Vec<_> = INVARIANTS.iter().map(|i| i.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), INVARIANTS.len(), "duplicate invariant names");
    }
}
