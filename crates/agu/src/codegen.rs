//! Address-code generation from allocations.
//!
//! Code generation turns a [`PathCover`] (one path per address register)
//! into the concrete [`AddressProgram`] the loop executes: a prologue that
//! points every register at the address of its first access, and a body
//! that serves each access in sequence order, attaching the register's
//! post-modify to the access when it is free (in range or held by a modify
//! register) and emitting an explicit `ADDA` — the paper's unit cost —
//! otherwise.

use std::fmt;

use raco_core::{Allocation, LoopAllocation};
use raco_graph::{DistanceModel, ModifyAllocation, PathCover};
use raco_ir::{AccessPattern, AguSpec, ArrayId, LoopSpec, MemoryLayout};

use crate::isa::{AddressInstr, AddressProgram, MrId, RegId, Update};

/// Errors produced during code generation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodeGenError {
    /// The allocations need more address registers than the machine has.
    RegisterBudgetExceeded {
        /// Registers required by the allocation.
        needed: usize,
        /// Registers the machine provides.
        available: usize,
    },
    /// The memory layout does not assign a base address to an accessed
    /// array.
    LayoutMissingArray {
        /// The uncovered array.
        array: ArrayId,
    },
    /// A cover does not match its pattern (wrong access count).
    CoverMismatch {
        /// Accesses in the pattern.
        pattern_len: usize,
        /// Accesses covered by the allocation.
        cover_len: usize,
    },
}

impl fmt::Display for CodeGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeGenError::RegisterBudgetExceeded { needed, available } => write!(
                f,
                "allocation uses {needed} address registers but the machine has {available}"
            ),
            CodeGenError::LayoutMissingArray { array } => {
                write!(f, "memory layout does not place {array}")
            }
            CodeGenError::CoverMismatch {
                pattern_len,
                cover_len,
            } => write!(
                f,
                "cover spans {cover_len} accesses but the pattern has {pattern_len}"
            ),
        }
    }
}

impl std::error::Error for CodeGenError {}

/// Generates address programs for a fixed machine.
///
/// # Examples
///
/// See the crate-level example of [`raco_agu`](crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeGenerator {
    agu: AguSpec,
}

impl CodeGenerator {
    /// A generator targeting `agu`.
    pub fn new(agu: AguSpec) -> Self {
        CodeGenerator { agu }
    }

    /// The target machine.
    pub fn agu(&self) -> &AguSpec {
        &self.agu
    }

    /// Generates the address program of a whole loop from its per-array
    /// allocation. Registers are numbered consecutively across arrays;
    /// modify registers (if the machine has any) are allocated globally by
    /// delta frequency.
    ///
    /// # Errors
    ///
    /// See [`CodeGenError`].
    pub fn generate(
        &self,
        spec: &LoopSpec,
        alloc: &LoopAllocation,
        layout: &MemoryLayout,
    ) -> Result<AddressProgram, CodeGenError> {
        // `per_array` hands out `Arc<Allocation>`s shared with the
        // allocation cache; codegen only ever borrows them.
        let mut parts: Vec<(AccessPattern, &Allocation, i64)> = Vec::new();
        for (array, allocation) in alloc.per_array() {
            let allocation: &Allocation = allocation;
            let pattern = spec
                .pattern_for(*array)
                .expect("allocation refers to accessed arrays");
            let base = layout
                .base(*array)
                .ok_or(CodeGenError::LayoutMissingArray { array: *array })?;
            let coeff = spec
                .array_info(*array)
                .expect("accessed arrays are registered")
                .coefficient();
            let origin = base + coeff * spec.start();
            parts.push((pattern, allocation, origin));
        }
        let total_accesses = spec.len();
        let modify = ModifyAllocation::for_covers(
            parts
                .iter()
                .map(|(_, a, _)| (a.cover(), a.distance_model())),
            self.agu.modify_registers(),
        );
        let covers: Vec<(&AccessPattern, &PathCover, &DistanceModel, i64)> = parts
            .iter()
            .map(|(p, a, origin)| (p, a.cover(), a.distance_model(), *origin))
            .collect();
        let (program, registers) = self.assemble(&covers, total_accesses, &modify)?;
        Ok(program.with_carries(Self::carry_blocks(spec, &parts, &registers)))
    }

    /// Builds the outer-loop carry blocks of a flattened nest: whenever
    /// nest level `k` advances (every `periods()[k]` iterations), every
    /// address register serving an array with a non-zero carry at that
    /// level is adjusted by the carry. `registers[p]` is the register
    /// assignment [`CodeGenerator::assemble`] made for `parts[p]`'s
    /// cover, so the mapping cannot drift from the generated body.
    fn carry_blocks(
        spec: &LoopSpec,
        parts: &[(AccessPattern, &Allocation, i64)],
        registers: &[Vec<RegId>],
    ) -> Vec<crate::isa::CarryBlock> {
        let Some(nest) = spec.nest() else {
            return Vec::new();
        };
        let periods = nest.periods();
        let mut blocks = Vec::new();
        for (level, &period) in periods.iter().enumerate() {
            let mut instrs = Vec::new();
            for ((pattern, _, _), regs) in parts.iter().zip(registers) {
                let carry = spec
                    .array_info(pattern.array())
                    .and_then(|info| info.carries().get(level).copied())
                    .unwrap_or(0);
                if carry != 0 {
                    instrs.extend(
                        regs.iter()
                            .map(|&reg| AddressInstr::Adda { reg, delta: carry }),
                    );
                }
            }
            if !instrs.is_empty() {
                blocks.push(crate::isa::CarryBlock { period, instrs });
            }
        }
        blocks
    }

    /// Generates the address program of a single pattern under an
    /// existing allocation.
    ///
    /// `origin` is the address of offset `0` at the first iteration
    /// (`base + coefficient * loop_start`); `USE` positions are the
    /// pattern's global positions.
    ///
    /// # Errors
    ///
    /// See [`CodeGenError`].
    pub fn generate_pattern(
        &self,
        pattern: &AccessPattern,
        allocation: &Allocation,
        origin: i64,
    ) -> Result<AddressProgram, CodeGenError> {
        if allocation.cover().accesses() != pattern.len() {
            return Err(CodeGenError::CoverMismatch {
                pattern_len: pattern.len(),
                cover_len: allocation.cover().accesses(),
            });
        }
        let modify = ModifyAllocation::for_cover(
            allocation.cover(),
            allocation.distance_model(),
            self.agu.modify_registers(),
        );
        let total = pattern.position(pattern.len() - 1) + 1;
        let (program, _) = self.assemble(
            &[(
                pattern,
                allocation.cover(),
                allocation.distance_model(),
                origin,
            )],
            total,
            &modify,
        )?;
        Ok(program)
    }

    /// Assembles prologue and body; also returns, per cover, the
    /// address registers assigned to its paths (in path order), so
    /// callers that emit extra per-register code (carry blocks) share
    /// one numbering.
    fn assemble(
        &self,
        covers: &[(&AccessPattern, &PathCover, &DistanceModel, i64)],
        total_accesses: usize,
        modify: &ModifyAllocation,
    ) -> Result<(AddressProgram, Vec<Vec<RegId>>), CodeGenError> {
        let needed: usize = covers.iter().map(|(_, c, _, _)| c.register_count()).sum();
        if needed > self.agu.address_registers() {
            return Err(CodeGenError::RegisterBudgetExceeded {
                needed,
                available: self.agu.address_registers(),
            });
        }
        for (pattern, cover, _, _) in covers {
            if cover.accesses() != pattern.len() {
                return Err(CodeGenError::CoverMismatch {
                    pattern_len: pattern.len(),
                    cover_len: cover.accesses(),
                });
            }
        }

        let mut prologue = Vec::new();
        // slot[global position] = (register, post-access delta)
        let mut slots: Vec<Option<(RegId, i64)>> = vec![None; total_accesses];
        let mut registers: Vec<Vec<RegId>> = Vec::with_capacity(covers.len());
        let mut next_reg: u16 = 0;
        for (pattern, cover, dm, origin) in covers {
            let mut cover_regs = Vec::with_capacity(cover.paths().len());
            for path in cover.paths() {
                let reg = RegId(next_reg);
                next_reg += 1;
                cover_regs.push(reg);
                prologue.push(AddressInstr::Lda {
                    reg,
                    address: origin + pattern.offset(path.head()),
                });
                let idx = path.indices();
                for (k, &local) in idx.iter().enumerate() {
                    let delta = if k + 1 < idx.len() {
                        dm.intra_distance(local, idx[k + 1])
                    } else {
                        dm.wrap_distance(local, path.head())
                    };
                    slots[pattern.position(local)] = Some((reg, delta));
                }
            }
            registers.push(cover_regs);
        }
        for (mr, &value) in modify.values().iter().enumerate() {
            prologue.push(AddressInstr::Ldm {
                mr: MrId(mr as u16),
                value,
            });
        }

        let mut body = Vec::new();
        for (position, slot) in slots.iter().enumerate() {
            let (reg, delta) = slot.ok_or(CodeGenError::CoverMismatch {
                pattern_len: total_accesses,
                cover_len: slots.iter().filter(|s| s.is_some()).count(),
            })?;
            if self.agu.is_free_delta(delta) {
                body.push(AddressInstr::Use {
                    reg,
                    position,
                    update: Update::Auto { delta },
                });
            } else if let Some(mr) = modify.register_for(delta) {
                body.push(AddressInstr::Use {
                    reg,
                    position,
                    update: Update::Modify {
                        mr: MrId(mr as u16),
                    },
                });
            } else {
                body.push(AddressInstr::Use {
                    reg,
                    position,
                    update: Update::None,
                });
                body.push(AddressInstr::Adda { reg, delta });
            }
        }
        Ok((
            AddressProgram::new(
                prologue,
                body,
                usize::from(next_reg),
                modify.values().to_vec(),
            )
            .with_cost_table(self.agu.cost_table()),
            registers,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_core::Optimizer;
    use raco_ir::examples;

    fn paper_setup(k: usize) -> (LoopSpec, AddressProgram) {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(k, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0x100, 256);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        (spec, program)
    }

    #[test]
    fn zero_cost_allocation_emits_no_addas() {
        let (_, program) = paper_setup(3);
        assert_eq!(program.cycles_per_iteration(), 0);
        assert_eq!(program.uses_per_iteration(), 7);
        assert_eq!(program.address_registers(), 3);
        // Prologue: one LDA per register.
        assert_eq!(program.prologue_cycles(), 3);
    }

    #[test]
    fn constrained_allocation_emits_exactly_cost_many_addas() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(2, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        assert_eq!(
            program.cycles_per_iteration(),
            u64::from(alloc.total_cost()),
            "allocator-predicted cost must equal emitted ADDAs"
        );
    }

    #[test]
    fn use_positions_are_complete_and_ordered() {
        let (spec, program) = paper_setup(3);
        let positions: Vec<usize> = program
            .body()
            .iter()
            .filter_map(|i| match i {
                AddressInstr::Use { position, .. } => Some(*position),
                _ => None,
            })
            .collect();
        assert_eq!(positions, (0..spec.len()).collect::<Vec<_>>());
    }

    #[test]
    fn prologue_points_registers_at_first_accesses() {
        let (_, program) = paper_setup(3);
        // Loop starts at i = 2, array A at 0x100: the cover's heads are
        // offsets 1, 0 and -2 → addresses 0x103, 0x102, 0x100.
        let mut addresses: Vec<i64> = program
            .prologue()
            .iter()
            .filter_map(|i| match i {
                AddressInstr::Lda { address, .. } => Some(*address),
                _ => None,
            })
            .collect();
        addresses.sort_unstable();
        assert_eq!(addresses, vec![0x100, 0x102, 0x103]);
    }

    #[test]
    fn register_budget_is_enforced() {
        let spec = examples::paper_loop();
        // Allocate for a generous machine, then try to emit for a tiny one.
        let alloc = Optimizer::new(AguSpec::new(3, 1).unwrap())
            .allocate_loop(&spec)
            .unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 64);
        let err = CodeGenerator::new(AguSpec::new(1, 1).unwrap())
            .generate(&spec, &alloc, &layout)
            .unwrap_err();
        assert_eq!(
            err,
            CodeGenError::RegisterBudgetExceeded {
                needed: 3,
                available: 1
            }
        );
    }

    #[test]
    fn missing_layout_entry_is_reported() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(3, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let empty_layout = MemoryLayout::from_bases(vec![]);
        let err = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &empty_layout)
            .unwrap_err();
        assert!(matches!(err, CodeGenError::LayoutMissingArray { .. }));
    }

    #[test]
    fn modify_registers_absorb_over_range_deltas() {
        // Scattered pattern: chained on one register the +10 deltas repeat.
        let spec = examples::scattered();
        let agu_plain = AguSpec::new(1, 1).unwrap();
        let agu_mr = AguSpec::new(1, 1).unwrap().with_modify_registers(2);
        let layout = MemoryLayout::contiguous(&spec, 0, 256);

        let alloc = Optimizer::new(agu_plain).allocate_loop(&spec).unwrap();
        let plain = CodeGenerator::new(agu_plain)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        let with_mr = CodeGenerator::new(agu_mr)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        assert!(
            with_mr.cycles_per_iteration() < plain.cycles_per_iteration(),
            "modify registers must eliminate repeated deltas: {} vs {}",
            with_mr.cycles_per_iteration(),
            plain.cycles_per_iteration()
        );
        assert!(!with_mr.modify_values().is_empty());
        assert!(with_mr
            .prologue()
            .iter()
            .any(|i| matches!(i, AddressInstr::Ldm { .. })));
    }

    #[test]
    fn generate_pattern_matches_loop_generation_for_single_array() {
        let spec = examples::paper_loop();
        let agu = AguSpec::new(2, 1).unwrap();
        let opt = Optimizer::new(agu);
        let pattern = spec.patterns().remove(0);
        let allocation = opt.allocate(&pattern);
        let program = CodeGenerator::new(agu)
            .generate_pattern(&pattern, &allocation, 0x200)
            .unwrap();
        assert_eq!(program.uses_per_iteration(), 7);
        assert_eq!(program.cycles_per_iteration(), u64::from(allocation.cost()));
    }

    #[test]
    fn multi_array_loops_interleave_registers() {
        let spec = examples::three_tap();
        let agu = AguSpec::new(4, 1).unwrap();
        let alloc = Optimizer::new(agu).allocate_loop(&spec).unwrap();
        let layout = MemoryLayout::contiguous(&spec, 0, 1024);
        let program = CodeGenerator::new(agu)
            .generate(&spec, &alloc, &layout)
            .unwrap();
        assert_eq!(program.uses_per_iteration(), 4); // 3 reads + 1 write
        assert_eq!(program.cycles_per_iteration(), 0);
        let regs: std::collections::HashSet<u16> = program
            .body()
            .iter()
            .filter_map(|i| match i {
                AddressInstr::Use { reg, .. } => Some(reg.0),
                _ => None,
            })
            .collect();
        assert_eq!(regs.len(), program.address_registers());
    }
}
