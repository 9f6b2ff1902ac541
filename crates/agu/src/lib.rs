//! # raco-agu — address-generation-unit code generation and simulation
//!
//! This crate turns an allocation computed by `raco-core` into executable
//! *address code* for the AGU machine model of the paper, and validates it
//! end to end:
//!
//! * [`isa`] — the address instruction set: `LDA` (load address register),
//!   `ADDA` (explicit, unit-cost update), `LDM` (load modify register) and
//!   `USE` (the memory access itself, with an optional **free** post-modify
//!   within `|d| <= M` or through a modify register);
//! * [`codegen`] — generates a loop's address program from a
//!   [`LoopAllocation`](raco_core::Allocation) and a
//!   [`MemoryLayout`](raco_ir::MemoryLayout), loading the modify registers
//!   that [`raco_graph::ModifyAllocation`] ranks (the machine extension of
//!   Araujo et al., the paper's ref \[2\]; experiment E7);
//! * [`sim`] — a cycle-accurate simulator that executes the address
//!   program against a reference [`Trace`](raco_ir::Trace) and asserts
//!   every access hits the right address;
//! * [`listing`] — assembly of many per-loop programs into one unit
//!   listing (the batch driver's output format);
//! * [`metrics`] — code-size and cycle accounting, including the
//!   explicit-addressing baseline of a "regular C compiler" used by
//!   experiment E4.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use raco_agu::{codegen::CodeGenerator, sim};
//! use raco_core::Optimizer;
//! use raco_ir::{examples, AguSpec, MemoryLayout, Trace};
//!
//! let spec = examples::paper_loop();
//! let agu = AguSpec::new(3, 1)?;
//! let alloc = Optimizer::new(agu).allocate_loop(&spec)?;
//! let layout = MemoryLayout::contiguous(&spec, 0x100, 256);
//!
//! let program = CodeGenerator::new(agu).generate(&spec, &alloc, &layout)?;
//! let trace = Trace::capture(&spec, &layout, 16);
//! let report = sim::run(&program, &trace, &agu)?;
//! assert_eq!(report.explicit_updates_per_iteration(), 0); // K̃ = 3 <= K
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codegen;
pub mod isa;
pub mod listing;
pub mod metrics;
pub mod peephole;
pub mod sim;

pub use codegen::{CodeGenError, CodeGenerator};
pub use isa::{AddressInstr, AddressProgram, MrId, RegId, Update};
pub use listing::ProgramListing;
pub use metrics::ProgramMetrics;
pub use sim::{SimError, SimReport};
