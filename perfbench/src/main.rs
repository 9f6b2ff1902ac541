//! `raco-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_sweep|warm_repeat> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one seeded workload through the system's public entry points,
//! checks every output, and prints each metric by name and unit, then
//! one JSON object as the last line of standard output:
//!
//! * `--trace 0` measures the end-to-end metrics through
//!   `raco_driver::Pipeline`, with no tracing (see [`library`]), in
//!   several processes one after another (see [`parts`]);
//! * `--trace 1` replays the workload's inputs through each layer's
//!   public functions, `raco_serve`'s protocol and `Server`, and a
//!   spawned `raco serve --tcp` child, with spans around each call, and
//!   reports the per-layer metrics (see [`layers`]); the spans are
//!   written to `<CARGO_TARGET_DIR>/perfbench-work/` when the run ends.
//!
//! Timing stays outside the program: nothing here changes how raco
//! builds or runs. BENCHMARK.json at the repository root lists the
//! workloads and metrics; each workload's module says how its numbers
//! are defined. The process exits 0 when every correctness check
//! passed, 1 when any failed, and 2 on a usage or set-up error.

mod inputs;
mod layers;
mod library;
mod parts;
mod report;
mod serve;
mod spans;
mod stats;
mod wait;

use std::path::PathBuf;
use std::process::ExitCode;

use library::Env;
use report::{Outcome, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSweep,
    WarmRepeat,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::ColdSweep, Workload::WarmRepeat];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::WarmRepeat => "warm_repeat",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the processes of a split untraced run (see [`parts`]).
    part: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: raco-perfbench --workload <cold_sweep|warm_repeat> [--seed N] \
         [--seconds S] [--trace 0|1]\n(default seed {}; claims are also checked on the \
         held-out seed {})",
        inputs::DEFAULT_SEED,
        inputs::HELD_OUT_SEED
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut part = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            parts::PART => part = Some(value()?.parse().map_err(|e| format!("{flag}: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        part,
    })
}

/// Scratch space for snapshots and span dumps: inside the build
/// directory, so a run writes nothing else.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-work")
}

fn run(args: &Args) -> Result<Outcome, String> {
    // The parts of a split run take their inputs as already checked.
    if args.part.is_none() {
        inputs::self_test(args.seed)?;
    }
    if !args.trace && args.part.is_none() {
        return parts::run(args);
    }
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        work: work_dir(),
        checks: args.part.unwrap_or(0) == 0,
    };
    std::fs::create_dir_all(&env.work).map_err(|e| format!("{}: {e}", env.work.display()))?;
    Ok(match (args.workload, args.trace) {
        (Workload::ColdSweep, false) => library::cold_sweep(&env),
        (Workload::WarmRepeat, false) => library::warm_repeat(&env),
        (workload, true) => layers::traced(workload, &env)?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("raco-perfbench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("raco-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let (table, line) = match outcome.render(catalog) {
        Ok(rendered) => rendered,
        Err(message) => {
            eprintln!("raco-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    for error in &outcome.tally.errors {
        eprintln!("raco-perfbench: FAILED: {error}");
    }
    print!("{table}");
    println!(
        "{} operations attempted, {} failed",
        outcome.tally.attempted, outcome.tally.failed
    );
    println!("{line}");
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
