//! The library workloads: `cold_sweep` and `warm_repeat`, driven through
//! `raco_driver::Pipeline` exactly as a library caller would, one
//! closed-loop caller, one default-config pipeline per machine.

use std::path::{Path, PathBuf};
use std::time::Instant;

use raco::driver::{CompilationReport, Pipeline, PipelineConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{self, Item, MACHINES};
use crate::report::{Outcome, Tally};
use crate::stats::{median_of, Samples};

/// What every workload run is given.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    /// Length of the measured part, in seconds.
    pub seconds: f64,
    /// Scratch directory for snapshots and span dumps.
    pub work: PathBuf,
    /// Whether to run the checks that do not depend on the timed part:
    /// the kernel fixture and the uncached and snapshot-loaded
    /// agreements. Compiles that are timed are always checked.
    pub checks: bool,
}

impl Env {
    /// A scratch file private to this run.
    pub fn file(&self, stem: &str, extension: &str) -> PathBuf {
        self.work.join(format!(
            "{stem}-{}-{}.{extension}",
            self.seed,
            std::process::id()
        ))
    }
}

/// Per-loop cost (explicit address updates per iteration) and code size
/// of a compiled single-loop unit.
pub type Code = (u64, u64);

/// The [`Code`] of a one-loop report, or why the loop failed: an
/// allocation or code-generation failure, a `CostMismatch`, an
/// `OracleDisagreement` or a validation error.
pub fn code_of(report: &CompilationReport) -> Result<Code, String> {
    let mut loops = report.loops();
    let (Some(only), None) = (loops.next(), loops.next()) else {
        return Err(format!("{} loops, expected one", report.loop_count()));
    };
    if let Some(failure) = &only.failure {
        return Err(failure.to_string());
    }
    if only.measured_cost != Some(only.cost) {
        return Err(format!(
            "predicted {} but measured {:?}",
            only.cost, only.measured_cost
        ));
    }
    Ok((only.cost, only.code_words))
}

/// One pipeline per built-in machine, each with that machine's default
/// configuration adjusted by `configure`.
pub fn pipelines(configure: impl Fn(&mut PipelineConfig)) -> Vec<Pipeline> {
    (0..MACHINES.len())
        .map(|m| {
            let mut config = PipelineConfig::new(inputs::machine_spec(m));
            configure(&mut config);
            Pipeline::with_config(config)
        })
        .collect()
}

/// Compiles `item` on its machine's pipeline.
pub fn compile_report(
    pipelines: &[Pipeline],
    item: &Item,
) -> Result<(CompilationReport, Code), String> {
    let context = |e: String| format!("{}/{}: {e}", MACHINES[item.machine], item.name);
    let report = pipelines[item.machine]
        .compile_str(&item.name, &item.source)
        .map_err(|e| context(e.to_string()))?;
    let code = code_of(&report).map_err(context)?;
    Ok((report, code))
}

pub fn compile(pipelines: &[Pipeline], item: &Item) -> Result<Code, String> {
    compile_report(pipelines, item).map(|(_, code)| code)
}

/// Compiles every item once; each compile is one checked operation.
pub fn compile_all(pipelines: &[Pipeline], items: &[Item], tally: &mut Tally) -> Vec<Option<Code>> {
    items
        .iter()
        .map(|item| {
            let code = compile(pipelines, item);
            let kept = code.as_ref().ok().copied();
            tally.record(code.map(|_| ()));
            kept
        })
        .collect()
}

/// Checks that two compiles of the same inputs agree on every loop's
/// cost and code size.
pub fn agree(
    tally: &mut Tally,
    what: &str,
    items: &[Item],
    expected: &[Option<Code>],
    got: &[Option<Code>],
) {
    for ((item, want), have) in items.iter().zip(expected).zip(got) {
        if let (Some(want), Some(have)) = (want, have) {
            tally.record(if want == have {
                Ok(())
            } else {
                Err(format!(
                    "{}/{}: {what} gives (cost, words) {have:?}, the cached cold compile {want:?}",
                    MACHINES[item.machine], item.name
                ))
            });
        }
    }
}

/// The classic machines' kernel costs, pinned since before machines
/// became data.
const KERNEL_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../tests/fixtures/kernel_costs_classic.txt"
);

/// Compiles the kernel suite on each classic machine and compares every
/// cost with the pinned fixture (read, never written).
pub fn kernel_fixture_gate(tally: &mut Tally) {
    let text = match std::fs::read_to_string(KERNEL_FIXTURE) {
        Ok(text) => text,
        Err(e) => {
            tally.record(Err(format!("{KERNEL_FIXTURE}: {e}")));
            return;
        }
    };
    let mut by_machine: Vec<(String, Vec<(String, u64)>)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [machine, kernel, cost] = fields[..] else {
            tally.record(Err(format!("fixture line `{line}`")));
            continue;
        };
        let Ok(cost) = cost.parse::<u64>() else {
            tally.record(Err(format!("fixture line `{line}`")));
            continue;
        };
        match by_machine.iter_mut().find(|(m, _)| m == machine) {
            Some((_, pinned)) => pinned.push((kernel.to_owned(), cost)),
            None => by_machine.push((machine.to_owned(), vec![(kernel.to_owned(), cost)])),
        }
    }
    for (machine, pinned) in by_machine {
        let Some(description) = raco::ir::MachineDescription::builtin(&machine) else {
            tally.record(Err(format!("fixture names unknown machine {machine}")));
            continue;
        };
        let report = Pipeline::new(*description.spec()).compile_kernels();
        for (kernel, cost) in pinned {
            let found = report.loops().find(|l| l.name == kernel);
            tally.record(match found {
                Some(l)
                    if l.failure.is_none() && l.cost == cost && l.measured_cost == Some(cost) =>
                {
                    Ok(())
                }
                Some(l) => Err(format!(
                    "{machine}/{kernel}: cost {} (measured {:?}, failure {:?}), fixture {cost}",
                    l.cost, l.measured_cost, l.failure
                )),
                None => Err(format!("{machine}/{kernel}: not in the kernel suite")),
            });
        }
    }
}

/// `VmHWM` (peak resident set) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Closed-loop latency samples (µs), one per call, cut into windows.
///
/// On a shared host the speed of a compile drifts by up to 1.7× from
/// one few-second stretch to the next: other tenants contend for the
/// last-level cache (on a 2-vCPU guest, an L3-resident pointer chase
/// slowed by up to 1.5× for seconds at a time, while an ALU loop and a
/// DRAM-bound chase held within 5%). A quantile of all samples pooled
/// leans towards the slow stretches, because their slowest calls fill
/// the top percent; so each window's p50 and p99 are taken on their
/// own and the run reports their medians, as throughput takes the
/// median pass. A cold pass is one window (1632 calls); a warm window
/// is [`WARM_WINDOW_ROUNDS`] rounds over the hot set.
#[derive(Debug, Default)]
struct Closed {
    /// Calls timed so far.
    calls: usize,
    window: Samples,
    /// (p50, p99, samples beyond p99) of every closed window.
    windows: Vec<(f64, f64, usize)>,
}

impl Closed {
    /// Times one call.
    fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.window.push(started.elapsed().as_secs_f64() * 1e6);
        self.calls += 1;
        out
    }

    /// Ends the current window.
    fn close_window(&mut self) {
        let mut window = std::mem::take(&mut self.window);
        if window.len() > 0 {
            let beyond = window.beyond(0.99);
            self.windows
                .push((window.median(), window.quantile(0.99), beyond));
        }
    }

    /// Medians over windows of p50 and p99.
    fn latency(&mut self) -> (f64, f64) {
        self.close_window();
        let p50: Vec<f64> = self.windows.iter().map(|w| w.0).collect();
        let p99: Vec<f64> = self.windows.iter().map(|w| w.1).collect();
        (median_of(&p50), median_of(&p99))
    }

    /// [`Closed::latency`] into `out`.
    fn report(&mut self, out: &mut Outcome) {
        let (p50, p99) = self.latency();
        out.set("latency_p50_us", p50);
        out.set("latency_p99_us", p99);
        eprintln!(
            "perfbench: {} latency samples in {} windows, at least {} beyond p99 in each",
            self.calls,
            self.windows.len(),
            self.windows.iter().map(|w| w.2).min().unwrap_or(0)
        );
    }
}

/// Set-up repetitions; a process reports their median, and a run the
/// mean over its processes (see [`crate::parts`]). Building the
/// pipelines takes microseconds, loading the snapshots milliseconds.
const COLD_SETUP_REPS: usize = 201;
const WARM_SETUP_REPS: usize = 31;

/// Median time (s) to build one default pipeline per machine.
fn cold_setup_median() -> f64 {
    let setup: Vec<f64> = (0..COLD_SETUP_REPS)
        .map(|_| {
            let started = Instant::now();
            let fresh = pipelines(|_| {});
            let took = started.elapsed().as_secs_f64();
            drop(fresh);
            took
        })
        .collect();
    median_of(&setup)
}

/// `cold_sweep`: every seeded loop compiled once, on fresh pipelines,
/// in passes until the measured time is up.
pub fn cold_sweep(env: &Env) -> Outcome {
    let setup_s = cold_setup_median();
    let mut tally = Tally::default();
    if env.checks {
        kernel_fixture_gate(&mut tally);
    }
    let items = inputs::cold_sweep(env.seed);

    let mut closed = Closed::default();
    let mut pass_s = Vec::new();
    let mut first: Option<(Vec<Pipeline>, Vec<Option<Code>>)> = None;
    let mut peak_rss = f64::NAN;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(env.seconds);
    loop {
        let fresh = pipelines(|_| {});
        let mut codes = Vec::with_capacity(items.len());
        let mut pass = Tally::default();
        let started = Instant::now();
        for item in &items {
            let code = closed.call(|| compile(&fresh, item));
            codes.push(code.as_ref().ok().copied());
            pass.record(code.map(|_| ()));
        }
        pass_s.push(started.elapsed().as_secs_f64());
        closed.close_window();
        match &first {
            // Peak memory is read after the first pass: later passes
            // only rebuild the same caches.
            None => {
                peak_rss = peak_rss_mb(None);
                first = Some((fresh, codes));
            }
            Some((_, expected)) => agree(&mut pass, "a later cold pass", &items, expected, &codes),
        }
        tally.absorb(pass);
        // Stop when less than half a pass is left, so that the run ends
        // as close to its deadline as whole passes allow.
        let half_pass = std::time::Duration::from_secs_f64(pass_s[pass_s.len() - 1] / 2.0);
        if Instant::now() + half_pass >= deadline {
            break;
        }
    }
    let (cached, expected) = first.expect("at least one pass ran");

    if env.checks {
        // Agreement: the uncached allocator and a snapshot-loaded cache
        // must reproduce the cached cold pass loop for loop.
        let uncached = compile_all(&pipelines(|c| c.caching = false), &items, &mut tally);
        agree(
            &mut tally,
            "the uncached allocator",
            &items,
            &expected,
            &uncached,
        );
        let loaded = snapshot_round_trip(env, "cold", &cached, &mut tally);
        let reloaded = compile_all(&loaded, &items, &mut tally);
        agree(
            &mut tally,
            "the snapshot-loaded cache",
            &items,
            &expected,
            &reloaded,
        );
    }

    let mut out = Outcome::new(tally);
    out.set("setup_s", setup_s);
    out.set(
        "throughput_loops_per_s",
        items.len() as f64 / median_of(&pass_s),
    );
    closed.report(&mut out);
    set_code_totals(&mut out, &expected);
    out.set("peak_rss_mb", peak_rss);
    out.set("ok_ratio", out.tally.ok_ratio());
    out
}

fn set_code_totals(out: &mut Outcome, codes: &[Option<Code>]) {
    let (cost, words) = codes
        .iter()
        .flatten()
        .fold((0, 0), |(c, w), &(cost, words)| (c + cost, w + words));
    out.set("address_cost_total", cost as f64);
    out.set("code_words_total", words as f64);
}

/// Snapshot file of machine `m`'s pipeline.
fn snapshot_path(env: &Env, stem: &str, m: usize) -> PathBuf {
    env.file(&format!("{stem}-{}", MACHINES[m]), "snap")
}

/// Saves each pipeline's cache and loads it into a fresh pipeline of
/// the same machine; a failed save or load, or any entry the load
/// rejects, is a failure.
pub fn snapshot_round_trip(
    env: &Env,
    stem: &str,
    from: &[Pipeline],
    tally: &mut Tally,
) -> Vec<Pipeline> {
    for (m, pipeline) in from.iter().enumerate() {
        tally.record(save(pipeline, &snapshot_path(env, stem, m)).map(|_| ()));
    }
    let fresh = pipelines(|_| {});
    for (m, pipeline) in fresh.iter().enumerate() {
        tally.record(load(pipeline, &snapshot_path(env, stem, m)));
    }
    remove_snapshots(env, stem);
    fresh
}

pub fn save(pipeline: &Pipeline, path: &Path) -> Result<usize, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    pipeline
        .save_cache(path)
        .map(|report| report.bytes)
        .map_err(|e| format!("save {}: {e}", path.display()))
}

/// Loads a snapshot; rejecting any entry is a failure.
fn load(pipeline: &Pipeline, path: &Path) -> Result<(), String> {
    let report = pipeline
        .load_cache(path)
        .map_err(|e| format!("load {}: {e}", path.display()))?;
    if report.skipped > 0 || report.loaded() == 0 {
        return Err(format!("load {}: {report:?}", path.display()));
    }
    Ok(())
}

fn remove_snapshots(env: &Env, stem: &str) {
    for m in 0..MACHINES.len() {
        let _ = std::fs::remove_file(snapshot_path(env, stem, m));
    }
}

/// The hot set compiled cold (the reference), checked against the
/// uncached allocator, and snapshotted per machine.
struct WarmSetup {
    items: Vec<Item>,
    expected: Vec<Option<Code>>,
}

fn warm_setup(env: &Env, tally: &mut Tally) -> WarmSetup {
    let items = inputs::hot_set();
    let reference = pipelines(|_| {});
    let expected = compile_all(&reference, &items, tally);
    if env.checks {
        let uncached = compile_all(&pipelines(|c| c.caching = false), &items, tally);
        agree(
            tally,
            "the uncached allocator",
            &items,
            &expected,
            &uncached,
        );
    }
    for (m, pipeline) in reference.iter().enumerate() {
        tally.record(save(pipeline, &snapshot_path(env, "warm", m)).map(|_| ()));
    }
    WarmSetup { items, expected }
}

/// Fresh default-config pipelines warmed from the set-up snapshots.
fn warm_boot(env: &Env, tally: &mut Tally) -> Vec<Pipeline> {
    let fresh = pipelines(|_| {});
    for (m, pipeline) in fresh.iter().enumerate() {
        tally.record(load(pipeline, &snapshot_path(env, "warm", m)));
    }
    fresh
}

/// The warm loop's order: the hot set in a seeded random order.
fn warm_order(seed: u64, len: usize) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3a7e_0d3e);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Rounds over the hot set in one latency window of the warm loop:
/// ~4k calls, a quarter of a second.
const WARM_WINDOW_ROUNDS: usize = 8;

/// Runs the warm closed loop until `seconds` pass, checking every
/// result against the reference.
fn warm_loop(
    pipelines: &[Pipeline],
    setup: &WarmSetup,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> (Closed, f64) {
    let order = warm_order(seed, setup.items.len());
    let mut closed = Closed::default();
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(seconds);
    for round in 1.. {
        for &i in &order {
            let item = &setup.items[i];
            let result = closed.call(|| compile(pipelines, item));
            tally.record(result.and_then(|code| {
                if Some(code) == setup.expected[i] {
                    Ok(())
                } else {
                    Err(format!(
                        "{}/{}: snapshot-loaded compile gives {code:?}, the cached cold compile {:?}",
                        MACHINES[item.machine], item.name, setup.expected[i]
                    ))
                }
            }));
        }
        if round % WARM_WINDOW_ROUNDS == 0 {
            closed.close_window();
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    (closed, started.elapsed().as_secs_f64())
}

/// `warm_repeat`: the hot set served from a snapshot-warmed cache by a
/// closed loop of repeated `compile_str` calls.
pub fn warm_repeat(env: &Env) -> Outcome {
    let mut tally = Tally::default();
    if env.checks {
        kernel_fixture_gate(&mut tally);
    }
    let setup = warm_setup(env, &mut tally);

    let mut setup_s = Vec::with_capacity(WARM_SETUP_REPS);
    let mut booted = Vec::new();
    for _ in 0..WARM_SETUP_REPS {
        let started = Instant::now();
        booted = warm_boot(env, &mut tally);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    remove_snapshots(env, "warm");
    // Read before the closed loop, which only hits the cache.
    let peak_rss = peak_rss_mb(None);

    let (mut closed, wall_s) = warm_loop(&booted, &setup, env.seed, env.seconds, &mut tally);
    let mut out = Outcome::new(tally);
    out.set("setup_s", median_of(&setup_s));
    out.set("throughput_loops_per_s", closed.calls as f64 / wall_s);
    closed.report(&mut out);
    set_code_totals(&mut out, &setup.expected);
    out.set("peak_rss_mb", peak_rss);
    out.set("ok_ratio", out.tally.ok_ratio());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_the_median_over_windows() {
        let mut closed = Closed::default();
        // Three windows of 1..=200 scaled by 1, 3 and 2; the last is
        // left open and closed by `latency`.
        for scale in [1.0, 3.0, 2.0] {
            closed.close_window();
            for v in 1..=200 {
                closed.window.push(scale * f64::from(v));
            }
        }
        assert_eq!(closed.latency(), (200.0, 396.0));
        assert_eq!(closed.windows.len(), 3);
        assert!(closed.windows.iter().all(|w| w.2 == 2));
    }
}
