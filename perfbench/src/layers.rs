//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Every workload reports every layer, measured on its own inputs: the
//! cold loops, the hot set, or the serve trace's distinct requests.
//! Spans are recorded here, around calls into each layer's public
//! functions, never inside the program:
//!
//! * a **cold replay** calls the layers in pipeline order on each input
//!   (parse, lower, canonicalize, distance model, Phase 1, cost curves,
//!   partition, allocation, the uncached `allocate_loop`, codegen, trace
//!   capture, simulation, checker);
//! * a **warm replay** times a warm `compile_str` and then the calls a
//!   warm compile makes (parse, lower, canonicalize, two cache lookups
//!   per pattern, partition, codegen, trace, simulation, checker).
//!   `driver.residual_ratio` is the share of the warm `compile_str` time
//!   that none of those calls accounts for;
//! * the driver's cache and snapshot layers are timed through
//!   `Pipeline`, and the serve layers through `protocol`, an in-process
//!   `Server::handle_line` and a spawned `raco serve` child.
//!
//! `driver.cache.cold_over_uncached` is the cached cold pass's
//! allocation time over `allocate_loop`'s, with the former taken as
//! `allocate_loop` plus the difference between a cached cold
//! `compile_str` and an uncached one (`caching = false`, which allocates
//! with `allocate_loop`), each input timed all three ways in turn.
//!
//! `bench.trace_overhead_ratio` compares the workload's timed part run
//! with and without spans (wall time per operation).

use std::time::{Duration, Instant};

use raco::agu::codegen::CodeGenerator;
use raco::agu::sim;
use raco::core::{partition, phase1, LoopAllocation, Optimizer};
use raco::driver::json::Json;
use raco::driver::{
    CacheStats, CompilationReport, Parallelism, Pipeline, PipelineConfig, NEST_VALIDATION_CAP,
};
use raco::graph::DistanceModel;
use raco::ir::{dsl, AguSpec, CanonicalPattern, LoopSpec, MemoryLayout, Trace};
use raco::serve::{protocol, ServeOptions, Server};

use crate::inputs::{self, Item, MACHINES};
use crate::library::{self, Code, Env};
use crate::report::{Outcome, Tally};
use crate::serve::{self, REFERENCE_RPS};
use crate::spans::{SpanId, Tracer};
use crate::Workload;

/// The `compile` request line for `item`.
fn request_line(item: &Item, id: u64) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"compile\",\"source\":{},\"machine\":\"{}\"}}",
        Json::str(&item.source).render(),
        MACHINES[item.machine]
    )
}

fn workload_inputs(workload: Workload, seed: u64) -> Vec<Item> {
    match workload {
        Workload::ColdSweep => inputs::cold_sweep(seed),
        Workload::WarmRepeat => inputs::hot_set(),
    }
}

/// Simulated iterations, as the pipeline validates them.
fn iterations(spec: &LoopSpec, config: &PipelineConfig) -> u64 {
    match spec.nest() {
        Some(nest) => nest
            .total_iterations()
            .clamp(1, config.validation_iterations.max(NEST_VALIDATION_CAP)),
        None => config.validation_iterations.max(1),
    }
}

/// Counts the layers report as work done.
#[derive(Default)]
struct Counts {
    phase1_nodes: u64,
    phase2_merges: u64,
    sim_accesses: u64,
    check_invariants: u64,
}

/// Parses and lowers a one-loop source under spans.
fn front_end(
    tracer: &mut Tracer,
    parent: SpanId,
    request: u64,
    item: &Item,
) -> Result<LoopSpec, String> {
    let (decls, asts) = tracer
        .time("ir.parse", Some(parent), request, || {
            dsl::parse_unit(&item.source)
        })
        .map_err(|e| e.to_string())?;
    let [ast] = &asts[..] else {
        return Err(format!("{}: {} loops", item.name, asts.len()));
    };
    tracer
        .time("ir.lower", Some(parent), request, || {
            dsl::lower_unit_loop(&decls, ast)
        })
        .map_err(|e| e.to_string())
}

/// Codegen, trace capture, simulation and the checker under spans; the
/// simulated cost must equal `predicted` and both oracles must pass.
#[allow(clippy::too_many_arguments)]
fn back_end(
    tracer: &mut Tracer,
    parent: SpanId,
    request: u64,
    spec: &LoopSpec,
    allocation: &LoopAllocation,
    config: &PipelineConfig,
    counts: &mut Counts,
) -> Result<(), String> {
    let agu = config.agu;
    let layout = MemoryLayout::contiguous(spec, config.layout_origin, config.array_words);
    let program = tracer
        .time("agu.codegen", Some(parent), request, || {
            CodeGenerator::new(agu).generate(spec, allocation, &layout)
        })
        .map_err(|e| e.to_string())?;
    let n = iterations(spec, config);
    let trace = tracer.time("ir.trace", Some(parent), request, || {
        Trace::capture(spec, &layout, n)
    });
    let simulated = tracer
        .time("agu.sim", Some(parent), request, || {
            sim::run(&program, &trace, &agu)
        })
        .map_err(|e| e.to_string())?;
    counts.sim_accesses += simulated.accesses_checked();
    let predicted = u64::from(allocation.total_cost());
    let checked = tracer.time("check", Some(parent), request, || {
        raco::check::check_program(spec, &layout, &agu, &program, Some(predicted))
    });
    counts.check_invariants += checked.invariants_checked() as u64;
    if !checked.is_clean() {
        return Err(format!("checker: {}", checked.summary()));
    }
    let measured = simulated.explicit_updates_per_iteration();
    if measured != predicted {
        return Err(format!("predicted {predicted}, measured {measured}"));
    }
    Ok(())
}

/// The cold replay of one input: every layer in pipeline order.
fn replay_cold(
    tracer: &mut Tracer,
    request: u64,
    item: &Item,
    counts: &mut Counts,
) -> Result<(), String> {
    let root = tracer.open("replay.cold", None, request);
    let spec = front_end(tracer, root, request, item)?;
    let agu = inputs::machine_spec(item.machine);
    let config = PipelineConfig::new(agu);
    let options = config.effective_options();
    let optimizer = Optimizer::with_options(agu, options);
    let (k, range) = (agu.address_registers(), agu.update_range());
    let patterns = spec.patterns();
    for pattern in &patterns {
        tracer.time("ir.canonical", Some(root), request, || {
            CanonicalPattern::of(pattern)
        });
        let dm = tracer.time("graph.distance", Some(root), request, || {
            DistanceModel::with_range(pattern, range)
        });
        let report = tracer.time("core.phase1", Some(root), request, || {
            phase1::run(&dm, options.bb)
        });
        counts.phase1_nodes += report.nodes();
    }
    let curves: Vec<Vec<u32>> = patterns
        .iter()
        .map(|p| {
            tracer.time("core.cost_curve", Some(root), request, || {
                optimizer.cost_curve(p, k)
            })
        })
        .collect();
    let grants = tracer
        .time("core.partition", Some(root), request, || {
            partition::distribute_registers(&curves, k)
        })
        .map_err(|e| e.to_string())?;
    for (pattern, &granted) in patterns.iter().zip(&grants) {
        let allocation = tracer.time("core.allocate", Some(root), request, || {
            optimizer.allocate_with_registers(pattern, granted)
        });
        counts.phase2_merges += allocation.phase2().records().len() as u64;
    }
    let allocation = tracer
        .time("core.allocate_loop", Some(root), request, || {
            optimizer.allocate_loop(&spec)
        })
        .map_err(|e| e.to_string())?;
    back_end(tracer, root, request, &spec, &allocation, &config, counts)?;
    tracer.close(root);
    Ok(())
}

/// The warm replay of one input on a pipeline that already compiled
/// it: a timed `compile_str`, then the calls a warm compile makes.
fn replay_warm(
    tracer: &mut Tracer,
    request: u64,
    item: &Item,
    pipeline: &Pipeline,
    counts: &mut Counts,
) -> Result<(), String> {
    let root = tracer.open("warm", None, request);
    tracer
        .time("driver.compile.warm", Some(root), request, || {
            pipeline.compile_str(&item.name, &item.source)
        })
        .map_err(|e| e.to_string())?;
    let replay = tracer.open("replay.warm", Some(root), request);
    let spec = front_end(tracer, replay, request, item)?;
    let config = pipeline.config();
    let options = config.effective_options();
    let optimizer = Optimizer::with_options(config.agu, options);
    let (k, range) = (config.agu.address_registers(), config.agu.update_range());
    let patterns = spec.patterns();
    let canonicals: Vec<CanonicalPattern> = patterns
        .iter()
        .map(|p| {
            tracer.time("ir.canonical", Some(replay), request, || {
                CanonicalPattern::of(p)
            })
        })
        .collect();
    let mut missed = false;
    let curves: Vec<Vec<u32>> = patterns
        .iter()
        .zip(&canonicals)
        .map(|(pattern, canonical)| {
            tracer.time("driver.cache.lookup", Some(replay), request, || {
                pipeline
                    .cache()
                    .cost_curve(canonical, range, k, &options, || {
                        missed = true;
                        optimizer.cost_curve(pattern, k)
                    })
                    .as_ref()
                    .clone()
            })
        })
        .collect();
    let grants = tracer
        .time("core.partition", Some(replay), request, || {
            partition::distribute_registers(&curves, k)
        })
        .map_err(|e| e.to_string())?;
    let per_array = patterns
        .iter()
        .zip(&canonicals)
        .zip(&grants)
        .map(|((pattern, canonical), &granted)| {
            let allocation = tracer.time("driver.cache.lookup", Some(replay), request, || {
                pipeline
                    .cache()
                    .allocation(canonical, range, granted, &options, || {
                        missed = true;
                        optimizer.allocate_with_registers(pattern, granted)
                    })
            });
            (pattern.array(), allocation)
        })
        .collect();
    if missed {
        return Err(format!("{}: warm replay missed the cache", item.name));
    }
    let allocation = LoopAllocation::from_parts(per_array, grants, options.cost_model);
    back_end(tracer, replay, request, &spec, &allocation, config, counts)?;
    tracer.close(replay);
    tracer.close(root);
    Ok(())
}

/// Times `compile_str` over `items` on `pipes`, as spans named `name`
/// when a tracer is given; returns the summed wall time (s) and the
/// reports.
fn compile_pass(
    pipes: &[Pipeline],
    items: &[Item],
    mut tracer: Option<&mut Tracer>,
    name: &'static str,
    tally: &mut Tally,
) -> (f64, Vec<Option<(CompilationReport, Code)>>) {
    let mut total = 0.0;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let started = Instant::now();
        let result = library::compile_report(pipes, item);
        let ended = Instant::now();
        total += (ended - started).as_secs_f64();
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record(name, None, i as u64, started, ended);
        }
        out.push(result.as_ref().ok().map(|(r, c)| (r.clone(), *c)));
        tally.record(result.map(|_| ()));
    }
    (total, out)
}

/// The workload's timed part, run untraced and then traced: returns
/// (untraced, traced) wall time per operation.
fn timed_part(
    workload: Workload,
    items: &[Item],
    warm: &[Pipeline],
    seconds: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    stats: &mut Option<(CacheStats, u64, usize)>,
) -> (f64, f64) {
    let mut per_op = [0.0; 2];
    for (traced, slot) in [(false, 0), (true, 1)] {
        match workload {
            Workload::ColdSweep => {
                let pipes = library::pipelines(|_| {});
                let (wall, _) = compile_pass(
                    &pipes,
                    items,
                    traced.then_some(&mut *tracer),
                    "driver.compile",
                    tally,
                );
                per_op[slot] = wall / items.len() as f64;
                if traced {
                    *stats = Some((cache_stats(&pipes), items.len() as u64, entries(&pipes)));
                }
            }
            Workload::WarmRepeat => {
                let before = cache_stats(warm);
                let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                let started = Instant::now();
                let mut calls = 0u64;
                'outer: loop {
                    for (i, item) in items.iter().enumerate() {
                        let begin = Instant::now();
                        let result = library::compile(warm, item);
                        if traced {
                            tracer.record("driver.compile", None, i as u64, begin, Instant::now());
                        }
                        tally.record(result.map(|_| ()));
                        calls += 1;
                        if calls.is_multiple_of(64) && Instant::now() >= deadline {
                            break 'outer;
                        }
                    }
                }
                per_op[slot] = started.elapsed().as_secs_f64() / calls as f64;
                if traced {
                    let mut delta = cache_stats(warm);
                    delta.allocation_hits -= before.allocation_hits;
                    delta.allocation_misses -= before.allocation_misses;
                    delta.curve_hits -= before.curve_hits;
                    delta.curve_misses -= before.curve_misses;
                    *stats = Some((delta, calls, entries(warm)));
                }
            }
        }
    }
    (per_op[0], per_op[1])
}

fn cache_stats(pipes: &[Pipeline]) -> CacheStats {
    let mut total = CacheStats::default();
    for pipeline in pipes {
        total.absorb(&pipeline.cache_stats());
    }
    total
}

fn entries(pipes: &[Pipeline]) -> usize {
    let stats = cache_stats(pipes);
    stats.allocation_entries + stats.curve_entries
}

fn lookups(stats: &CacheStats) -> u64 {
    stats.allocation_hits + stats.allocation_misses + stats.curve_hits + stats.curve_misses
}

/// Spawns a `raco serve` child, warms it with every `warm` request,
/// sends `keys` open-loop at [`REFERENCE_RPS`] and returns what the
/// generator saw plus the child's `metrics` payload.
fn serve_session(
    binary: &std::path::Path,
    warm: &[usize],
    keys: &[usize],
    render: serve::Render<'_>,
    tally: &mut Tally,
    observe: impl FnMut(u64, Instant, Instant),
) -> Result<(serve::OpenLoop, Json), String> {
    let server = serve::Server::spawn(binary)?;
    let mut generator = serve::Generator::connect(&server.addr)?;
    serve::warm_up(&mut generator, warm, render, tally)?;
    let run = generator.open_loop(keys, render, REFERENCE_RPS, tally, observe)?;
    drop(generator);
    let metrics = server.metrics()?;
    server.shutdown()?;
    Ok((run, metrics))
}

/// The production serve options (`raco serve` with no flags).
fn production_server() -> Server {
    let mut config = PipelineConfig::new(AguSpec::new(4, 1).expect("the CLI default machine"));
    config.parallelism = Parallelism::Sequential;
    Server::with_options(
        config,
        ServeOptions {
            shards: 0,
            read_deadline: Some(Duration::from_secs(10)),
            compute_deadline: Some(Duration::from_secs(30)),
            ..ServeOptions::default()
        },
    )
}

/// Requests of the serve layer's protocol and handle timings, cycling
/// over the workload's inputs.
const SERVE_LAYER_REQUESTS: usize = 4096;

pub fn traced(workload: Workload, env: &Env) -> Result<Outcome, String> {
    let binary = serve::raco_binary()?;
    let mut tally = Tally::default();
    let inputs = workload_inputs(workload, env.seed);
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    // A cached cold compile, an uncached one and `allocate_loop` for
    // each input in turn, so that drifting machine speed cancels out of
    // cold_over_uncached.
    let cached = library::pipelines(|_| {});
    let uncached = library::pipelines(|c| c.caching = false);
    let (mut cached_s, mut uncached_s, mut allocate_loop_s) = (0.0, 0.0, 0.0);
    let mut reports = Vec::with_capacity(inputs.len());
    for item in &inputs {
        let agu = inputs::machine_spec(item.machine);
        let optimizer = Optimizer::with_options(agu, PipelineConfig::new(agu).effective_options());
        let spec = dsl::parse_program(&item.source)
            .map_err(|e| format!("{}: {e}", item.name))?
            .remove(0);
        let started = Instant::now();
        let cached_code = library::compile_report(&cached, item);
        cached_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let uncached_code = library::compile(&uncached, item);
        uncached_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let allocated = std::hint::black_box(optimizer.allocate_loop(&spec));
        allocate_loop_s += started.elapsed().as_secs_f64();
        tally.record(match (&cached_code, uncached_code, allocated) {
            (Ok((_, a)), Ok(b), Ok(allocation))
                if *a == b && u64::from(allocation.total_cost()) == b.0 =>
            {
                Ok(())
            }
            (a, b, allocated) => Err(format!(
                "{}: cached {:?}, uncached {b:?}, allocate_loop cost {:?}",
                item.name,
                a.as_ref().map(|(_, code)| code),
                allocated.map(|a| a.total_cost())
            )),
        });
        reports.push(cached_code.ok());
    }
    values.push((
        "driver.cache.cold_over_uncached",
        (allocate_loop_s + cached_s - uncached_s) / allocate_loop_s,
    ));

    // Layer replays.
    for (i, item) in inputs.iter().enumerate() {
        tally.record(replay_cold(&mut tracer, i as u64, item, &mut counts));
    }
    let mut warm_counts = Counts::default();
    for (i, item) in inputs.iter().enumerate() {
        let pipeline = &cached[item.machine];
        tally.record(replay_warm(
            &mut tracer,
            i as u64,
            item,
            pipeline,
            &mut warm_counts,
        ));
    }

    // Snapshots of the cached pass, loaded into fresh pipelines.
    let loaded = library::pipelines(|_| {});
    let (mut save_s, mut load_s, mut bytes, mut rejected) = (0.0, 0.0, 0usize, 0usize);
    for (n, (pipeline, target)) in cached.iter().zip(&loaded).enumerate() {
        let path = env.file(&format!("traced-{n}"), "snap");
        let started = Instant::now();
        let saved = tracer.time("driver.persist.save", None, n as u64, || {
            library::save(pipeline, &path)
        });
        save_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let report = tracer.time("driver.persist.load", None, n as u64, || {
            target.load_cache(&path)
        });
        load_s += started.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&path);
        match (saved, report) {
            (Ok(size), Ok(report)) => {
                bytes += size;
                rejected += report.skipped;
                tally.record(Ok(()));
            }
            (saved, report) => tally.record(Err(format!("snapshot {n}: {saved:?} / {report:?}"))),
        }
    }
    values.extend([
        ("driver.persist.save_ms", save_s * 1e3),
        ("driver.persist.load_ms", load_s * 1e3),
        ("driver.persist.bytes", bytes as f64),
        ("driver.persist.rejected", rejected as f64),
        ("driver.persist.warm_boot_ratio", load_s / cached_s),
    ]);

    // The timed part, untraced then traced.
    let mut stats = None;
    let (untraced, traced) = timed_part(
        workload,
        &inputs,
        &loaded,
        env.seconds * 0.25,
        &mut tracer,
        &mut tally,
        &mut stats,
    );

    // Serve layers: protocol, in-process handling, the child.
    let lines: Vec<String> = (0..SERVE_LAYER_REQUESTS)
        .map(|n| request_line(&inputs[n % inputs.len()], n as u64))
        .collect();
    for (n, line) in lines.iter().enumerate() {
        let parsed = tracer.time("serve.protocol.parse", None, n as u64, || {
            protocol::parse_line(line)
        });
        tally.record(parsed.map(|_| ()).map_err(|e| e.message));
    }
    for (n, report) in reports.iter().flatten().enumerate() {
        let mut report = report.0.clone();
        report.timings.clear();
        let id = Some(Json::UInt(n as u64));
        tracer.time("serve.protocol.render", None, n as u64, || {
            protocol::report_line(&id, &report)
        });
    }
    let server = production_server();
    for line in lines.iter().take(inputs.len()) {
        server.handle_line(line);
    }
    for (n, line) in lines.iter().enumerate() {
        let reply = tracer.time("serve.handle", None, n as u64, || server.handle_line(line));
        tally.record(if reply.line.contains("\"ok\":true") {
            Ok(())
        } else {
            Err(reply.line)
        });
    }
    drop(server);

    // The child: warmed with every input, then the inputs open-loop.
    let requests = (REFERENCE_RPS * env.seconds * 0.15) as usize;
    let warm: Vec<usize> = (0..inputs.len()).collect();
    let keys: Vec<usize> = (0..requests).map(|n| n % inputs.len()).collect();
    let render = |key: usize, id: u64| request_line(&inputs[key], id);
    let (mut served, served_metrics) = serve_session(
        &binary,
        &warm,
        &keys,
        &render,
        &mut tally,
        |id, due, replied| {
            tracer.record("serve.request", None, id, due, replied);
        },
    )?;

    // Per-layer values.
    let p50 = |tracer: &Tracer, name: &str| tracer.self_us(name).median();
    let total_ms = |tracer: &Tracer, name: &str| tracer.self_us(name).sum() / 1e3;
    for (metric, span) in [
        ("ir.parse.p50_us", "ir.parse"),
        ("ir.lower.p50_us", "ir.lower"),
        ("ir.canonical.p50_us", "ir.canonical"),
        ("ir.trace.p50_us", "ir.trace"),
        ("graph.distance.p50_us", "graph.distance"),
        ("core.phase1.p50_us", "core.phase1"),
        ("core.partition.p50_us", "core.partition"),
        ("agu.codegen.p50_us", "agu.codegen"),
        ("agu.sim.p50_us", "agu.sim"),
        ("check.p50_us", "check"),
        ("serve.protocol.parse.p50_us", "serve.protocol.parse"),
        ("serve.protocol.render.p50_us", "serve.protocol.render"),
        ("serve.handle.p50_us", "serve.handle"),
    ] {
        values.push((metric, p50(&tracer, span)));
    }
    for (metric, span) in [
        ("core.cost_curve.total_ms", "core.cost_curve"),
        ("core.allocate.total_ms", "core.allocate"),
        ("core.allocate_loop.total_ms", "core.allocate_loop"),
    ] {
        values.push((metric, total_ms(&tracer, span)));
    }
    values.extend([
        ("core.phase1.nodes", counts.phase1_nodes as f64),
        ("core.phase2.merges", counts.phase2_merges as f64),
        ("agu.sim.accesses", counts.sim_accesses as f64),
        ("check.invariants", counts.check_invariants as f64),
    ]);

    // Residual: warm compile_str time no replayed layer call covers.
    let self_times = tracer.self_times();
    let (mut compile_ns, mut covered_ns) = (0u64, 0u64);
    for (span, &self_ns) in tracer.spans().iter().zip(&self_times) {
        match span.name {
            "driver.compile.warm" => compile_ns += span.end_ns - span.start_ns,
            "replay.warm" => covered_ns += span.end_ns - span.start_ns - self_ns,
            _ => {}
        }
    }
    values.push((
        "driver.residual_ratio",
        (compile_ns as f64 - covered_ns as f64) / compile_ns as f64,
    ));

    let Some((delta, loops, entries)) = stats else {
        return Err("the timed part recorded no cache statistics".to_owned());
    };
    values.extend([
        ("driver.cache.hit_ratio", delta.hit_rate()),
        (
            "driver.cache.lookups_per_loop",
            lookups(&delta) as f64 / loops as f64,
        ),
        ("driver.cache.entries", entries as f64),
    ]);
    let server_cache = served_metrics.get("cache");
    values.push(("driver.compile.p50_us", p50(&tracer, "driver.compile")));

    let compile_latency = served_metrics
        .get("latency_us")
        .and_then(|l| l.get("compile"));
    let latency = |q: &str| {
        compile_latency
            .and_then(|c| c.get(q))
            .and_then(|v| match v {
                Json::Num(n) => Some(*n),
                other => other.as_u64().map(|n| n as f64),
            })
            .unwrap_or(f64::NAN)
    };
    let (shed, deadlines) = serve::shed_and_deadlines(&served_metrics);
    let shard_requests: Vec<f64> = match served_metrics.get("shards") {
        Some(Json::Arr(shards)) => shards
            .iter()
            .filter_map(|s| s.get("requests").and_then(Json::as_u64))
            .map(|n| n as f64)
            .collect(),
        _ => vec![1.0],
    };
    let mean = shard_requests.iter().sum::<f64>() / shard_requests.len() as f64;
    let busiest = shard_requests.iter().copied().fold(0.0, f64::max);
    let handle_p50 = p50(&tracer, "serve.handle");
    values.extend([
        ("serve.wire.p50_us", served.latency_us.median() - handle_p50),
        ("serve.server.compile.p50_us", latency("p50_us")),
        ("serve.server.compile.p99_us", latency("p99_us")),
        ("serve.shed", shed as f64),
        ("serve.deadline_misses", deadlines as f64),
        (
            "serve.shard.hit_ratio",
            server_cache
                .and_then(|c| c.get("hit_rate"))
                .and_then(|v| if let Json::Num(n) = v { Some(*n) } else { None })
                .unwrap_or(f64::NAN),
        ),
        ("serve.shard.imbalance", busiest / mean.max(1.0)),
        ("bench.generator_lag.p99_us", served.lag_us.quantile(0.99)),
        ("bench.trace_overhead_ratio", traced / untraced),
    ]);

    let dump = env.file(&format!("spans-{}", workload.name()), "tsv");
    tracer
        .write_tsv(&dump)
        .map_err(|e| format!("{}: {e}", dump.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        dump.display()
    );
    let mut out = Outcome::new(tally);
    for (name, value) in values {
        out.set(name, value);
    }
    Ok(out)
}
