//! End-to-end tests of the serve front end: golden NDJSON round-trips
//! over the stdio loop, protocol error paths, cross-request cache
//! reuse observed through the `stats` op, bounded-cache eviction under
//! a sweep of distinct patterns, and a concurrent TCP session.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use raco::driver::json::Json;
use raco::driver::{CachePolicy, PipelineConfig};
use raco::ir::AguSpec;
use raco::serve::Server;

fn default_server() -> Server {
    Server::new(PipelineConfig::new(AguSpec::new(4, 1).unwrap()))
}

/// Runs NDJSON `requests` through the blocking stdio loop and returns
/// one parsed response per request line.
fn round_trip(server: &Server, requests: &str) -> Vec<Json> {
    let mut output = Vec::new();
    server
        .serve(BufReader::new(requests.as_bytes()), &mut output)
        .expect("in-memory transport cannot fail");
    String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| Json::parse(line).expect("every response line is valid JSON"))
        .collect()
}

fn ok(response: &Json) -> bool {
    response.get("ok") == Some(&Json::Bool(true))
}

#[test]
fn golden_stdio_round_trip() {
    let server = default_server();
    let responses = round_trip(
        &server,
        concat!(
            r#"{"id": 1, "op": "ping"}"#,
            "\n\n", // blank lines are skipped
            r#"{"id": 2, "op": "compile", "name": "fir3", "source": "for (i = 1; i < 100; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }"}"#,
            "\n",
            r#"{"id": 3, "op": "kernels", "kernel": "paper_example"}"#,
            "\n",
            r#"{"id": 4, "op": "shutdown"}"#,
            "\n",
        ),
    );
    assert_eq!(responses.len(), 4);
    assert!(
        responses[0]
            .render()
            .starts_with(r#"{"id":1,"ok":true,"pong":true,"elapsed_us":"#),
        "{}",
        responses[0].render()
    );

    let report = responses[1].get("report").expect("compile report");
    assert_eq!(report.get("loops").and_then(Json::as_u64), Some(1));
    assert_eq!(report.get("failed").and_then(Json::as_u64), Some(0));
    let unit = match report.get("units") {
        Some(Json::Arr(units)) => &units[0],
        other => panic!("units array expected, got {other:?}"),
    };
    assert_eq!(unit.get("name").and_then(Json::as_str), Some("fir3"));

    let kernel_report = responses[2].get("report").expect("kernel report");
    assert_eq!(kernel_report.get("failed").and_then(Json::as_u64), Some(0));

    assert!(
        responses[3]
            .render()
            .starts_with(r#"{"id":4,"ok":true,"shutdown":true,"elapsed_us":"#),
        "{}",
        responses[3].render()
    );

    // Every response line carries its end-to-end wall time.
    for response in &responses {
        assert!(
            response.get("elapsed_us").is_some(),
            "missing elapsed_us: {response:?}"
        );
    }
}

#[test]
fn metrics_round_trip_reports_request_and_stage_latency() {
    let server = default_server();
    let compile = r#"{"op": "compile", "source": "for (i = 0; i < 32; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }"}"#;
    let script = format!("{compile}\n{compile}\n{}\n", r#"{"op":"metrics","id":"m"}"#);
    let responses = round_trip(&server, &script);
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(ok));

    let metrics = responses[2].get("metrics").expect("metrics payload");
    assert!(metrics.get("uptime_ms").and_then(Json::as_u64).is_some());
    assert_eq!(
        metrics
            .get("requests")
            .and_then(|r| r.get("by_op"))
            .and_then(|o| o.get("compile"))
            .and_then(Json::as_u64),
        Some(2)
    );

    // End-to-end compile latency: both requests counted, quantiles sane.
    let compile_latency = metrics
        .get("latency_us")
        .and_then(|l| l.get("compile"))
        .expect("compile latency");
    assert_eq!(compile_latency.get("count").and_then(Json::as_u64), Some(2));
    let us = |field: &str| match compile_latency.get(field) {
        Some(Json::Num(n)) => *n,
        Some(Json::UInt(u)) => *u as f64,
        Some(Json::Int(i)) => *i as f64,
        other => panic!("{field} must be a number, got {other:?}"),
    };
    let (p50, p99) = (us("p50_us"), us("p99_us"));
    assert!(p50 > 0.0, "a real compile takes measurable time");
    assert!(p99 >= p50);

    // The compiles above exercised the pipeline, so per-stage timings
    // accumulated under their global names.
    let pipeline = metrics.get("pipeline_us").expect("pipeline stages");
    for stage in ["pipeline.parse", "pipeline.codegen", "pipeline.simulate"] {
        assert!(
            pipeline
                .get(stage)
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
                >= 2,
            "{stage} must have accumulated two compiles"
        );
    }

    // Cache rates ride along: the second identical compile hit.
    let cache = metrics.get("cache").expect("cache rates");
    assert!(cache.get("allocation_hits").and_then(Json::as_u64).unwrap() > 0);
    assert!(cache.get("hit_rate").is_some());
}

#[test]
fn shutdown_stops_the_loop_before_later_requests() {
    let server = default_server();
    let responses = round_trip(
        &server,
        "{\"op\":\"shutdown\"}\n{\"op\":\"ping\",\"id\":\"never\"}\n",
    );
    assert_eq!(responses.len(), 1, "nothing is served after shutdown");
}

#[test]
fn malformed_requests_get_error_responses_and_do_not_kill_the_session() {
    let server = default_server();
    let responses = round_trip(
        &server,
        concat!(
            "this is not json\n",
            r#"{"op": "compile", "id": 7}"#,
            "\n",
            r#"{"op": "compile", "id": 8, "source": "for (i = 0; i++) {"}"#,
            "\n",
            r#"{"op": "ping", "id": 9}"#,
            "\n",
        ),
    );
    assert_eq!(responses.len(), 4);
    assert!(!ok(&responses[0]));
    assert!(responses[0]
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("invalid JSON"));
    assert!(!ok(&responses[1]));
    assert_eq!(responses[1].get("id").and_then(Json::as_u64), Some(7));
    assert!(!ok(&responses[2]), "parse errors surface as responses");
    assert!(ok(&responses[3]), "the session survives all of it");
}

#[test]
fn oversized_request_lines_error_without_killing_the_session() {
    use raco::serve::MAX_REQUEST_LINE;
    let server = default_server();
    // A single line well past the cap (a comment keeps it lexically
    // plausible so only the length can be at fault), framed by normal
    // requests that must both be served.
    let oversized = format!(
        r#"{{"op":"compile","source":"// {}"}}"#,
        "x".repeat(MAX_REQUEST_LINE + 1024)
    );
    let script = format!(
        "{}\n{}\n{}\n",
        r#"{"op":"ping","id":"before"}"#, oversized, r#"{"op":"ping","id":"after"}"#
    );
    let responses = round_trip(&server, &script);
    assert_eq!(
        responses.len(),
        3,
        "one response per line, oversized included"
    );
    assert!(ok(&responses[0]));
    assert!(!ok(&responses[1]), "oversized line is an error response");
    let message = responses[1].get("error").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("exceeds") && message.contains("limit"),
        "error names the limit: {message}"
    );
    assert!(ok(&responses[2]), "the session survives the oversized line");
}

#[test]
fn oversized_tcp_lines_leave_the_connection_usable() {
    use raco::serve::MAX_REQUEST_LINE;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        // Scoped so both socket handles close before shutdown: the
        // server's scoped connection threads only exit at end of input.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let huge = "y".repeat(MAX_REQUEST_LINE + 1);
            writeln!(stream, "{huge}").unwrap();
            writeln!(stream, r#"{{"op":"ping","id":"still-alive"}}"#).unwrap();
            stream.flush().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let responses: Vec<Json> = reader
                .lines()
                .take(2)
                .map(|line| Json::parse(&line.expect("read")).expect("valid JSON"))
                .collect();
            assert!(!ok(&responses[0]));
            assert!(ok(&responses[1]), "same connection keeps serving");
        }

        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        bye.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&bye).read_line(&mut line).unwrap();
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn second_identical_request_is_a_cache_hit() {
    let server = default_server();
    let compile = r#"{"op": "compile", "source": "for (i = 0; i < 64; i++) { y[i] = x[i-2] + x[i] + x[i+2]; }"}"#;
    let script = format!(
        "{compile}\n{}\n{compile}\n{}\n",
        r#"{"op": "stats", "id": "s1"}"#, r#"{"op": "stats", "id": "s2"}"#
    );
    let responses = round_trip(&server, &script);
    assert_eq!(responses.len(), 4);
    assert!(responses.iter().all(ok));

    let hits = |stats: &Json| {
        stats
            .get("stats")
            .and_then(|s| s.get("allocation_hits"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let misses = |stats: &Json| {
        stats
            .get("stats")
            .and_then(|s| s.get("allocation_misses"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let (h1, m1) = (hits(&responses[1]), misses(&responses[1]));
    let (h2, m2) = (hits(&responses[3]), misses(&responses[3]));
    assert!(
        h2 > h1,
        "second identical request must add hits ({h1} → {h2})"
    );
    assert_eq!(m2, m1, "…and no new misses");
    assert_eq!(
        h2 - h1,
        h1 + m1,
        "every lookup of the repeat hits, so repeated traffic is hit-dominated"
    );

    // The compiled results themselves are identical.
    assert_eq!(
        responses[0].get("report").and_then(|r| r.get("units")),
        responses[2].get("report").and_then(|r| r.get("units"))
    );
}

#[test]
fn clear_cache_empties_entries_over_the_protocol() {
    let server = default_server();
    let responses = round_trip(
        &server,
        concat!(
            r#"{"op": "kernels"}"#,
            "\n",
            r#"{"op": "clear_cache", "id": "c"}"#,
            "\n",
            r#"{"op": "stats", "id": "after"}"#,
            "\n",
        ),
    );
    assert!(
        responses[1]
            .render()
            .starts_with(r#"{"id":"c","ok":true,"cleared":true,"elapsed_us":"#),
        "{}",
        responses[1].render()
    );
    let entries = responses[2]
        .get("stats")
        .and_then(|s| s.get("allocation_entries"))
        .and_then(Json::as_u64);
    assert_eq!(entries, Some(0));
}

#[test]
fn bounded_server_evicts_under_a_sweep_of_distinct_patterns() {
    let mut config = PipelineConfig::new(AguSpec::new(4, 1).unwrap());
    config.cache_policy = CachePolicy::Bounded(32);
    let server = Server::new(config);

    // 150 distinct shapes (every gap width canonicalizes differently).
    let script: String = (1..=150)
        .map(|gap| {
            format!(
                r#"{{"op":"compile","source":"for (i = 0; i < 32; i++) {{ y[i] = x[i] + x[i + {gap}] + x[i + {}]; }}"}}"#,
                3 * gap
            ) + "\n"
        })
        .chain(std::iter::once(format!(
            "{}\n",
            r#"{"op":"stats","id":"sweep"}"#
        )))
        .collect();
    let responses = round_trip(&server, &script);
    assert_eq!(responses.len(), 151);
    assert!(responses.iter().all(ok), "every compile succeeds");

    let stats = responses.last().unwrap().get("stats").unwrap();
    let entries = stats
        .get("allocation_entries")
        .and_then(Json::as_u64)
        .unwrap();
    let evictions = stats
        .get("allocation_evictions")
        .and_then(Json::as_u64)
        .unwrap();
    // CachePolicy::Bounded(32) rounds up to 2 entries across each of
    // 16 shards; allow that slack but no unbounded growth.
    assert!(entries <= 32 + 16, "entries {entries} exceed the bound");
    assert!(evictions > 0, "the sweep must have evicted");
}

#[test]
fn per_request_machines_share_the_server_cache_soundly() {
    let server = default_server();
    let source = "for (i = 0; i < 16; i++) { s += x[i] + x[i + 4]; }";
    let script = format!(
        concat!(
            r#"{{"op":"compile","id":1,"source":"{s}"}}"#,
            "\n",
            r#"{{"op":"compile","id":2,"source":"{s}","registers":2,"modify":2}}"#,
            "\n",
            r#"{{"op":"compile","id":3,"source":"{s}"}}"#,
            "\n",
        ),
        s = source
    );
    let responses = round_trip(&server, &script);
    assert!(responses.iter().all(ok));
    let machine = |r: &Json, field: &str| {
        r.get("report")
            .and_then(|r| r.get("machine"))
            .and_then(|m| m.get(field))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(machine(&responses[0], "address_registers"), 4);
    assert_eq!(machine(&responses[1], "address_registers"), 2);
    assert_eq!(machine(&responses[1], "modify_range"), 2);
    assert_eq!(machine(&responses[2], "address_registers"), 4);
    // Same source, same default machine → identical results.
    assert_eq!(
        responses[0].get("report").and_then(|r| r.get("units")),
        responses[2].get("report").and_then(|r| r.get("units"))
    );
}

#[test]
fn modify_register_requests_report_matching_predicted_and_measured_cycles() {
    let server = default_server();
    // A scattered chain: repeated over-range +10 deltas, absorbed once
    // the requested machine has modify registers.
    let source = "for (i = 0; i < 16; i++) { s += x[i] + x[i + 10] + x[i + 20] + x[i + 30]; }";
    let script = format!(
        concat!(
            r#"{{"op":"compile","id":1,"source":"{s}","registers":1}}"#,
            "\n",
            r#"{{"op":"compile","id":2,"source":"{s}","registers":1,"modify_registers":2}}"#,
            "\n",
        ),
        s = source
    );
    let responses = round_trip(&server, &script);
    assert!(responses.iter().all(ok));
    let first = |j: &Json| match j {
        Json::Arr(items) => items.first().cloned(),
        _ => None,
    };
    let loop0 = |r: &Json| {
        r.get("report")
            .and_then(|r| r.get("units"))
            .and_then(&first)
            .and_then(|u| u.get("loops").cloned())
            .and_then(|l| first(&l))
            .unwrap()
    };
    let cycles = |l: &Json, field: &str| l.get(field).and_then(Json::as_u64).unwrap();
    let plain = loop0(&responses[0]);
    let with_mr = loop0(&responses[1]);
    // The machine is echoed, and prediction equals measurement on both.
    assert_eq!(
        responses[1]
            .get("report")
            .and_then(|r| r.get("machine"))
            .and_then(|m| m.get("modify_registers"))
            .and_then(Json::as_u64),
        Some(2)
    );
    for l in [&plain, &with_mr] {
        assert_eq!(
            cycles(l, "predicted_cycles"),
            cycles(l, "measured_cycles"),
            "predicted == measured: {l:?}"
        );
    }
    // And the modify registers genuinely bought something.
    assert!(cycles(&with_mr, "predicted_cycles") < cycles(&plain, "predicted_cycles"));
}

#[test]
fn tcp_clients_share_one_warm_cache() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        let request_and_read = |lines: &[&str]| -> Vec<Json> {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for line in lines {
                writeln!(stream, "{line}").expect("send");
            }
            stream.flush().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let mut responses = Vec::new();
            for line in reader.lines().take(lines.len()) {
                responses.push(Json::parse(&line.expect("read")).expect("valid JSON"));
            }
            responses
        };

        // First client compiles; second client repeats it and asks for
        // stats: the hits prove the cache outlived the first session.
        let compile = r#"{"op":"compile","source":"for (i = 0; i < 32; i++) { y[i] = x[i-1] + x[i] + x[i+1]; }"}"#;
        let first = request_and_read(&[compile]);
        assert!(ok(&first[0]));

        let second = request_and_read(&[compile, r#"{"op":"stats","id":"s"}"#]);
        assert!(ok(&second[0]));
        let hits = second[1]
            .get("stats")
            .and_then(|s| s.get("allocation_hits"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(hits > 0, "second connection must hit the first one's work");

        // A shutdown request stops the accept loop and serve_tcp returns.
        let bye = request_and_read(&[r#"{"op":"shutdown"}"#]);
        assert_eq!(bye[0].get("shutdown"), Some(&Json::Bool(true)));
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn graceful_drain_closes_idle_connections_and_snapshots_the_cache() {
    use std::io::Read;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let snap = std::env::temp_dir().join(format!("raco-serve-drain-{}.snap", std::process::id()));
    std::fs::remove_file(&snap).ok();
    let server =
        Server::new(PipelineConfig::new(AguSpec::new(4, 1).unwrap())).with_cache_save_path(&snap);
    assert_eq!(server.cache_save_path(), Some(snap.as_path()));

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        // A client that compiles once and then parks, connection open,
        // never sending another byte — the shape of an idle keep-alive
        // client that used to wedge shutdown forever.
        let idle = TcpStream::connect(addr).expect("connect");
        let mut idle_writer = idle.try_clone().unwrap();
        let mut idle_reader = BufReader::new(idle);
        writeln!(
            idle_writer,
            r#"{{"op":"compile","source":"for (i = 0; i < 32; i++) {{ y[i] = x[i-1] + x[i] + x[i+1]; }}"}}"#
        )
        .unwrap();
        let mut response = String::new();
        idle_reader.read_line(&mut response).expect("reply");
        assert!(response.contains(r#""ok":true"#));

        // A second client asks the whole server to shut down.
        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        let mut ack = String::new();
        BufReader::new(bye.try_clone().unwrap())
            .read_line(&mut ack)
            .unwrap();
        assert!(ack.contains(r#""shutdown":true"#));

        // serve_tcp must drain and return even though the idle client
        // never hung up (this join deadlocked before the drain fix) …
        handle.join().expect("server thread").expect("clean exit");

        // … and the idle client sees a clean server-side close.
        let mut rest = String::new();
        let eof = idle_reader.read_to_string(&mut rest);
        assert!(
            matches!(eof, Ok(0)),
            "drained connection must close: {eof:?} {rest:?}"
        );
    });

    // The graceful shutdown snapshotted the warm cache; a fresh
    // pipeline boots warm from it.
    let restored = raco::driver::Pipeline::new(AguSpec::new(4, 1).unwrap());
    let report = restored
        .load_cache(&snap)
        .expect("snapshot written on shutdown");
    std::fs::remove_file(&snap).ok();
    assert!(report.loaded() > 0, "{report:?}");
    assert_eq!(report.skipped, 0, "{:?}", report.warnings);
}

#[test]
fn save_cache_requests_write_loadable_snapshots() {
    let snap = std::env::temp_dir().join(format!("raco-serve-saveop-{}.snap", std::process::id()));
    std::fs::remove_file(&snap).ok();

    // Without a path and without a configured default, the request is
    // a (non-fatal) error response.
    let server = default_server();
    let responses = round_trip(
        &server,
        concat!(
            r#"{"id": 1, "op": "compile", "source": "for (i = 0; i < 16; i++) { s += x[i]; }"}"#,
            "\n",
            r#"{"id": 2, "op": "save_cache"}"#,
            "\n",
        ),
    );
    assert!(ok(&responses[0]));
    assert!(!ok(&responses[1]));
    assert!(responses[1]
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("needs a `path`"));

    // With an explicit path the snapshot is written and reports what
    // it holds; a knobbed save_cache is rejected like other control ops.
    let request = format!(
        "{}\n{}\n",
        Json::Obj(vec![
            ("id".to_owned(), Json::Int(3)),
            ("op".to_owned(), Json::str("save_cache")),
            ("path".to_owned(), Json::str(snap.display().to_string())),
        ])
        .render(),
        r#"{"id": 4, "op": "save_cache", "registers": 2}"#,
    );
    let responses = round_trip(&server, &request);
    let saved = responses[0].get("saved").expect("saved payload");
    assert!(saved.get("allocations").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        saved.get("path").and_then(Json::as_str),
        Some(snap.display().to_string().as_str())
    );
    assert!(!ok(&responses[1]), "knobs on save_cache must error");

    let restored = raco::driver::Pipeline::new(AguSpec::new(4, 1).unwrap());
    let report = restored.load_cache(&snap).expect("snapshot readable");
    std::fs::remove_file(&snap).ok();
    assert!(report.loaded() > 0);
    assert_eq!(restored.cache_stats().loaded, report.loaded() as u64);
}

#[test]
fn drain_gives_half_received_requests_a_grace_to_finish() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        // A client that has sent only *part* of a request line when
        // the shutdown lands …
        let slow = TcpStream::connect(addr).expect("connect");
        let mut slow_writer = slow.try_clone().unwrap();
        let mut slow_reader = BufReader::new(slow);
        write!(slow_writer, r#"{{"id":7,"op":"pi"#).unwrap();
        slow_writer.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(120));

        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        let mut ack = String::new();
        BufReader::new(bye.try_clone().unwrap())
            .read_line(&mut ack)
            .unwrap();
        assert!(ack.contains(r#""shutdown":true"#));

        // … and completes it shortly after (well inside the drain
        // grace): the request must still be answered, not dropped.
        std::thread::sleep(std::time::Duration::from_millis(100));
        writeln!(slow_writer, r#"ng"}}"#).unwrap();
        slow_writer.flush().unwrap();
        let mut response = String::new();
        slow_reader.read_line(&mut response).expect("read");
        assert!(
            response.contains(r#""pong":true"#) && response.contains(r#""id":7"#),
            "half-received request must be served through the drain: {response:?}"
        );

        handle.join().expect("server thread").expect("clean exit");
    });
}

/// A small valid compile request with a distinctive reply.
const DRIBBLE_REQUEST: &str =
    r#"{"id":"dribble","op":"compile","source":"for (i = 0; i < 8; i++) { s += x[i] + y[i]; }"}"#;

/// Reads exactly one reply line from the stream.
fn one_reply(stream: &TcpStream) -> Json {
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone socket"))
        .read_line(&mut line)
        .expect("read reply");
    Json::parse(line.trim()).expect("reply is valid JSON")
}

/// Projects a reply onto its deterministic parts — id, ok, and the
/// report's `machine`/`units` subtrees — dropping wall-clock and
/// cumulative-cache fields that legitimately differ across requests.
fn stable(reply: &Json) -> Json {
    let report = reply.get("report");
    Json::Obj(vec![
        (
            "id".to_owned(),
            reply.get("id").cloned().unwrap_or(Json::Null),
        ),
        (
            "ok".to_owned(),
            reply.get("ok").cloned().unwrap_or(Json::Null),
        ),
        (
            "machine".to_owned(),
            report
                .and_then(|r| r.get("machine"))
                .cloned()
                .unwrap_or(Json::Null),
        ),
        (
            "units".to_owned(),
            report
                .and_then(|r| r.get("units"))
                .cloned()
                .unwrap_or(Json::Null),
        ),
    ])
}

#[test]
fn dribbled_tcp_writes_parse_identically_to_whole_line_writes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        let whole = {
            let mut stream = TcpStream::connect(addr).expect("connect");
            writeln!(stream, "{DRIBBLE_REQUEST}").unwrap();
            stream.flush().unwrap();
            one_reply(&stream)
        };
        assert!(ok(&whole), "baseline request compiles: {whole:?}");

        // Byte-at-a-time: every byte of the frame (newline included)
        // arrives in its own TCP segment.
        let dribbled = {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let framed = format!("{DRIBBLE_REQUEST}\n");
            for byte in framed.as_bytes() {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                stream.flush().unwrap();
            }
            one_reply(&stream)
        };

        // Split at an awkward mid-token boundary with a pause between
        // the halves, so the frame straddles two reads.
        let split = {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let framed = format!("{DRIBBLE_REQUEST}\n");
            let (head, tail) = framed.as_bytes().split_at(framed.len() / 2);
            stream.write_all(head).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(120));
            stream.write_all(tail).unwrap();
            stream.flush().unwrap();
            one_reply(&stream)
        };

        assert_eq!(
            stable(&dribbled),
            stable(&whole),
            "byte-at-a-time delivery must parse to the identical reply"
        );
        assert_eq!(
            stable(&split),
            stable(&whole),
            "a frame straddling two reads must parse to the identical reply"
        );

        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        bye.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&bye).read_line(&mut line).unwrap();
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn coalesced_tcp_frames_each_get_their_own_reply() {
    // The inverse of dribbling: several frames land in one segment.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = default_server();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_tcp(&listener));

        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let batch = format!(
                "{}\n{}\n{}\n",
                r#"{"op":"ping","id":1}"#, DRIBBLE_REQUEST, r#"{"op":"ping","id":2}"#
            );
            stream.write_all(batch.as_bytes()).unwrap();
            stream.flush().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let replies: Vec<Json> = reader
                .lines()
                .take(3)
                .map(|line| Json::parse(&line.expect("read")).expect("valid JSON"))
                .collect();
            assert_eq!(replies.len(), 3);
            assert!(
                replies.iter().all(ok),
                "all three frames served: {replies:?}"
            );
            assert_eq!(replies[0].get("id"), Some(&Json::Int(1)));
            assert_eq!(replies[2].get("id"), Some(&Json::Int(2)));
        }

        let mut bye = TcpStream::connect(addr).expect("connect");
        writeln!(bye, r#"{{"op":"shutdown"}}"#).unwrap();
        bye.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&bye).read_line(&mut line).unwrap();
        handle.join().expect("server thread").expect("clean exit");
    });
}

#[test]
fn one_connection_compiles_the_same_source_on_two_backends() {
    // The `machine` knob swaps the whole description per request: the
    // same source on `paper` and `saris` over one session must come
    // back with each machine's own parameters and costs, and switching
    // back must reproduce the first answer exactly.
    let server = default_server();
    let source = "for (i = 0; i < 32; i++) { s += x[i] + x[i + 3] + x[i + 7]; }";
    let script = format!(
        concat!(
            r#"{{"op":"compile","id":1,"source":"{s}","machine":"paper"}}"#,
            "\n",
            r#"{{"op":"compile","id":2,"source":"{s}","machine":"saris"}}"#,
            "\n",
            r#"{{"op":"compile","id":3,"source":"{s}","machine":"paper"}}"#,
            "\n",
        ),
        s = source
    );
    let responses = round_trip(&server, &script);
    assert_eq!(responses.len(), 3);
    assert!(responses.iter().all(ok), "{responses:?}");

    let machine = |r: &Json, field: &str| {
        r.get("report")
            .and_then(|r| r.get("machine"))
            .and_then(|m| m.get(field))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("machine.{field} missing: {r:?}"))
    };
    // paper: K=4, symmetric +/-1, no modify registers.
    assert_eq!(machine(&responses[0], "address_registers"), 4);
    assert_eq!(machine(&responses[0], "modify_registers"), 0);
    // saris: K=8, update range [0, 0], MR=8 -- every stride is streamed.
    assert_eq!(machine(&responses[1], "address_registers"), 8);
    assert_eq!(machine(&responses[1], "update_min"), 0);
    assert_eq!(machine(&responses[1], "update_max"), 0);
    assert_eq!(machine(&responses[1], "modify_registers"), 8);

    // Prediction equals measurement on both backends.
    for response in &responses {
        let units = response
            .get("report")
            .and_then(|r| r.get("units"))
            .expect("report.units");
        let Json::Arr(units) = units else {
            panic!("units is an array: {units:?}")
        };
        let loops = units[0].get("loops").expect("units[0].loops");
        let Json::Arr(loops) = loops else {
            panic!("loops is an array: {loops:?}")
        };
        for lp in loops {
            assert_eq!(
                lp.get("predicted_cycles"),
                lp.get("measured_cycles"),
                "{lp:?}"
            );
        }
    }

    // Flipping back to the first backend reproduces its answer exactly
    // (no cross-machine cache bleed within the session).
    assert_eq!(
        responses[0].get("report").and_then(|r| r.get("units")),
        responses[2].get("report").and_then(|r| r.get("units"))
    );
}
