//! An untraced run split over several processes.
//!
//! How fast the program runs depends on where its code and heap land in
//! the address space: the same warm compile reads ~45 µs in one process
//! and ~66 µs in the next, and building the cold pipelines ~1.1 or
//! ~2.1 µs; the spread shrinks to a few percent with address-space
//! randomisation off. One process samples one layout, so
//! an untraced run re-runs this benchmark [`PARTS`] times (hidden
//! argument [`PART`]), each for an equal share of `--seconds`, and
//! reports the mean over the parts of each timing. A mean, not a
//! median, because the layouts fall into a few speed clusters: the
//! median of a few draws jumps from one cluster to the next, while the
//! mean moves by the share of draws that changed cluster.
//!
//! Part 0 alone runs the checks that do not depend on the timed part
//! (the kernel fixture, the uncached and snapshot-loaded agreements);
//! every part checks every compile it times. A part's failures count in
//! the run's tally, and its messages go to standard error.

use std::process::{Command, Stdio};

use raco::driver::json::Json;

use crate::report::{Outcome, Tally, END_TO_END};
use crate::Args;

/// Processes an untraced run is split over.
pub const PARTS: usize = 8;

/// Hidden argument: `--part <k>` runs part `k` of an untraced run and
/// prints its result line for the parent.
pub const PART: &str = "--part";

/// How the parts' values of an end-to-end metric combine.
fn combine(metric: &str, values: &[f64]) -> Result<f64, String> {
    match metric {
        // Deterministic: every part compiles the same inputs.
        "address_cost_total" | "code_words_total" => {
            if values.iter().all(|&v| v == values[0]) {
                Ok(values[0])
            } else {
                Err(format!("{metric} differs between parts: {values:?}"))
            }
        }
        "peak_rss_mb" => Ok(values.iter().copied().fold(f64::NAN, f64::max)),
        _ => Ok(values.iter().sum::<f64>() / values.len() as f64),
    }
}

fn number(json: &Json) -> Option<f64> {
    match *json {
        Json::Num(n) => Some(n),
        Json::UInt(u) => Some(u as f64),
        Json::Int(i) => Some(i as f64),
        _ => None,
    }
}

/// The result line of one part: its tally and its end-to-end values.
fn run_part(args: &Args, part: usize) -> Result<(u64, u64, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds / PARTS as f64).to_string()])
        .args(["--trace", "0", PART, &part.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("part {part}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let parsed = match output.status.code() {
        Some(0 | 1) => Json::parse(line).ok(),
        _ => None,
    };
    let parsed = parsed.ok_or_else(|| format!("part {part} failed ({})", output.status))?;
    let field = |key: &str| parsed.get(key).and_then(Json::as_u64);
    let (Some(attempted), Some(failed)) = (field("attempted"), field("failed")) else {
        return Err(format!("part {part}: no tally in `{line}`"));
    };
    let metrics = parsed.get("metrics");
    let values = END_TO_END
        .iter()
        .map(|metric| {
            metrics
                .and_then(|m| m.get(metric.name))
                .and_then(|m| m.get("value"))
                .and_then(number)
                .ok_or_else(|| format!("part {part}: no {} in `{line}`", metric.name))
        })
        .collect::<Result<_, _>>()?;
    Ok((attempted, failed, values))
}

/// Runs the parts one after another and combines their results.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut values: Vec<Vec<f64>> = vec![Vec::with_capacity(PARTS); END_TO_END.len()];
    for part in 0..PARTS {
        let (attempted, failed, part_values) = run_part(args, part)?;
        tally.attempted += attempted;
        tally.failed += failed;
        for (all, value) in values.iter_mut().zip(part_values) {
            all.push(value);
        }
    }
    let mut combined = Vec::with_capacity(END_TO_END.len());
    for (metric, values) in END_TO_END.iter().zip(&values) {
        if metric.name == "ok_ratio" {
            continue;
        }
        match combine(metric.name, values) {
            Ok(value) => combined.push((metric.name, value)),
            Err(message) => {
                tally.record(Err(message));
                combined.push((metric.name, values[0]));
            }
        }
    }
    let mut out = Outcome::new(tally);
    for (name, value) in combined {
        out.set(name, value);
    }
    out.set("ok_ratio", out.tally.ok_ratio());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_average_and_code_totals_must_agree() {
        assert_eq!(
            combine("latency_p50_us", &[45.0, 66.0, 45.0, 44.0]),
            Ok(50.0)
        );
        assert_eq!(combine("peak_rss_mb", &[11.0, 12.5, 11.2]), Ok(12.5));
        assert_eq!(combine("code_words_total", &[7.0, 7.0]), Ok(7.0));
        assert!(combine("address_cost_total", &[7.0, 8.0]).is_err());
    }
}
