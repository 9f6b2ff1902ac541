//! Dependency-free observability primitives for the raco workspace.
//!
//! The crate provides four building blocks:
//!
//! * [`Counter`] / [`Gauge`] — lock-free monotonic counters and signed
//!   gauges backed by atomics.
//! * [`Histogram`] — a fixed log2-bucket latency histogram with exact
//!   `count`/`sum`/`max` and p50/p95/p99 estimation via linear
//!   interpolation inside the matched bucket.
//! * [`Registry`] — a named collection of the above. A process-wide
//!   instance is available through [`global()`]; per-component instances
//!   (e.g. one per server) are plain `Registry::new()` values.
//! * [`SpanTimer`] / [`span!`] — RAII timers that record elapsed wall
//!   time into a named histogram on drop.
//!
//! All durations are recorded in **nanoseconds**; presentation layers
//! convert to microseconds when rendering.
//!
//! # Example
//!
//! ```
//! let registry = raco_obs::Registry::new();
//! {
//!     let _span = raco_obs::span!(&registry, "phase2");
//!     // ... timed work ...
//! } // drop records the elapsed nanoseconds into histogram "phase2"
//! let snapshot = registry.histogram("phase2").snapshot();
//! assert_eq!(snapshot.count, 1);
//! assert!(snapshot.sum > 0);
//! ```

mod histogram;
mod metrics;
mod registry;
mod span;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::Registry;
pub use span::SpanTimer;

static GLOBAL: Registry = Registry::new();

/// The process-wide metrics registry.
///
/// Pipeline stages record here so that long-lived consumers (the serve
/// tier's `metrics` op, `--timings` tables) can read accumulated totals
/// without threading a registry handle through every call site.
///
/// ```
/// raco_obs::global().counter("doc.example").inc();
/// assert!(raco_obs::global().counter("doc.example").get() >= 1);
/// ```
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Starts a [`SpanTimer`] recording into a named histogram on drop.
///
/// With one argument the histogram is resolved in the [`global()`]
/// registry; with two, in the given registry.
///
/// ```
/// let registry = raco_obs::Registry::new();
/// let span = raco_obs::span!(&registry, "stage");
/// drop(span);
/// assert_eq!(registry.histogram("stage").snapshot().count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().time($name)
    };
    ($registry:expr, $name:expr) => {
        ($registry).time($name)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_is_shared() {
        super::global().counter("lib.shared").add(2);
        assert!(super::global().counter("lib.shared").get() >= 2);
    }

    #[test]
    fn span_macro_records_into_global() {
        {
            let _span = crate::span!("lib.span_macro");
        }
        assert!(super::global().histogram("lib.span_macro").snapshot().count >= 1);
    }
}
