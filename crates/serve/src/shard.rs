//! Shards: per-core pipelines behind a consistent-hash router.
//!
//! The serve tier splits one process-wide cache into N independent
//! shards, each owning its own [`Pipeline`] (and therefore its own
//! allocation cache) and a *turn*: a mutex that lets one compile run on
//! the shard at a time. Requests are routed by a consistent hash of the
//! *canonical* cache key — the same shift-normalized
//! [`CanonicalPattern`] the allocation cache keys on, computed from the
//! loops the connection thread already lowered — so every occurrence of
//! a shape lands on the same shard: shard caches stay hot and mutually
//! disjoint instead of each shard slowly re-deriving the whole working
//! set.
//!
//! A shard is a lock, not a thread. The connection thread that routed a
//! request takes the shard's turn and compiles on the shard's pipeline
//! itself, so a request never crosses threads. The pipeline is `Sync`
//! and stays outside the turn: `stats`, `metrics`, `clear_cache` and
//! `save_cache` read it without waiting behind a compile. The turn
//! bounds its waiters, not the compile holding it: an arrival that
//! finds `depth` requests already waiting gets [`ShedError`] at once and
//! answers the client with an `ok:false` shed response, keeping tail
//! latency bounded when offered load exceeds capacity.
//!
//! [`CanonicalPattern`]: raco_ir::CanonicalPattern

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use raco_driver::{CacheStats, CompilationReport, ParsedBatch, Pipeline, PipelineConfig};
use raco_ir::{CanonicalPattern, LoopSpec};
use raco_obs::Histogram;

/// An arrival that found its shard's waiter bound reached. Carries what
/// the error response needs to say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShedError {
    /// Which shard refused.
    pub(crate) shard: usize,
    /// The waiter bound that was hit.
    pub(crate) depth: usize,
}

/// One shard: a pipeline (with its own cache), the turn that serializes
/// its compiles, and the counters the `metrics` op reports per shard.
pub(crate) struct Shard {
    /// Position in the shard set (stable across the server's life).
    pub(crate) index: usize,
    /// The shard's own pipeline; its allocation cache is the shard's
    /// slice of the working set.
    pub(crate) pipeline: Pipeline,
    /// Requests compiled on this shard.
    pub(crate) executed: AtomicU64,
    /// Per-shard compute latency (nanoseconds); the `metrics` op merges
    /// every shard's histogram into the aggregate via
    /// [`Histogram::merge_snapshot`].
    pub(crate) latency: Histogram,
    /// Requests waiting for the turn, not counting the one holding it.
    /// A count only: it publishes no other data.
    pub(crate) waiters: AtomicUsize,
    /// Held by the compile running on this shard. It guards no data,
    /// only the right to compile.
    turn: Mutex<()>,
    depth: usize,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("index", &self.index)
            .field("executed", &self.executed)
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

impl Shard {
    fn new(index: usize, pipeline: Pipeline, depth: usize) -> Self {
        Shard {
            index,
            pipeline,
            executed: AtomicU64::new(0),
            latency: Histogram::new(),
            waiters: AtomicUsize::new(0),
            turn: Mutex::new(()),
            depth,
        }
    }

    /// Waits for this shard's turn. Fails at once, without waiting, when
    /// `depth` requests already wait — the caller sheds the request.
    pub(crate) fn turn(&self) -> Result<MutexGuard<'_, ()>, ShedError> {
        self.waiters
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |waiting| {
                (waiting < self.depth).then_some(waiting + 1)
            })
            .map_err(|_| ShedError {
                shard: self.index,
                depth: self.depth,
            })?;
        // A compile that panicked poisons the turn; it guards no data,
        // so the next request may take it all the same.
        let turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        Ok(turn)
    }

    /// Compiles one batch on this shard's pipeline, counting and timing
    /// it. The caller holds the shard's [`turn`](Self::turn).
    pub(crate) fn compile(&self, config: &PipelineConfig, batch: ParsedBatch) -> CompilationReport {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.latency
            .time(|| self.pipeline.compile_batch_with(config, batch))
    }
}

/// The full shard set.
#[derive(Debug)]
pub(crate) struct ShardSet {
    shards: Vec<Shard>,
}

impl ShardSet {
    /// Builds `count` shards, each with its own pipeline cloned from
    /// `config` and a turn admitting at most `depth` waiters.
    pub(crate) fn new(config: &PipelineConfig, count: usize, depth: usize) -> Self {
        assert!(count >= 1, "a server needs at least one shard");
        let shards = (0..count)
            .map(|index| Shard::new(index, Pipeline::with_config(config.clone()), depth))
            .collect();
        ShardSet { shards }
    }

    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard a route key consistently maps to.
    pub(crate) fn route(&self, key: u64) -> &Shard {
        &self.shards[jump_hash(key, self.shards.len())]
    }

    /// Shard 0's pipeline: the compatibility handle for callers that
    /// predate sharding (`Server::pipeline()`).
    pub(crate) fn first_pipeline(&self) -> &Pipeline {
        &self.shards[0].pipeline
    }

    /// Cache statistics folded across every shard.
    pub(crate) fn aggregate_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.absorb(&shard.pipeline.cache_stats());
        }
        total
    }
}

/// Jump consistent hash (Lamping & Veach): maps `key` to a bucket in
/// `[0, buckets)` such that growing the bucket count moves only
/// `1/buckets` of the keyspace. Dependency-free and allocation-free —
/// the route decision costs a few multiplies.
pub(crate) fn jump_hash(mut key: u64, buckets: usize) -> usize {
    debug_assert!(buckets >= 1);
    let mut bucket: i64 = -1;
    let mut next: i64 = 0;
    while next < buckets as i64 {
        bucket = next;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        next = ((bucket.wrapping_add(1) as f64) * ((1u64 << 31) as f64)
            / (((key >> 33).wrapping_add(1)) as f64)) as i64;
    }
    bucket as usize
}

/// 64-bit FNV-1a over a byte slice (the route key's mixing primitive).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn mix(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The machine/options part of a route key: requests for different
/// machines key differently (their cache entries are disjoint anyway),
/// so mixed-machine traffic spreads across shards even for one shape.
fn machine_key(config: &PipelineConfig) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    // The whole spec, not a field subset: machines differing only in
    // update-range shape or cost table must route (and cache)
    // separately.
    config.agu.hash(&mut hasher);
    config.effective_options().hash(&mut hasher);
    hasher.finish()
}

/// The consistent-hash route key for a `compile` request's lowered
/// loops: the FNV fold of every loop's canonical pattern fingerprints
/// (the allocation cache's own key material), in source order, mixed
/// with the machine key.
pub(crate) fn compile_route_key<'a>(
    specs: impl IntoIterator<Item = &'a LoopSpec>,
    config: &PipelineConfig,
) -> u64 {
    let mut key = machine_key(config);
    for spec in specs {
        for pattern in spec.patterns() {
            key = mix(key, CanonicalPattern::of(&pattern).fingerprint());
        }
    }
    key
}

/// The route key for a `kernels` request: the named kernel (or the
/// whole suite) under the requested machine.
pub(crate) fn kernels_route_key(kernel: Option<&str>, config: &PipelineConfig) -> u64 {
    mix(
        machine_key(config),
        fnv1a(kernel.unwrap_or("__suite__").as_bytes()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_ir::AguSpec;

    fn config() -> PipelineConfig {
        PipelineConfig::new(AguSpec::new(4, 1).unwrap())
    }

    #[test]
    fn jump_hash_is_stable_and_in_range() {
        for buckets in 1..9 {
            for key in 0..256u64 {
                let bucket = jump_hash(key, buckets);
                assert!(bucket < buckets);
                assert_eq!(bucket, jump_hash(key, buckets), "deterministic");
            }
        }
        // Growing the bucket count only moves keys *to the new bucket*:
        // every key either stays put or lands on the added shard.
        for key in 0..4096u64 {
            let before = jump_hash(key, 4);
            let after = jump_hash(key, 5);
            assert!(after == before || after == 4, "{key}: {before} -> {after}");
        }
    }

    #[test]
    fn jump_hash_spreads_keys_over_buckets() {
        let buckets = 8;
        let mut counts = vec![0u32; buckets];
        for key in 0..8000u64 {
            counts[jump_hash(key.wrapping_mul(0x9e37_79b9_7f4a_7c15), buckets)] += 1;
        }
        for (bucket, &count) in counts.iter().enumerate() {
            assert!(
                (500..1500).contains(&count),
                "bucket {bucket} holds {count} of 8000 keys"
            );
        }
    }

    /// The route key of `source` as the server computes it: on the
    /// driver's parse step output.
    fn route_key(source: &str, config: &PipelineConfig) -> u64 {
        let batch = ParsedBatch::parse(&[("u".to_owned(), source.to_owned())]).unwrap();
        compile_route_key(batch.specs(), config)
    }

    #[test]
    fn shifted_sources_share_a_route_key() {
        let config = config();
        // Same shape, shifted base offsets: identical canonical form.
        let a = route_key(
            "for (i = 0; i < 64; i++) { y[i] = x[i] + x[i+1]; }",
            &config,
        );
        let b = route_key(
            "for (i = 7; i < 71; i++) { y[i] = x[i] + x[i+1]; }",
            &config,
        );
        assert_eq!(a, b, "canonical keying ignores the shift");
        // A different shape keys differently.
        let c = route_key(
            "for (i = 0; i < 64; i++) { y[i] = x[i] + x[i+5]; }",
            &config,
        );
        assert_ne!(a, c);
        // And so does a different machine.
        let other = PipelineConfig::new(AguSpec::new(2, 1).unwrap());
        assert_ne!(
            a,
            route_key("for (i = 0; i < 64; i++) { y[i] = x[i] + x[i+1]; }", &other)
        );
    }

    #[test]
    fn a_panicked_compile_does_not_block_its_shard() {
        let set = ShardSet::new(&config(), 1, 1);
        let shard = &set.shards()[0];
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _turn = shard.turn().unwrap();
                    panic!("a compile panics while holding the turn");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(shard.turn().is_ok(), "the poisoned turn is taken again");
        assert_eq!(shard.waiters.load(Ordering::Relaxed), 0);
    }
}
