//! Shard workers: per-core pipelines behind a consistent-hash router.
//!
//! The serve tier splits one process-wide cache into N independent
//! shards, each owning its own [`Pipeline`] (and therefore its own
//! allocation cache) and a single worker thread. Requests are routed
//! by a consistent hash of the *canonical* cache key — the same
//! shift-normalized [`CanonicalPattern`] the allocation cache keys on,
//! computed from the loops the connection thread already lowered — so
//! every occurrence of a shape lands on the same shard: shard caches
//! stay hot and mutually disjoint instead of each shard slowly
//! re-deriving the whole working set.
//!
//! Every request runs the same way, whatever the shard count: through
//! its shard's bounded queue, with the connection thread waiting for
//! the reply. A full queue is load shedding, not backpressure: the
//! submitter gets [`ShedError`] immediately and answers the client with
//! an `ok:false` shed response, keeping tail latency bounded when
//! offered load exceeds capacity. Compute deadlines ride on the reply
//! channel: the connection thread waits on
//! [`std::sync::mpsc::Receiver::recv_timeout`] and walks away on expiry
//! — the worker finishes the compile anyway (warming the shard cache
//! for the retry) and its send lands in a dropped channel.
//!
//! [`CanonicalPattern`]: raco_ir::CanonicalPattern

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use raco_driver::{CacheStats, Pipeline, PipelineConfig};
use raco_ir::{CanonicalPattern, LoopSpec};
use raco_obs::Histogram;

/// How long an idle worker sleeps between stop-flag checks.
const WORKER_POLL: Duration = Duration::from_millis(50);

/// One unit of shard work: a closure run against the shard's pipeline.
/// The closure owns its inputs and its reply channel, so the worker
/// thread needs no lifetime tie to the submitting connection.
pub(crate) type Job = Box<dyn FnOnce(&Pipeline) + Send>;

/// A submit that found the shard's queue full. Carries what the error
/// response needs to say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShedError {
    /// Which shard refused.
    pub(crate) shard: usize,
    /// The queue bound that was hit.
    pub(crate) depth: usize,
}

/// One shard: a pipeline (with its own cache), a bounded job queue and
/// the counters the `metrics` op reports per shard.
pub(crate) struct Shard {
    /// Position in the shard set (stable across the server's life).
    pub(crate) index: usize,
    /// The shard's own pipeline; its allocation cache is the shard's
    /// slice of the working set.
    pub(crate) pipeline: Pipeline,
    /// Requests executed by this shard's worker.
    pub(crate) executed: AtomicU64,
    /// Per-shard compute latency (nanoseconds); the `metrics` op merges
    /// every shard's histogram into the aggregate via
    /// [`Histogram::merge_snapshot`].
    pub(crate) latency: Histogram,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    stop: AtomicBool,
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
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            depth,
        }
    }

    /// Enqueues one job, failing immediately when the queue is at its
    /// bound — the caller sheds the request rather than waiting.
    pub(crate) fn submit(&self, job: Job) -> Result<(), ShedError> {
        let mut queue = self.queue.lock().expect("shard queue poisoned");
        if queue.len() >= self.depth {
            return Err(ShedError {
                shard: self.index,
                depth: self.depth,
            });
        }
        queue.push_back(job);
        drop(queue);
        self.ready.notify_one();
        Ok(())
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("shard queue poisoned");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.stop.load(Ordering::Acquire) {
                        break None;
                    }
                    let (guard, _timeout) = self
                        .ready
                        .wait_timeout(queue, WORKER_POLL)
                        .expect("shard queue poisoned");
                    queue = guard;
                }
            };
            match job {
                Some(job) => {
                    // Counted *before* the job runs: a job's reply can
                    // release its client before the job closure fully
                    // unwinds, and a metrics read racing that window
                    // must still see the request.
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    self.latency.time(|| job(&self.pipeline));
                }
                None => return,
            }
        }
    }
}

/// The full shard set plus its worker threads, one per shard.
#[derive(Debug)]
pub(crate) struct ShardSet {
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardSet {
    /// Builds `count` shards, each with its own pipeline cloned from
    /// `config` and its own worker thread.
    pub(crate) fn new(config: &PipelineConfig, count: usize, depth: usize) -> Self {
        assert!(count >= 1, "a server needs at least one shard");
        let shards: Vec<Arc<Shard>> = (0..count)
            .map(|index| {
                Arc::new(Shard::new(
                    index,
                    Pipeline::with_config(config.clone()),
                    depth,
                ))
            })
            .collect();
        let workers = shards
            .iter()
            .map(|shard| {
                let shard = Arc::clone(shard);
                std::thread::Builder::new()
                    .name(format!("raco-shard-{}", shard.index))
                    .spawn(move || shard.worker_loop())
                    .expect("spawn shard worker")
            })
            .collect();
        ShardSet { shards, workers }
    }

    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The shard a route key consistently maps to.
    pub(crate) fn route(&self, key: u64) -> &Arc<Shard> {
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

impl Drop for ShardSet {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.stop.store(true, Ordering::Release);
        }
        for shard in &self.shards {
            shard.ready.notify_one();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
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
    use raco_driver::ParsedBatch;
    use raco_ir::AguSpec;
    use std::sync::mpsc;

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
    fn submit_sheds_when_the_queue_is_full() {
        let set = ShardSet::new(&config(), 1, 1);
        let shard = &set.shards()[0];
        // Park the worker on a job that waits for permission to finish,
        // then fill the queue behind it.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        shard
            .submit(Box::new(move |_| {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }))
            .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker picks up the first job");
        shard
            .submit(Box::new(|_| {}))
            .expect("queue has room for 1");
        let shed = shard.submit(Box::new(|_| {})).expect_err("queue is full");
        assert_eq!(shed, ShedError { shard: 0, depth: 1 });
        release_tx.send(()).unwrap();
    }

    #[test]
    fn workers_execute_jobs_and_count_them() {
        let set = ShardSet::new(&config(), 2, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..8u64 {
            let tx = tx.clone();
            set.route(i)
                .submit(Box::new(move |_| tx.send(i).unwrap()))
                .unwrap();
        }
        drop(tx);
        let mut seen: Vec<u64> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        let executed: u64 = set
            .shards()
            .iter()
            .map(|s| s.executed.load(Ordering::Relaxed))
            .sum();
        assert_eq!(executed, 8);
    }
}
