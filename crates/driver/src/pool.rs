//! A small scoped worker pool (rayon-style fan-out over std threads).
//!
//! The pipeline's unit of work is one loop; loops are independent
//! allocation problems, so batch compilation is embarrassingly
//! parallel. The pool hands out work items through an atomic cursor
//! (work stealing degenerates to work *taking* — items are uniform
//! enough that a shared cursor beats per-thread deques) and preserves
//! input order in the result vector.
//!
//! Implemented on `std::thread::scope` so borrowed work items need no
//! `'static` bound and the crate stays dependency-free.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The number of hardware threads this process may run on, read once
/// per process (1 if the platform cannot tell).
///
/// The query is not free — on Linux it reads cgroup quota files — so it
/// must never run per compile. The first caller pays it; every later
/// call is a load.
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Degree of parallelism for a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per hardware thread (the default). The count is
    /// [`hardware_threads`], read once per process: a CPU quota changed
    /// while the process runs is not seen.
    #[default]
    Auto,
    /// Exactly this many workers (clamped to at least one).
    Fixed(usize),
    /// No worker threads: run on the calling thread. Useful for
    /// debugging and for deterministic profiling.
    Sequential,
}

impl Parallelism {
    /// Resolves to a concrete worker count for `items` work items.
    pub fn resolve(self, items: usize) -> usize {
        let workers = match self {
            Parallelism::Auto => hardware_threads(),
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Sequential => 1,
        };
        workers.min(items.max(1))
    }
}

/// Maps `f` over `items` on `workers` threads (one or fewer runs on the
/// calling thread), preserving order. Callers size `workers` with
/// [`Parallelism::resolve`], once per batch.
///
/// `f` must be `Sync` because multiple workers call it concurrently;
/// results are written into per-index slots, so no ordering games are
/// needed. Panics in `f` propagate to the caller (the scope joins all
/// workers first).
pub fn map_parallel<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slot_refs: Vec<std::sync::Mutex<&mut Option<R>>> =
        slots.iter_mut().map(std::sync::Mutex::new).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= items.len() {
                    break;
                }
                let result = f(index, &items[index]);
                // Each index is claimed exactly once, so the lock is
                // uncontended; it exists to satisfy aliasing rules.
                **slot_refs[index].lock().expect("slot lock poisoned") = Some(result);
            });
        }
    });

    drop(slot_refs);
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let doubled = map_parallel(8, &items, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<i64> = (-50..50).collect();
        let seq = map_parallel(1, &items, |i, &x| x + i as i64);
        let par = map_parallel(4, &items, |i, &x| x + i as i64);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let workers = Parallelism::Auto.resolve(items.len());
        let _ = map_parallel(workers, &items, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn resolve_clamps_to_item_count() {
        assert_eq!(Parallelism::Fixed(64).resolve(3), 3);
        assert_eq!(Parallelism::Fixed(0).resolve(9), 1);
        assert_eq!(Parallelism::Sequential.resolve(100), 1);
        assert!(Parallelism::Auto.resolve(10_000) >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn auto_resolves_to_the_cached_hardware_count() {
        let hw = hardware_threads();
        assert!(hw >= 1);
        assert_eq!(hardware_threads(), hw, "read once, stable afterwards");
        assert_eq!(Parallelism::Auto.resolve(usize::MAX), hw);
        assert_eq!(Parallelism::Auto.resolve(1), 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = map_parallel(4, &[] as &[u8], |_, &x| x);
        assert!(out.is_empty());
    }
}
