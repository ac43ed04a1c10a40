//! Per-worker recycling arena for hot-path world state.
//!
//! A corpus sweep builds and tears down one `World` per task — and every
//! construction used to pay dozens of heap allocations: the event queue's
//! heap, slab and free list, the packet trace, the recovery/fault
//! bookkeeping vectors. [`WorkerArena`] is the antidote: each sweep
//! worker owns one arena (see `SweepRunner::run_indexed_with`),
//! lends containers to the world under construction, and takes them back —
//! cleared but with capacity intact — when the run finishes. After the
//! first task on a worker, world construction is a handful of pool pops
//! instead of fresh allocations, and container capacity converges to the
//! high-water mark of the tasks that worker claims.
//!
//! The crate forbids `unsafe`, so this is a *typed recycling* arena, not a
//! raw bump allocator: values are stored as `Box<dyn Any>` keyed by their
//! `TypeId`, and [`Recycle::recycle`] defines what "cleared" means for
//! each type (always: empty contents, retained capacity).
//!
//! # Determinism
//!
//! An arena is *only* capacity: every [`take`](WorkerArena::take) returns
//! a value indistinguishable from [`Recycle::fresh`] except for reserved
//! memory, so results never depend on which tasks a worker ran earlier.
//! This is the per-worker state rule of `SweepRunner::run_indexed_with`,
//! and the parity suites (`sweep_equivalence`, `realization_parity`) pin
//! it end to end.

use std::any::{Any, TypeId};
use std::collections::HashMap;

/// A container the arena can pool: constructible empty, clearable back to
/// empty while keeping its allocation.
pub trait Recycle: Any {
    /// A brand-new empty value (what a pool miss returns).
    fn fresh() -> Self
    where
        Self: Sized;
    /// Clear all contents, keeping allocated capacity. Called by
    /// [`WorkerArena::put`] before the value enters the pool, so pooled
    /// values never carry state between runs.
    fn recycle(&mut self);
}

impl<T: 'static> Recycle for Vec<T> {
    fn fresh() -> Self {
        Vec::new()
    }
    fn recycle(&mut self) {
        self.clear();
    }
}

impl<T: 'static> Recycle for std::collections::VecDeque<T> {
    fn fresh() -> Self {
        std::collections::VecDeque::new()
    }
    fn recycle(&mut self) {
        self.clear();
    }
}

/// Counters describing how well the arena is working: `takes` split into
/// pool `hits` vs fresh constructions, and `puts` returned to the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Values handed out by [`WorkerArena::take`].
    pub takes: u64,
    /// Takes served from the pool (capacity reused).
    pub hits: u64,
    /// Values returned via [`WorkerArena::put`].
    pub puts: u64,
}

/// A per-worker pool of recycled containers, keyed by type.
///
/// Not `Sync` on purpose: one arena belongs to one sweep worker. See the [module docs](self) for the determinism
/// contract.
#[derive(Debug, Default)]
pub struct WorkerArena {
    pools: HashMap<TypeId, Vec<Box<dyn Any>>>,
    stats: ArenaStats,
}

impl WorkerArena {
    /// An empty arena (no allocation until the first [`put`](Self::put)).
    pub fn new() -> WorkerArena {
        WorkerArena::default()
    }

    /// Take a `T` out of the pool — recycled capacity if one is pooled,
    /// [`Recycle::fresh`] otherwise.
    pub fn take<T: Recycle>(&mut self) -> T {
        self.stats.takes += 1;
        if let Some(pool) = self.pools.get_mut(&TypeId::of::<T>()) {
            if let Some(boxed) = pool.pop() {
                self.stats.hits += 1;
                return *boxed.downcast::<T>().expect("arena pool keyed by TypeId");
            }
        }
        T::fresh()
    }

    /// Return a value to the pool for the next run. The value is
    /// recycled (emptied, capacity kept) before it is stored.
    pub fn put<T: Recycle>(&mut self, mut value: T) {
        value.recycle();
        self.stats.puts += 1;
        self.pools.entry(TypeId::of::<T>()).or_default().push(Box::new(value));
    }

    /// Usage counters since construction.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of values currently pooled, across all types.
    pub fn pooled(&self) -> usize {
        self.pools.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_miss_then_hit_reuses_capacity() {
        let mut a = WorkerArena::new();
        let v: Vec<u64> = a.take();
        assert!(v.is_empty() && v.capacity() == 0);
        let mut v = v;
        v.extend(0..100);
        let cap = v.capacity();
        a.put(v);
        assert_eq!(a.pooled(), 1);
        let v2: Vec<u64> = a.take();
        assert!(v2.is_empty(), "recycled values must come back empty");
        assert_eq!(v2.capacity(), cap, "recycled values keep their capacity");
        assert_eq!(a.stats(), ArenaStats { takes: 2, hits: 1, puts: 1 });
        assert_eq!(a.pooled(), 0);
    }

    #[test]
    fn pools_are_typed() {
        let mut a = WorkerArena::new();
        let mut v: Vec<u64> = Vec::with_capacity(8);
        v.push(1);
        a.put(v);
        // A different element type misses the u64 pool.
        let w: Vec<f64> = a.take();
        assert_eq!(w.capacity(), 0);
        let v: Vec<u64> = a.take();
        assert!(v.capacity() >= 8);
    }

    #[test]
    fn vecdeque_pools() {
        use std::collections::VecDeque;
        let mut a = WorkerArena::new();
        let mut d: VecDeque<u32> = VecDeque::new();
        d.extend(0..32);
        a.put(d);
        let d: VecDeque<u32> = a.take();
        assert!(d.is_empty() && d.capacity() >= 32);
    }
}
