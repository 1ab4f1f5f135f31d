//! Per-worker scratch memory for the mining engine.
//!
//! The plan interpreter materializes one candidate set per scheduled set
//! operation per DFS level. Allocating a fresh `Vec` for each of those —
//! once per partial embedding — dominated the seed executor's runtime on
//! allocation-heavy workloads. [`ScratchArena`] recycles those buffers: a
//! DFS unwind returns each buffer to the pool, and the next descent takes
//! it back (with its capacity intact), so steady-state mining performs no
//! per-embedding heap allocation. Tests assert this via [`ScratchArena::fresh_buffers`].
//!
//! [`BitmapCache`] extends the same no-per-embedding-allocation discipline
//! to the dense-bitmap kernel tier: a bounded LRU of hub-adjacency
//! bitmaps, owned by one worker, reused across tasks and DFS levels.
//! Backing word storage is recycled on eviction, so the number of bitmap
//! allocations is bounded by the cache capacity — never by the number of
//! embeddings or even the number of cache misses.

use std::sync::Arc;

use fingers_graph::{hubs, CsrGraph, VertexId};
use fingers_setops::bitmap::NeighborBitmap;
use fingers_setops::Elem;

use crate::chaos::Chaos;

/// A pool of reusable candidate-set buffers owned by one mining worker.
///
/// Not shared across threads: each parallel worker owns its own arena, so
/// there is no synchronization on the hot path.
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: Vec<Vec<Elem>>,
    fresh: usize,
    /// Retained capacity of the pooled buffers, in bytes. Updated with
    /// plain arithmetic at take/recycle; exact whenever every buffer is
    /// back in the pool — i.e. at the root-task boundaries where the
    /// memory governor reads it (in-flight growth shows up at the next
    /// recycle).
    bytes: u64,
    /// The owning run's fault injector, probed on fresh allocations.
    pub(crate) chaos: Option<Arc<Chaos>>,
}

impl ScratchArena {
    /// An empty arena; buffers are created on demand and recycled forever.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer from the pool, creating one only if the pool
    /// is empty. Recycled buffers keep their capacity, so after warm-up no
    /// call allocates.
    pub fn take(&mut self) -> Vec<Elem> {
        match self.free.pop() {
            Some(mut buf) => {
                self.bytes = self
                    .bytes
                    .saturating_sub((buf.capacity() * std::mem::size_of::<Elem>()) as u64);
                buf.clear();
                buf
            }
            None => {
                self.fresh += 1;
                if let Some(chaos) = &self.chaos {
                    chaos.maybe_fail_alloc("scratch arena buffer");
                }
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn recycle(&mut self, buf: Vec<Elem>) {
        self.bytes += (buf.capacity() * std::mem::size_of::<Elem>()) as u64;
        self.free.push(buf);
    }

    /// How many buffers [`take`](Self::take) had to create because the pool
    /// was empty. Bounded by the plan's maximum number of simultaneously
    /// live sets (≈ total scheduled ops), *not* by the number of embeddings
    /// — the no-per-embedding-allocation property the engine guarantees.
    pub fn fresh_buffers(&self) -> usize {
        self.fresh
    }

    /// Buffers currently sitting in the pool.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Retained pooled capacity in bytes (see the field note: exact at
    /// root-task boundaries, where the memory governor polls it).
    pub fn footprint_bytes(&self) -> u64 {
        self.bytes
    }
}

/// One resident entry of a [`BitmapCache`].
#[derive(Debug)]
struct CacheSlot {
    vertex: VertexId,
    /// Logical timestamp of the last hit (monotone per-cache counter —
    /// deterministic, unlike wall-clock LRU).
    stamp: u64,
    bitmap: NeighborBitmap,
}

/// A bounded per-worker LRU cache of hub-adjacency bitmaps.
///
/// Not shared across threads (like [`ScratchArena`]): each parallel worker
/// owns one, so hits are plain field reads with no synchronization. The
/// cache is *lazy* — a hub's bitmap is only built the first time its
/// adjacency is actually used as a long operand — and eviction recycles
/// the word storage, so at most `capacity` bitmap allocations ever happen
/// regardless of how many hubs rotate through.
///
/// Cache state never affects results: the bitmap kernels are bit-identical
/// to the merge kernels, so hit/miss patterns (which do vary with task
/// scheduling) change only timing.
#[derive(Debug)]
pub struct BitmapCache {
    slots: Vec<CacheSlot>,
    capacity: usize,
    clock: u64,
    hits: u64,
    builds: u64,
    fresh: usize,
    free: Vec<NeighborBitmap>,
    /// Dense vertex → slot map (`slot + 1`; 0 = not resident), lazily sized
    /// to the graph's vertex count. Makes the hit path — the one taken once
    /// per dispatched set operation — O(1) instead of a slot scan, so large
    /// caches cost no more per hit than small ones.
    index: Vec<u32>,
    /// Heap bytes retained by the cache: resident + recycled bitmap word
    /// storage plus the residency index. Charged when storage is freshly
    /// allocated (eviction recycles storage, so nothing changes hands) —
    /// cheap and exact, because bitmap sizes are fixed by the universe.
    bytes: u64,
    /// The owning run's fault injector, probed on fresh allocations.
    pub(crate) chaos: Option<Arc<Chaos>>,
}

impl BitmapCache {
    /// A cache holding at most `capacity` resident bitmaps (clamped to at
    /// least 1 — a zero-slot cache could satisfy no request).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            builds: 0,
            fresh: 0,
            free: Vec::new(),
            index: Vec::new(),
            bytes: 0,
            chaos: None,
        }
    }

    /// Returns the dense bitmap of `N(v)`, building (and caching) it on
    /// first use. On a full cache the least-recently-used slot is evicted
    /// and its storage reused for the new bitmap. Hits are O(1); misses pay
    /// an O(capacity) LRU scan plus the O(universe/64) rebuild — rare after
    /// warm-up because hub working sets are small and stable.
    pub fn get_or_build(&mut self, graph: &CsrGraph, v: VertexId) -> &NeighborBitmap {
        self.clock += 1;
        if self.index.len() < graph.vertex_count() {
            self.bytes +=
                ((graph.vertex_count() - self.index.len()) * std::mem::size_of::<u32>()) as u64;
            self.index.resize(graph.vertex_count(), 0);
        }
        let mapped = self.index[v as usize];
        if mapped != 0 {
            let i = (mapped - 1) as usize;
            self.hits += 1;
            self.slots[i].stamp = self.clock;
            return &self.slots[i].bitmap;
        }
        self.builds += 1;
        if self.slots.len() == self.capacity {
            // §11: this branch requires slots.len() == capacity, and a
            // zero-capacity cache never reaches it (get() short-circuits),
            // so the min is over a non-empty set; None is a cache bug.
            #[allow(clippy::expect_used)] // §11: justified above
            let lru = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
                .expect("capacity >= 1");
            let evicted = self.slots.swap_remove(lru);
            self.index[evicted.vertex as usize] = 0;
            if let Some(moved) = self.slots.get(lru) {
                self.index[moved.vertex as usize] = lru as u32 + 1;
            }
            self.free.push(evicted.bitmap);
        }
        let mut bitmap = match self.free.pop() {
            Some(b) => b,
            None => {
                self.fresh += 1;
                if let Some(chaos) = &self.chaos {
                    chaos.maybe_fail_alloc("hub-adjacency bitmap");
                }
                self.bytes += (NeighborBitmap::words_for(graph.vertex_count())
                    * std::mem::size_of::<u64>()) as u64;
                NeighborBitmap::new(graph.vertex_count())
            }
        };
        hubs::refill_neighbor_bitmap(graph, v, &mut bitmap);
        self.slots.push(CacheSlot {
            vertex: v,
            stamp: self.clock,
            bitmap,
        });
        self.index[v as usize] = self.slots.len() as u32;
        // §11: the slot was pushed two statements above, on this same
        // &mut self borrow; `last()` returning None is impossible.
        #[allow(clippy::expect_used)]
        {
            &self.slots.last().expect("just pushed").bitmap
        }
    }

    /// Lookups served from a resident bitmap.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Bitmap (re)builds — cache misses, whether or not they allocated.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Backing-storage allocations. Bounded by the cache capacity (evicted
    /// storage is recycled), *not* by misses or embeddings — the bitmap
    /// half of the engine's no-per-embedding-allocation property.
    pub fn fresh_bitmaps(&self) -> usize {
        self.fresh
    }

    /// Bitmaps currently resident.
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes retained by the cache (bitmap storage, resident or
    /// recycled, plus the residency index).
    pub fn footprint_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingers_graph::GraphBuilder;

    #[test]
    fn recycled_buffers_keep_capacity_and_are_cleared() {
        let mut arena = ScratchArena::new();
        let mut a = arena.take();
        a.extend_from_slice(&[1, 2, 3, 4]);
        let cap = a.capacity();
        arena.recycle(a);
        let b = arena.take();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(arena.fresh_buffers(), 1);
    }

    #[test]
    fn fresh_count_tracks_pool_misses_only() {
        let mut arena = ScratchArena::new();
        let a = arena.take();
        let b = arena.take();
        assert_eq!(arena.fresh_buffers(), 2);
        arena.recycle(a);
        arena.recycle(b);
        for _ in 0..100 {
            let buf = arena.take();
            arena.recycle(buf);
        }
        assert_eq!(arena.fresh_buffers(), 2, "reuse must not create buffers");
        assert_eq!(arena.pooled(), 2);
    }

    fn path_graph(n: u32) -> CsrGraph {
        GraphBuilder::new()
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .build()
    }

    #[test]
    fn cache_hits_after_first_build() {
        let g = path_graph(10);
        let mut cache = BitmapCache::new(4);
        let first: Vec<_> = cache.get_or_build(&g, 3).iter_ones().collect();
        assert_eq!(first, g.neighbors(3));
        assert_eq!((cache.builds(), cache.hits()), (1, 0));
        let again: Vec<_> = cache.get_or_build(&g, 3).iter_ones().collect();
        assert_eq!(again, first);
        assert_eq!((cache.builds(), cache.hits()), (1, 1));
        assert_eq!(cache.fresh_bitmaps(), 1);
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn eviction_recycles_storage_and_is_lru() {
        let g = path_graph(12);
        let mut cache = BitmapCache::new(2);
        cache.get_or_build(&g, 1);
        cache.get_or_build(&g, 2);
        cache.get_or_build(&g, 1); // refresh 1 → LRU is now 2
        cache.get_or_build(&g, 3); // evicts 2, reuses its storage
        assert_eq!(cache.fresh_bitmaps(), 2, "third build must reuse storage");
        assert_eq!(cache.resident(), 2);
        // 1 was refreshed, so it must still be resident (a hit, not a build).
        let builds = cache.builds();
        cache.get_or_build(&g, 1);
        assert_eq!(cache.builds(), builds, "LRU evicted the wrong entry");
        // 2 was evicted: asking again rebuilds, but still allocates nothing.
        cache.get_or_build(&g, 2);
        assert_eq!(cache.builds(), builds + 1);
        assert_eq!(cache.fresh_bitmaps(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let g = path_graph(4);
        let mut cache = BitmapCache::new(0);
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.get_or_build(&g, 1).count_ones(), 2);
    }

    #[test]
    fn allocations_bounded_by_capacity_under_churn() {
        let g = path_graph(40);
        let mut cache = BitmapCache::new(3);
        for round in 0..5u32 {
            for v in 0..30u32 {
                cache.get_or_build(&g, (v + round) % 30);
            }
        }
        assert_eq!(cache.fresh_bitmaps(), 3, "churn must not allocate");
        assert_eq!(cache.resident(), 3);
    }
}
