//! A sharded, O(1)-eviction LRU block cache over any [`Storage`] backend.
//!
//! The paper motivates black-box (RL) modeling partly because components
//! such as memory caches defeat white-box formulas (§1.2). This cache is
//! built to *serve*, not just to exist for that experiment:
//!
//! * **Sharded locking** — the capacity is split across K independently
//!   locked LRU segments, keyed by a hash of `(extent, page)`, so
//!   concurrent readers on different pages contend on different locks
//!   instead of one global mutex.
//! * **O(1) eviction** — each segment keeps an intrusive doubly-linked
//!   recency list over a slab plus a `HashMap` from page key to slot:
//!   hit, insert, and evict are all constant-time (the seed cache's
//!   min-scan over every resident page is gone).
//! * **Bounded memory** — each slot owns one page frame, allocated with
//!   page-size capacity the first time the slot is created and refilled
//!   in place by every later insert (one copy, no allocation). Slots freed
//!   by eviction or invalidation keep their frames, so a full cache makes
//!   no heap allocation at steady state and its resident footprint is
//!   capacity × page size, whichever threads fill it. The one exception
//!   keeps hits lock-free while they copy: a frame a reader still holds
//!   is left to that reader and replaced by a fresh one.
//! * **Exact counters** — hits, misses, and evictions surface three ways:
//!   per-call in the returned [`IoCharge`] (so stacked storage views
//!   mirror them into their domains), aggregated in
//!   [`Storage::metrics`], and directly via [`BlockCache::hits`] /
//!   [`BlockCache::misses`] / [`BlockCache::evictions`].
//! * **Invalidation on free** — [`Storage::free`] purges the extent's
//!   pages from every segment *before* forwarding, so an extent id whose
//!   pages were freed under the two-log contract (only after the manifest
//!   commit) can never serve stale data.
//!
//! Virtual-cost semantics are unchanged from the seed: a hit charges only
//! [`CostModel::cpu_probe_ns`] and performs no device I/O; a miss forwards
//! to the inner device and fills the cache (reads are write-allocated,
//! writes are write-through). The cache stays **disabled by default** on
//! the simulated backend, matching the paper's direct-I/O setup and
//! keeping that path's accounting bit-identical; the persistent store
//! wires it over each shard's `FileDisk` via
//! `PersistenceConfig::cache_pages`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::VirtualClock;
use crate::cost::CostModel;
use crate::disk::{Extent, IoCharge, Storage};
use crate::metrics::StorageMetrics;

/// Key identifying a cached page.
type PageKey = (u64, u32);

/// Default segment count; small capacities use fewer (≥ 1 page each).
const DEFAULT_SEGMENTS: usize = 8;

/// Sentinel slot index for list ends and free slots.
const NIL: usize = usize::MAX;

/// A page frame. Shared so a hit can copy it outside the segment lock.
type Frame = Arc<Vec<u8>>;

/// One resident page: slab slot carrying the intrusive recency links and
/// the frame it keeps for the cache's whole life.
struct Slot {
    key: PageKey,
    frame: Frame,
    prev: usize,
    next: usize,
}

/// One independently locked LRU segment: `map` finds the slot in O(1),
/// the intrusive list orders recency, `free` recycles slots (frames
/// included) — every operation (hit, insert, evict, remove) is
/// constant-time.
struct Segment {
    capacity: usize,
    page_size: usize,
    map: HashMap<PageKey, usize>,
    slab: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (the eviction victim).
    tail: usize,
    /// Frames allocated to replace one a reader still held.
    replaced: u64,
}

impl Segment {
    fn new(capacity: usize, page_size: usize) -> Self {
        Self {
            capacity,
            page_size,
            // Room for twice the capacity: when eviction churn exhausts the
            // table, it is at most half full and rehashes in place instead
            // of reallocating.
            map: HashMap::with_capacity(2 * capacity),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            replaced: 0,
        }
    }

    /// Copies `data` into slot `i`'s frame in place. A frame a reader
    /// still holds (a hit copies outside the lock) is left to that reader
    /// and replaced, so no reader ever sees its page change.
    fn fill(&mut self, i: usize, data: &[u8]) {
        let frame = &mut self.slab[i].frame;
        if Arc::get_mut(frame).is_none() {
            *frame = Arc::new(Vec::with_capacity(self.page_size));
            self.replaced += 1;
        }
        let page = Arc::get_mut(frame).expect("frame is unshared");
        page.clear();
        page.extend_from_slice(data);
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h].prev = i,
        }
        self.head = i;
    }

    /// Looks a page up, promoting it to most-recently-used on a hit.
    fn get(&mut self, key: PageKey) -> Option<Frame> {
        let &i = self.map.get(&key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(Arc::clone(&self.slab[i].frame))
    }

    /// Inserts (or refreshes) a page by copying it into its slot's frame,
    /// returning how many pages were evicted to make room (0 or 1).
    fn insert(&mut self, key: PageKey, data: &[u8]) -> u64 {
        if let Some(&i) = self.map.get(&key) {
            self.fill(i, data);
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return 0;
        }
        let mut evicted = 0;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full segment must have a tail");
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
            evicted = 1;
        }
        // Reuse a free slot's frame; a new slot (at most `capacity` of
        // them) allocates its frame once.
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i].key = key;
                i
            }
            None => {
                self.slab.push(Slot {
                    key,
                    frame: Arc::new(Vec::with_capacity(self.page_size)),
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.fill(i, data);
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    /// Drops every resident page of an extent (O(pages resident)).
    fn remove_extent(&mut self, id: u64) {
        let victims: Vec<usize> = self
            .map
            .iter()
            .filter(|((eid, _), _)| *eid == id)
            .map(|(_, &i)| i)
            .collect();
        for i in victims {
            self.unlink(i);
            self.map.remove(&self.slab[i].key);
            self.free.push(i);
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A sharded LRU page cache wrapping an inner [`Storage`].
///
/// Hits cost only [`CostModel::cpu_probe_ns`]; misses go to the inner
/// device. See the module docs for the locking and eviction design.
pub struct BlockCache<S: Storage> {
    inner: Arc<S>,
    segments: Vec<Mutex<Segment>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<S: Storage> BlockCache<S> {
    /// Wraps `inner` with a cache holding up to `capacity_pages` pages,
    /// split over `min(8, capacity_pages)` segments.
    pub fn new(inner: Arc<S>, capacity_pages: usize) -> Arc<Self> {
        let segments = DEFAULT_SEGMENTS.min(capacity_pages.max(1));
        Self::with_segments(inner, capacity_pages, segments)
    }

    /// Wraps `inner` with an explicit segment count (tests pin strict
    /// global LRU order with one segment).
    pub fn with_segments(inner: Arc<S>, capacity_pages: usize, segments: usize) -> Arc<Self> {
        assert!(
            capacity_pages > 0,
            "use the raw storage for a zero-size cache"
        );
        assert!(
            (1..=capacity_pages).contains(&segments),
            "need 1..=capacity_pages segments so every segment holds a page"
        );
        // Distribute the capacity exactly: the first `capacity % segments`
        // segments take one extra page.
        let (base, rem) = (capacity_pages / segments, capacity_pages % segments);
        let page_size = inner.page_size();
        let segments = (0..segments)
            .map(|i| Mutex::new(Segment::new(base + usize::from(i < rem), page_size)))
            .collect();
        Arc::new(Self {
            inner,
            segments,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The segment responsible for a page (FNV-1a over the key).
    fn segment(&self, key: PageKey) -> &Mutex<Segment> {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.0.to_le_bytes().into_iter().chain(key.1.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        &self.segments[(h % self.segments.len() as u64) as usize]
    }

    /// Number of cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (reads forwarded to the device).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of pages evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of frames allocated because a concurrent hit still held
    /// the one an insert was about to refill — the only allocation a full
    /// cache makes.
    pub fn frame_replacements(&self) -> u64 {
        self.segments.iter().map(|s| s.lock().replaced).sum()
    }

    /// Hit ratio in `[0, 1]`; zero when no reads have occurred.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Pages currently resident across all segments.
    pub fn cached_pages(&self) -> usize {
        self.segments.iter().map(|s| s.lock().len()).sum()
    }

    /// Page frames the cache owns: one per slot ever created, never more
    /// than the capacity.
    #[cfg(test)]
    fn frames(&self) -> usize {
        self.segments.iter().map(|s| s.lock().slab.len()).sum()
    }

    fn insert(&self, key: PageKey, data: &[u8]) -> u64 {
        let evicted = self.segment(key).lock().insert(key, data);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }
}

impl<S: Storage> Storage for BlockCache<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self, pages: u32) -> Extent {
        self.inner.allocate(pages)
    }

    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        // Write-through: persist first (a rejected write caches nothing),
        // then keep the cache coherent.
        let mut charge = self.inner.write_page(ext, idx, data);
        charge.io.cache_evictions += self.insert((ext.id, idx), data);
        charge
    }

    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge> {
        let cached = self.segment((ext.id, idx)).lock().get((ext.id, idx));
        if let Some(data) = cached {
            buf.clear();
            buf.extend_from_slice(&data);
            self.hits.fetch_add(1, Ordering::Relaxed);
            let probe_ns = self.inner.cost_model().cpu_probe_ns;
            self.inner.charge_cpu(probe_ns);
            // A hit performs no device I/O: only the CPU probe is charged.
            Ok(IoCharge {
                ns: probe_ns,
                io: StorageMetrics {
                    cache_hits: 1,
                    ..StorageMetrics::default()
                },
            })
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            // A failed device read fills nothing: the error propagates
            // typed, and the cache never holds a torn page.
            let mut charge = self.inner.try_read_page(ext, idx, buf)?;
            charge.io.cache_misses = 1;
            charge.io.cache_evictions += self.insert((ext.id, idx), buf);
            Ok(charge)
        }
    }

    fn sync_extent(&self, ext: Extent) -> std::io::Result<IoCharge> {
        self.inner.sync_extent(ext)
    }

    fn sync_dir(&self) -> std::io::Result<IoCharge> {
        self.inner.sync_dir()
    }

    fn collect_orphans(&self, live: &[u64]) -> std::io::Result<Vec<u64>> {
        // Purge collected extents' pages: an orphan's id becomes reusable
        // the moment its file is gone, and no stale page may outlive it.
        let collected = self.inner.collect_orphans(live)?;
        for id in &collected {
            for seg in &self.segments {
                seg.lock().remove_extent(*id);
            }
        }
        Ok(collected)
    }

    fn arm_power_cut(&self, point: crate::PowerCutPoint, after: u64) {
        self.inner.arm_power_cut(point, after);
    }

    fn free(&self, ext: Extent) {
        // Purge before forwarding: once the inner device reuses the id,
        // no stale page may survive here.
        for seg in &self.segments {
            seg.lock().remove_extent(ext.id);
        }
        self.inner.free(ext);
    }

    /// The inner device's counters plus this cache's hit/miss/eviction
    /// totals (hits never reach the device, so they only exist here).
    fn metrics(&self) -> StorageMetrics {
        let mut m = self.inner.metrics();
        m.cache_hits += self.hits();
        m.cache_misses += self.misses();
        m.cache_evictions += self.evictions();
        m
    }

    fn clock(&self) -> &VirtualClock {
        self.inner.clock()
    }

    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }

    fn charge_cpu(&self, ns: u64) {
        self.inner.charge_cpu(ns);
    }

    fn live_pages(&self) -> u64 {
        self.inner.live_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimulatedDisk;

    fn setup(cap: usize) -> (Arc<BlockCache<SimulatedDisk>>, Arc<SimulatedDisk>) {
        let disk = SimulatedDisk::new(128, CostModel::NVME);
        (BlockCache::new(Arc::clone(&disk), cap), disk)
    }

    /// One segment: strict global LRU order, for deterministic recency
    /// assertions.
    fn setup_lru(cap: usize) -> (Arc<BlockCache<SimulatedDisk>>, Arc<SimulatedDisk>) {
        let disk = SimulatedDisk::new(128, CostModel::NVME);
        (BlockCache::with_segments(Arc::clone(&disk), cap, 1), disk)
    }

    #[test]
    fn hit_avoids_device_read() {
        let (cache, disk) = setup(4);
        let ext = cache.allocate(1);
        cache.write_page(ext, 0, b"abc");
        let mut buf = Vec::new();
        let charge = cache.read_page(ext, 0, &mut buf); // hit: write-through populated it
        assert_eq!(&buf, b"abc");
        assert_eq!(cache.hits(), 1);
        assert_eq!(disk.metrics().pages_read, 0);
        assert_eq!(charge.io.cache_hits, 1, "hit flows through the IoCharge");
        assert_eq!(charge.io.pages_read, 0);
        assert_eq!(charge.ns, CostModel::NVME.cpu_probe_ns);
    }

    #[test]
    fn miss_fills_cache() {
        let (cache, disk) = setup_lru(1);
        let a = cache.allocate(1);
        let b = cache.allocate(1);
        cache.write_page(a, 0, b"a");
        cache.write_page(b, 0, b"b"); // evicts a (capacity 1)
        assert_eq!(cache.evictions(), 1);
        let mut buf = Vec::new();
        let charge = cache.read_page(a, 0, &mut buf); // miss
        assert_eq!(cache.misses(), 1);
        assert_eq!(charge.io.cache_misses, 1, "miss flows through the IoCharge");
        assert_eq!(disk.metrics().pages_read, 1);
        cache.read_page(a, 0, &mut buf); // now a hit
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let (cache, disk) = setup_lru(2);
        let ext = cache.allocate(3);
        cache.write_page(ext, 0, b"0");
        cache.write_page(ext, 1, b"1");
        cache.write_page(ext, 2, b"2"); // page 0 evicted
        let mut buf = Vec::new();
        cache.read_page(ext, 1, &mut buf);
        cache.read_page(ext, 2, &mut buf);
        assert_eq!(disk.metrics().pages_read, 0);
        cache.read_page(ext, 0, &mut buf);
        assert_eq!(disk.metrics().pages_read, 1);
    }

    /// A hit must *promote*: after touching the LRU page, the other
    /// resident page becomes the next victim.
    #[test]
    fn hit_promotes_to_mru() {
        let (cache, disk) = setup_lru(2);
        let ext = cache.allocate(3);
        cache.write_page(ext, 0, b"0");
        cache.write_page(ext, 1, b"1");
        let mut buf = Vec::new();
        cache.read_page(ext, 0, &mut buf); // promote page 0
        cache.write_page(ext, 2, b"2"); // must evict page 1, not 0
        cache.read_page(ext, 0, &mut buf);
        assert_eq!(disk.metrics().pages_read, 0, "promoted page stayed");
        cache.read_page(ext, 1, &mut buf);
        assert_eq!(disk.metrics().pages_read, 1, "LRU page was evicted");
    }

    #[test]
    fn free_invalidates() {
        let (cache, _disk) = setup(4);
        let ext = cache.allocate(1);
        cache.write_page(ext, 0, b"x");
        cache.free(ext);
        // A fresh extent may reuse nothing; reading the freed extent panics
        // at the device level, proving the cache did not serve stale data.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = Vec::new();
            cache.read_page(ext, 0, &mut buf);
        }));
        assert!(result.is_err());
    }

    /// Pages appended to a growing extent are cached write-through like
    /// any other, count as live on the device, and `free` purges every one
    /// of them — through a handle that never learned the grown size.
    #[test]
    fn free_purges_appended_pages() {
        let (cache, disk) = setup(16);
        let ext = cache.allocate(0);
        for i in 0..5 {
            cache.write_page(ext, i, &[i as u8; 4]);
        }
        assert_eq!(cache.live_pages(), 5);
        assert_eq!(cache.cached_pages(), 5);
        cache.free(ext);
        assert_eq!(cache.cached_pages(), 0, "appended pages must be purged");
        assert_eq!(disk.live_pages(), 0);
    }

    #[test]
    fn rejected_append_caches_nothing() {
        let (cache, _) = setup(4);
        let ext = cache.allocate(0);
        let hole = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.write_page(ext, 1, b"x");
        }));
        assert!(hole.is_err(), "a write past the end must be rejected");
        assert_eq!(cache.cached_pages(), 0);
    }

    #[test]
    fn hit_ratio_math() {
        let (cache, _) = setup(4);
        assert_eq!(cache.hit_ratio(), 0.0);
        let ext = cache.allocate(1);
        cache.write_page(ext, 0, b"x");
        let mut buf = Vec::new();
        cache.read_page(ext, 0, &mut buf);
        cache.read_page(ext, 0, &mut buf);
        assert!((cache.hit_ratio() - 1.0).abs() < 1e-9);
    }

    /// Sharded capacity is exact: residency never exceeds the configured
    /// page budget, whatever the access pattern.
    #[test]
    fn sharded_capacity_is_bounded() {
        let (cache, _) = setup(13);
        let ext = cache.allocate(200);
        for i in 0..200 {
            cache.write_page(ext, i, &[i as u8; 16]);
        }
        assert!(cache.cached_pages() <= 13, "capacity overrun");
        assert!(cache.evictions() > 0);
        let mut buf = Vec::new();
        for i in 0..200 {
            cache.read_page(ext, i, &mut buf);
            assert_eq!(buf[0], i as u8);
        }
        assert!(cache.cached_pages() <= 13, "capacity overrun after reads");
    }

    /// Invalidation reaches every segment, and metrics() reports the
    /// cache counters on top of the device's.
    #[test]
    fn invalidation_spans_segments_and_metrics_aggregate() {
        let (cache, _) = setup(64);
        let a = cache.allocate(32);
        let b = cache.allocate(4);
        for i in 0..32 {
            cache.write_page(a, i, b"a");
        }
        for i in 0..4 {
            cache.write_page(b, i, b"b");
        }
        cache.free(a);
        assert_eq!(cache.cached_pages(), 4, "only extent b remains resident");
        let mut buf = Vec::new();
        for i in 0..4 {
            cache.read_page(b, i, &mut buf);
        }
        let m = cache.metrics();
        assert_eq!(m.cache_hits, 4);
        assert_eq!(m.cache_misses, 0);
        assert_eq!(m.cache_evictions, 0);
    }

    /// A reader holding a frame (a hit between its lookup and its copy)
    /// keeps its page's bytes when the slot is recycled for another page.
    #[test]
    fn held_frame_survives_slot_recycling() {
        let (cache, _) = setup_lru(1);
        let ext = cache.allocate(2);
        cache.write_page(ext, 0, &[1; 64]);
        let held = cache.segment((ext.id, 0)).lock().get((ext.id, 0)).unwrap();
        cache.write_page(ext, 1, &[2; 64]); // evicts page 0, recycles its slot
        assert_eq!(&held[..], &[1; 64][..], "a held frame must never change");
        assert!(
            !Arc::ptr_eq(
                &held,
                &cache.segment((ext.id, 1)).lock().get((ext.id, 1)).unwrap()
            ),
            "a held frame must be replaced, not refilled"
        );
        let mut buf = Vec::new();
        cache.read_page(ext, 1, &mut buf);
        assert_eq!(buf, [2; 64]);
        assert_eq!(cache.frames(), 1);
        assert_eq!(cache.frame_replacements(), 1);
    }

    /// A short page (a run's partial last page) refilling a frame that
    /// last held a full page reads back at exactly its own length.
    #[test]
    fn short_page_in_a_full_frame_has_no_stale_tail() {
        let (cache, disk) = setup_lru(1);
        let ext = cache.allocate(2);
        cache.write_page(ext, 0, &[0xaa; 128]);
        cache.write_page(ext, 1, &[7; 10]); // refills page 0's frame in place
        let mut buf = Vec::with_capacity(128);
        cache.read_page(ext, 1, &mut buf);
        assert_eq!(disk.metrics().pages_read, 0, "served by the cache");
        assert_eq!(buf, [7; 10]);
        cache.read_page(ext, 0, &mut buf); // miss: the short page's frame again
        assert_eq!(buf, [0xaa; 128]);
        cache.read_page(ext, 0, &mut buf);
        assert_eq!(buf, [0xaa; 128], "the hit serves the whole page");
        assert_eq!(cache.frame_replacements(), 0, "refilled in place");
    }

    /// Frames are allocated once per slot: churn through 10× the capacity,
    /// extent purges and held frames never leave the
    /// cache owning more frames than its capacity.
    #[test]
    fn frames_never_exceed_capacity() {
        let (cache, _) = setup(13);
        let mut buf = Vec::new();
        for round in 0..10u8 {
            let ext = cache.allocate(13);
            for i in 0..13 {
                cache.write_page(ext, i, &[round; 32]);
            }
            let held = cache.segment((ext.id, 0)).lock().get((ext.id, 0));
            for i in 0..13 {
                cache.read_page(ext, 12 - i, &mut buf);
                assert_eq!(buf, [round; 32]);
            }
            drop(held);
            if round % 3 == 0 {
                cache.free(ext);
            }
            assert!(
                cache.frames() <= 13,
                "round {round}: {} frames",
                cache.frames()
            );
        }
        assert!(cache.evictions() > 0);
    }

    /// Concurrent readers through the sharded segments: results stay
    /// exact and hits + misses account for every read.
    #[test]
    fn concurrent_reads_are_exact() {
        let disk = SimulatedDisk::new(128, CostModel::FREE);
        let cache = BlockCache::new(Arc::clone(&disk), 32);
        let ext = cache.allocate(64);
        for i in 0..64 {
            cache.write_page(ext, i, &[i as u8; 8]);
        }
        let (h0, m0) = (cache.hits(), cache.misses());
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    let mut buf = Vec::new();
                    for round in 0..200u32 {
                        let i = (round * 7 + t) % 64;
                        cache.read_page(ext, i, &mut buf);
                        assert_eq!(buf[0], i as u8, "stale or torn page");
                    }
                });
            }
        });
        assert_eq!(cache.hits() - h0 + (cache.misses() - m0), 800);
    }
}
