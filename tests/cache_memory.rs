//! The memory bound of the block cache. Every slot owns one page frame
//! for the cache's whole life and each insert copies the page into it,
//! so once the cache is full its steady-state path — write-through,
//! hit, and miss fill — makes no heap allocation, whichever threads
//! drive it. A counting global allocator checks exactly that on a
//! file-backed cache over four times its capacity of pages.
//!
//! The one allocation the design keeps: a hit copies its page outside
//! the segment lock, and an insert that finds that frame still held
//! leaves it to the reader and fills a fresh one. Two threads sharing
//! hot pages hit that window now and then, so the test asserts that the
//! measured phase allocates nothing but those replacements — two
//! allocations each, the frame's `Arc` and its page buffer — and that
//! they stay rare.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use ruskey_repro::storage::{BlockCache, CostModel, Extent, FileDisk, Storage};

/// Counts the allocations made by threads inside their measured phase.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting touches only an atomic and a const-initialized thread-local,
// neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const PAGE_SIZE: usize = 4096;
const CAPACITY: usize = 256;
const EXTENTS: usize = 8;
/// 8 × 128 pages: four times the cache's capacity.
const PAGES_PER_EXTENT: u32 = 128;
/// Each extent's last page is short, like a run's partial last page.
const SHORT_PAGE: usize = 1000;
/// Pages every thread keeps touching, so hits are common.
const HOT_PAGES: u32 = 64;
const THREADS: usize = 2;
const OPS_PER_THREAD: usize = 6_000;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruskey-cache-mem-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fills `page` (capacity already reserved) with the contents of page
/// `idx` of `ext`: its id and index, then a byte pattern.
fn page_contents(page: &mut Vec<u8>, ext: Extent, idx: u32) {
    let len = if idx + 1 == PAGES_PER_EXTENT {
        SHORT_PAGE
    } else {
        PAGE_SIZE
    };
    page.clear();
    page.extend_from_slice(&ext.id.to_le_bytes());
    page.extend_from_slice(&idx.to_le_bytes());
    page.resize(len, (idx % 251) as u8);
}

/// Checks a page read back, without allocating unless it is wrong.
fn check(buf: &[u8], ext: Extent, idx: u32) {
    let len = if idx + 1 == PAGES_PER_EXTENT {
        SHORT_PAGE
    } else {
        PAGE_SIZE
    };
    assert_eq!(buf.len(), len, "page {}:{idx} length", ext.id);
    assert_eq!(buf[..8], ext.id.to_le_bytes());
    assert_eq!(buf[8..12], idx.to_le_bytes());
    assert!(buf[12..].iter().all(|&b| b == (idx % 251) as u8));
}

/// A small xorshift generator: no allocation, deterministic per thread.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// What one thread did in its measured phase.
#[derive(Default)]
struct Tally {
    writes: u64,
    hits: u64,
    misses: u64,
}

/// One mixed step: a write-through to an existing page (same bytes, so
/// every read stays checkable), a read of a hot page, or a read of any
/// page — most of those miss and fill.
fn step(
    cache: &BlockCache<FileDisk>,
    extents: &[Extent],
    rng: &mut Rng,
    page: &mut Vec<u8>,
    buf: &mut Vec<u8>,
    tally: &mut Tally,
) {
    let roll = rng.below(10);
    let (ext, idx) = if (3..7).contains(&roll) {
        (extents[0], rng.below(HOT_PAGES as u64) as u32)
    } else {
        let ext = extents[rng.below(EXTENTS as u64) as usize];
        (ext, rng.below(PAGES_PER_EXTENT as u64) as u32)
    };
    if roll < 3 {
        page_contents(page, ext, idx);
        cache.write_page(ext, idx, page);
        tally.writes += 1;
    } else {
        let charge = cache.read_page(ext, idx, buf);
        check(buf, ext, idx);
        tally.hits += charge.io.cache_hits;
        tally.misses += charge.io.cache_misses;
    }
}

#[test]
fn full_cache_serves_writes_hits_and_misses_without_allocating() {
    let dir = tmpdir("steady");
    let disk = FileDisk::new(&dir, PAGE_SIZE, CostModel::NVME).expect("open file disk");
    // Pages go straight to the device, so the cache starts empty.
    let mut page = Vec::with_capacity(PAGE_SIZE);
    let extents: Vec<Extent> = (0..EXTENTS)
        .map(|_| {
            let ext = disk.allocate(PAGES_PER_EXTENT);
            for idx in 0..PAGES_PER_EXTENT {
                page_contents(&mut page, ext, idx);
                disk.write_page(ext, idx, &page);
            }
            ext
        })
        .collect();
    let cache = BlockCache::new(Arc::clone(&disk), CAPACITY);

    let barrier = Barrier::new(THREADS);
    let replaced_before = AtomicU64::new(0);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cache, extents, barrier) = (&cache, &extents, &barrier);
                let replaced_before = &replaced_before;
                s.spawn(move || {
                    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (t as u64 + 1));
                    let mut page = Vec::with_capacity(PAGE_SIZE);
                    let mut buf = Vec::with_capacity(PAGE_SIZE);
                    // Warm-up: the two threads fill the cache with every
                    // page of the extents they own, then run the mixed
                    // load once unmeasured.
                    for ext in extents.iter().skip(t).step_by(THREADS) {
                        for idx in 0..PAGES_PER_EXTENT {
                            cache.read_page(*ext, idx, &mut buf);
                        }
                    }
                    barrier.wait();
                    assert_eq!(cache.cached_pages(), CAPACITY, "the cache is full");
                    let mut warm = Tally::default();
                    for _ in 0..OPS_PER_THREAD {
                        step(cache, extents, &mut rng, &mut page, &mut buf, &mut warm);
                    }
                    barrier.wait();
                    if t == 0 {
                        replaced_before.store(cache.frame_replacements(), Ordering::SeqCst);
                    }
                    barrier.wait();
                    let mut tally = Tally::default();
                    MEASURED.set(true);
                    for _ in 0..OPS_PER_THREAD {
                        step(cache, extents, &mut rng, &mut page, &mut buf, &mut tally);
                    }
                    MEASURED.set(false);
                    tally
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let writes: u64 = tallies.iter().map(|t| t.writes).sum();
    let hits: u64 = tallies.iter().map(|t| t.hits).sum();
    let misses: u64 = tallies.iter().map(|t| t.misses).sum();
    let ops = writes + hits + misses;
    assert_eq!(ops, (THREADS * OPS_PER_THREAD) as u64);
    // Every kind of step really happened: hot pages hit, the uniform
    // reads over 4× the capacity mostly missed and filled.
    assert!(writes > 2_000, "{writes} write-throughs");
    assert!(hits > 4_000, "{hits} hits");
    assert!(misses > 2_000, "{misses} misses");
    assert_eq!(cache.cached_pages(), CAPACITY);
    let allocs = ALLOCS.load(Ordering::SeqCst) as u64;
    let replaced = cache.frame_replacements() - replaced_before.load(Ordering::SeqCst);
    assert_eq!(
        allocs,
        2 * replaced,
        "{allocs} heap allocations in {ops} steady-state cache operations \
         ({writes} write-throughs, {hits} hits, {misses} misses) with \
         {replaced} held frames replaced"
    );
    assert!(
        replaced * 100 <= writes + misses,
        "{replaced} frame replacements in {} fills",
        writes + misses
    );
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}
