//! The memory bound of a merge. Compaction streams its inputs straight
//! into the output extent, holding one page per source, so no merged
//! level ever sits in memory. A counting global allocator measures the
//! peak live-heap growth while a level of ≥ 50k entries merges into a
//! larger one on a file-backed device — through the inline cascade and
//! through a background build + apply — and the growth must stay under
//! 10% of the bytes the merge reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bytes::Bytes;

use ruskey_repro::lsm::{FlsmTree, LsmConfig};
use ruskey_repro::storage::{CostModel, FileDisk};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let now = LIVE.fetch_add(n, Ordering::SeqCst) + n;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks for a moment: count the new
        // one before the old one leaves.
        grow(new_size);
        let p = System.realloc(ptr, layout, new_size);
        shrink(if p.is_null() { new_size } else { layout.size() });
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The allocator counts process-wide: measured sections never overlap.
static MEASURING: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its peak live-heap growth in bytes.
fn peak_growth(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst).saturating_sub(base)
}

const VALUE_BYTES: usize = 400;
const SIZE_RATIO: u32 = 20;
/// Level 1 (index 0) holds `SIZE_RATIO` buffers: 22.5 MiB, over 50k
/// entries of 431 bytes.
const BUFFER_BYTES: u64 = 1_125 * 1024;
const MIN_LEVEL_ENTRIES: u64 = 50_000;

/// Unique keys spread over the whole key space, so every run overlaps
/// every other and no merge degenerates into a trivial move.
fn key(i: u64) -> Bytes {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Bytes::from(format!("{:016x}", z ^ (z >> 31)))
}

fn value(i: u64) -> Bytes {
    Bytes::from(vec![(i % 251) as u8; VALUE_BYTES])
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruskey-merge-mem-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A file-backed tree whose level 1 (index 0) is full of tiered runs —
/// at least [`MIN_LEVEL_ENTRIES`] entries — over a larger leveled level 2
/// whose single active run the next merge rewrites.
fn tree_ready_to_merge(dir: &PathBuf, background: bool) -> FlsmTree {
    let disk = FileDisk::new(dir, 4096, CostModel::NVME).expect("open file disk");
    let cfg = LsmConfig {
        buffer_bytes: BUFFER_BYTES,
        size_ratio: SIZE_RATIO,
        initial_policy: 1,
        background_maintenance: background,
        l0_stall_runs: 10_000,
        ..LsmConfig::scaled_default()
    };
    let level0_capacity = cfg.level_capacity(0);
    let mut tree = FlsmTree::new(cfg, disk);
    // Bulk load: level 1 half full, level 2 holding 1.2× level 1's
    // capacity in one active run.
    let entry_bytes = (15 + 16 + VALUE_BYTES) as u64;
    let bulk = level0_capacity * 17 / 10 / entry_bytes;
    tree.bulk_load((0..bulk).map(|i| (key(i), value(i))).collect());
    // Tier level 1, then fill it with flushed runs until the next flush
    // overflows it.
    tree.set_policy(0, SIZE_RATIO);
    let per_flush = BUFFER_BYTES / entry_bytes - 16;
    let mut next = bulk;
    while tree.level_bytes(0) + per_flush * entry_bytes < level0_capacity {
        for _ in 0..per_flush {
            tree.put(key(next), value(next));
            next += 1;
        }
        tree.flush();
    }
    assert_eq!(tree.stats().levels[0].merges_down, 0, "no merge yet");
    for _ in 0..per_flush {
        tree.put(key(next), value(next));
        next += 1;
    }
    tree
}

/// Asserts the bound for one merge of level 1 into level 2: the merged
/// level's size (every key is unique, so it is what level 2 gained), and
/// the peak heap growth against the bytes the merge read.
fn assert_bounded(case: &str, tree: &FlsmTree, lower_entries: u64, read_bytes: u64, growth: usize) {
    assert_eq!(
        tree.stats().levels[0].merges_down,
        1,
        "{case}: one merge ran"
    );
    let merged = tree.level_entries(1) - lower_entries;
    assert!(
        merged >= MIN_LEVEL_ENTRIES,
        "{case}: merged level held {merged} entries"
    );
    let bound = read_bytes / 10;
    assert!(
        (growth as u64) < bound,
        "{case}: peak heap grew {growth} B while merging {read_bytes} B (bound {bound} B)"
    );
}

#[test]
fn inline_cascade_holds_one_page_per_source() {
    let _guard = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("inline");
    let mut tree = tree_ready_to_merge(&dir, false);
    let upper = tree.level_bytes(0) + tree.memtable_bytes();
    let lower = tree.level_bytes(1);
    assert!(lower > upper, "the target level must be the larger one");
    let lower_entries = tree.level_entries(1);
    // The flush overflows level 1 and cascades into level 2 inline.
    let growth = peak_growth(|| tree.flush());
    assert_bounded("inline", &tree, lower_entries, upper + lower, growth);
    drop(tree);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_build_and_apply_hold_one_page_per_source() {
    let _guard = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("background");
    let mut tree = tree_ready_to_merge(&dir, true);
    // Background flushes never cascade: level 1 is now over capacity.
    tree.flush();
    let upper = tree.level_bytes(0);
    let lower = tree.level_bytes(1);
    assert!(upper >= tree.level_capacity(0) && lower > upper);
    let lower_entries = tree.level_entries(1);
    let mut growth = peak_growth(|| assert!(tree.step_maintenance()));
    assert!(tree.has_pending_compaction(), "the step must build a merge");
    growth = growth.max(peak_growth(|| assert!(tree.step_maintenance())));
    assert!(!tree.has_pending_compaction(), "the next step applies it");
    // Background merges take the sealed runs; the active one stays.
    let read = upper - tree.level_bytes(0) + lower;
    assert_bounded("background", &tree, lower_entries, read, growth);
    drop(tree);
    let _ = std::fs::remove_dir_all(&dir);
}
