//! Immutable sorted runs.
//!
//! A run is the disk-resident unit of the LSM-tree: a sequence of pages of
//! sorted entries, paired with an in-memory Bloom filter and fence pointers.
//! In the FLSM-tree, every run additionally carries its own *capacity*,
//! assigned at creation from the level's policy at that moment — this is the
//! mechanism that lets runs of different sizes coexist in one level (§4.2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ruskey_storage::{Extent, IoCharge, Storage};

use crate::bloom::{key_hashes, Bloom};
use crate::entry::{self, PAGE_HEADER_BYTES};
use crate::fence::FencePointers;
use crate::types::{Key, KvEntry, SeqNo};

/// Unique run identifier within one tree.
pub type RunId = u64;

/// The outcome of probing one run for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The run's metadata excluded the key without any I/O
    /// (range check or Bloom-filter negative).
    FilteredOut,
    /// The Bloom filter answered positive but the page did not contain the
    /// key — a false positive costing one page read.
    FalsePositive,
    /// The key was found.
    Found(KvEntry),
}

/// Statistics of one probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeResult {
    /// What happened.
    pub outcome: ProbeOutcome,
    /// Pages the probe accessed (0 or 1); a block-cache hit counts as 1.
    pub pages_read: u32,
}

/// An immutable sorted run.
#[derive(Debug)]
pub struct Run {
    id: RunId,
    extent: Extent,
    bloom: Bloom,
    fences: FencePointers,
    entry_count: u64,
    data_bytes: u64,
    /// Atomic so a *shared* run handle (`Arc<Run>`) can be retargeted by a
    /// flexible policy transition while snapshots hold the same run: the
    /// capacity is the only mutable field of an otherwise immutable run.
    capacity_bytes: AtomicU64,
    min_key: Key,
    max_key: Key,
    max_seq: SeqNo,
}

impl Run {
    /// Run identifier.
    pub fn id(&self) -> RunId {
        self.id
    }

    /// Logical data size in bytes (sum of encoded entry sizes).
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// The FLSM per-run capacity assigned at creation (bytes).
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes.load(Ordering::Relaxed)
    }

    /// Updates the capacity (only ever called on a level's *active* run when
    /// a flexible transition changes the policy, §4.2). Takes `&self`: runs
    /// are shared handles, and the capacity is their one interior-mutable
    /// field.
    pub fn set_capacity_bytes(&self, capacity: u64) {
        self.capacity_bytes.store(capacity, Ordering::Relaxed);
    }

    /// Number of entries in the run.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Number of pages occupied on storage.
    pub fn page_count(&self) -> u32 {
        self.extent.pages
    }

    /// The storage extent holding the run's pages (recorded in the
    /// manifest so the run survives a restart on a persistent backend).
    pub fn extent(&self) -> Extent {
        self.extent
    }

    /// Smallest key in the run.
    pub fn min_key(&self) -> &Key {
        &self.min_key
    }

    /// Largest key in the run.
    pub fn max_key(&self) -> &Key {
        &self.max_key
    }

    /// Largest sequence number in the run.
    pub fn max_seq(&self) -> SeqNo {
        self.max_seq
    }

    /// In-memory metadata footprint (Bloom bits + fence keys), bytes.
    pub fn metadata_bytes(&self) -> usize {
        self.bloom.memory_bytes() + self.fences.memory_bytes()
    }

    /// Probes the run for `key`, charging `c_r` CPU plus any page read to
    /// the storage clock.
    pub fn probe(&self, storage: &dyn Storage, key: &[u8]) -> ProbeResult {
        storage.charge_cpu(storage.cost_model().cpu_probe_ns);
        if key < self.min_key.as_ref() || key > self.max_key.as_ref() {
            return ProbeResult {
                outcome: ProbeOutcome::FilteredOut,
                pages_read: 0,
            };
        }
        if !self.bloom.contains(key) {
            return ProbeResult {
                outcome: ProbeOutcome::FilteredOut,
                pages_read: 0,
            };
        }
        let Some(page_idx) = self.fences.locate(key) else {
            return ProbeResult {
                outcome: ProbeOutcome::FilteredOut,
                pages_read: 0,
            };
        };
        let mut buf = Vec::with_capacity(storage.page_size());
        storage.read_page(self.extent, page_idx, &mut buf);
        match entry::search_page(&buf, key) {
            Some(e) => ProbeResult {
                outcome: ProbeOutcome::Found(e),
                pages_read: 1,
            },
            None => ProbeResult {
                outcome: ProbeOutcome::FalsePositive,
                pages_read: 1,
            },
        }
    }

    /// Sequential iterator over all entries, reading pages on demand.
    pub fn iter(&self, storage: Arc<dyn Storage>) -> RunIterator {
        RunIterator::new(self.extent, storage, 0)
    }

    /// [`Run::iter`] that adds the cost of every page it reads to `tally`.
    pub fn iter_tallied(&self, storage: Arc<dyn Storage>, tally: Arc<ReadTally>) -> RunIterator {
        let mut it = RunIterator::new(self.extent, storage, 0);
        it.tally = Some(tally);
        it
    }

    /// Iterator positioned at the first entry with key `>= start`.
    pub fn iter_from(&self, storage: Arc<dyn Storage>, start: &[u8]) -> RunIterator {
        let page = self.fences.seek_page(start);
        let mut it = RunIterator::new(self.extent, storage, page);
        it.skip_until(start);
        it
    }

    /// Frees the run's pages on storage. The run must not be used afterwards.
    pub fn destroy(self, storage: &dyn Storage) {
        storage.free(self.extent);
    }

    /// Rebuilds a run from its manifest record and data pages: every page
    /// of the recorded extent is read back, entries are decoded to
    /// re-derive the fence pointers and an identical Bloom filter, and
    /// the result is cross-checked against the record's integrity
    /// expectations (entry count, data bytes, key bounds, max seq).
    ///
    /// Returns `InvalidData` if the decoded pages disagree with the
    /// record — a manifest that references pages which were never written
    /// cannot get here under the commit ordering contract (pages first,
    /// edit after), so a mismatch means externally corrupted page
    /// *contents*. A missing, truncated, or torn extent file surfaces the
    /// same way: the fallible [`Storage::try_read_page`] propagates the
    /// backend's typed error wrapped with the run's identity, so recovery
    /// reports *which* run failed instead of panicking mid-restart.
    pub fn recover(
        storage: &dyn Storage,
        rec: &crate::manifest::RunRecord,
    ) -> std::io::Result<Run> {
        let extent = Extent {
            id: rec.extent_id,
            pages: rec.pages,
        };
        // Fence keys are copied out of the pages, and the Bloom filter is
        // built from hash pairs, so no decoded page outlives its loop turn.
        let mut first_keys: Vec<Key> = Vec::with_capacity(rec.pages as usize);
        let mut hashes: Vec<(u64, u64)> = Vec::with_capacity(rec.entry_count as usize);
        let mut last_key: Vec<u8> = Vec::new();
        let mut data_bytes = 0u64;
        let mut max_seq: SeqNo = 0;
        let mut buf = Vec::with_capacity(storage.page_size());
        for page in 0..rec.pages {
            storage.try_read_page(extent, page, &mut buf).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("run {} (extent {}): {e}", rec.run_id, rec.extent_id),
                )
            })?;
            let entries = entry::decode_page(std::mem::take(&mut buf));
            if let Some(first) = entries.first() {
                first_keys.push(Key::copy_from_slice(&first.key));
            }
            for e in entries {
                if !hashes.is_empty() && last_key.as_slice() >= e.key.as_ref() {
                    return Err(corrupt_run(rec, "keys out of order"));
                }
                data_bytes += e.encoded_size() as u64;
                max_seq = max_seq.max(e.seq);
                hashes.push(key_hashes(&e.key));
                last_key.clear();
                last_key.extend_from_slice(&e.key);
            }
        }
        let bounds_ok = first_keys.first() == Some(&rec.min_key)
            && !hashes.is_empty()
            && last_key.as_slice() == rec.max_key.as_ref();
        if hashes.len() as u64 != rec.entry_count
            || data_bytes != rec.data_bytes
            || max_seq != rec.max_seq
            || !bounds_ok
        {
            return Err(corrupt_run(rec, "pages disagree with the manifest record"));
        }
        let bloom = Bloom::from_hashes(&hashes, rec.bloom_bits_per_key);
        Ok(Run {
            id: rec.run_id,
            extent,
            bloom,
            fences: FencePointers::new(first_keys),
            entry_count: rec.entry_count,
            data_bytes: rec.data_bytes,
            capacity_bytes: AtomicU64::new(rec.capacity_bytes),
            min_key: rec.min_key.clone(),
            max_key: rec.max_key.clone(),
            max_seq: rec.max_seq,
        })
    }
}

fn corrupt_run(rec: &crate::manifest::RunRecord, what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("run {} (extent {}): {what}", rec.run_id, rec.extent_id),
    )
}

/// The page reads a group of [`RunIterator`]s issued, summed as they
/// happen: a merge interleaving reads of several levels uses it to bill
/// each level exactly the reads of its own runs.
#[derive(Debug, Default)]
pub struct ReadTally {
    ns: AtomicU64,
    pages_read: AtomicU64,
}

impl ReadTally {
    fn add(&self, charge: &IoCharge) {
        self.ns.fetch_add(charge.ns, Ordering::Relaxed);
        self.pages_read
            .fetch_add(charge.io.pages_read, Ordering::Relaxed);
    }

    /// Virtual ns the reads charged.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Device page reads (cache hits excluded).
    pub fn pages_read(&self) -> u64 {
        self.pages_read.load(Ordering::Relaxed)
    }
}

/// Streams a run's entries in key order, reading one page at a time.
pub struct RunIterator {
    extent: Extent,
    storage: Arc<dyn Storage>,
    next_page: u32,
    current: std::vec::IntoIter<KvEntry>,
    peeked: Option<KvEntry>,
    tally: Option<Arc<ReadTally>>,
}

impl RunIterator {
    fn new(extent: Extent, storage: Arc<dyn Storage>, start_page: u32) -> Self {
        Self {
            extent,
            storage,
            next_page: start_page,
            current: Vec::new().into_iter(),
            peeked: None,
            tally: None,
        }
    }

    fn refill(&mut self) -> bool {
        while self.next_page < self.extent.pages {
            let mut buf = Vec::with_capacity(self.storage.page_size());
            let charge = self
                .storage
                .read_page(self.extent, self.next_page, &mut buf);
            if let Some(tally) = &self.tally {
                tally.add(&charge);
            }
            self.next_page += 1;
            let entries = entry::decode_page(buf);
            if !entries.is_empty() {
                self.current = entries.into_iter();
                return true;
            }
        }
        false
    }

    fn skip_until(&mut self, start: &[u8]) {
        while let Some(e) = self.peek() {
            if e.key.as_ref() >= start {
                break;
            }
            self.next();
        }
    }

    /// Peeks at the next entry without consuming it.
    pub fn peek(&mut self) -> Option<&KvEntry> {
        if self.peeked.is_none() {
            self.peeked = self.advance();
        }
        self.peeked.as_ref()
    }

    fn advance(&mut self) -> Option<KvEntry> {
        loop {
            if let Some(e) = self.current.next() {
                return Some(e);
            }
            if !self.refill() {
                return None;
            }
        }
    }
}

impl Iterator for RunIterator {
    type Item = KvEntry;

    fn next(&mut self) -> Option<KvEntry> {
        if let Some(e) = self.peeked.take() {
            return Some(e);
        }
        self.advance()
    }
}

/// Streams entries supplied in strictly ascending key order into a new
/// run. Each page goes to storage the moment it fills (the extent starts
/// empty and grows), so the builder holds one page buffer, one 16-byte
/// Bloom hash pair per key, and one copied fence key per page — never an
/// input page, whatever produced the entries.
pub struct RunBuilder {
    id: RunId,
    storage: Arc<dyn Storage>,
    page_size: usize,
    bits_per_key: f64,
    /// The output extent, allocated when the first page is written.
    extent: Option<Extent>,
    current: Vec<u8>,
    first_keys: Vec<Key>,
    hashes: Vec<(u64, u64)>,
    data_bytes: u64,
    min_key: Option<Key>,
    /// The last key pushed, copied into a reused buffer.
    last_key: Vec<u8>,
    max_seq: SeqNo,
}

impl RunBuilder {
    /// Starts a builder writing to `storage`. `bits_per_key` controls the
    /// Bloom filter (0 = none).
    pub fn new(id: RunId, storage: Arc<dyn Storage>, bits_per_key: f64) -> Self {
        let page_size = storage.page_size();
        assert!(page_size > PAGE_HEADER_BYTES + crate::entry::ENTRY_HEADER_BYTES);
        Self {
            id,
            storage,
            page_size,
            bits_per_key,
            extent: None,
            current: Vec::with_capacity(page_size),
            first_keys: Vec::new(),
            hashes: Vec::new(),
            data_bytes: 0,
            min_key: None,
            last_key: Vec::new(),
            max_seq: 0,
        }
    }

    /// Reserves room for `keys` more entries' hash pairs up front, so a
    /// caller that knows an upper bound avoids growing the buffer.
    pub fn reserve(&mut self, keys: usize) {
        self.hashes.reserve_exact(keys);
    }

    /// Appends an entry, writing out the current page if the entry does
    /// not fit in it. Panics if keys are not strictly ascending or the
    /// entry cannot fit in an empty page.
    pub fn push(&mut self, e: KvEntry) {
        if self.hashes.is_empty() {
            self.min_key = Some(Key::copy_from_slice(&e.key));
        } else {
            assert!(
                e.key.as_ref() > self.last_key.as_slice(),
                "RunBuilder keys must be strictly ascending"
            );
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(&e.key);
        self.max_seq = self.max_seq.max(e.seq);
        self.data_bytes += e.encoded_size() as u64;
        self.hashes.push(key_hashes(&e.key));
        if !self.current.is_empty() && !entry::append_entry(&mut self.current, &e, self.page_size) {
            self.write_page();
        }
        if self.current.is_empty() {
            self.first_keys.push(Key::copy_from_slice(&e.key));
            let ok = entry::append_entry(&mut self.current, &e, self.page_size);
            assert!(ok, "entry larger than a page");
        }
    }

    /// Appends the current page to the output extent and clears it.
    fn write_page(&mut self) {
        let storage = &self.storage;
        let ext = self.extent.get_or_insert_with(|| storage.allocate(0));
        storage.write_page(*ext, ext.pages, &self.current);
        ext.pages += 1;
        self.current.clear();
    }

    /// Number of entries added so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if nothing was added.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Logical bytes accumulated so far.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Writes the last page, builds the Bloom filter and fence pointers,
    /// and returns the finished run.
    ///
    /// `capacity_bytes` is the FLSM per-run capacity recorded on the run.
    /// Returns `None` if no entries were pushed (nothing was allocated).
    pub fn finish(mut self, capacity_bytes: u64) -> Option<Run> {
        if self.hashes.is_empty() {
            return None;
        }
        self.write_page();
        let extent = self.extent.expect("a non-empty run wrote a page");
        debug_assert_eq!(self.first_keys.len(), extent.pages as usize);
        Some(Run {
            id: self.id,
            extent,
            bloom: Bloom::from_hashes(&self.hashes, self.bits_per_key),
            fences: FencePointers::new(self.first_keys),
            entry_count: self.hashes.len() as u64,
            data_bytes: self.data_bytes,
            capacity_bytes: AtomicU64::new(capacity_bytes),
            min_key: self.min_key.expect("a non-empty run has a min key"),
            max_key: Key::copy_from_slice(&self.last_key),
            max_seq: self.max_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ruskey_storage::{CostModel, SimulatedDisk};

    fn key(i: u64) -> Key {
        Bytes::copy_from_slice(&i.to_be_bytes())
    }

    fn value(i: u64) -> Key {
        Bytes::from(format!("value-{i:06}"))
    }

    fn build_run(storage: &Arc<SimulatedDisk>, n: u64, bits: f64) -> Run {
        let mut b = RunBuilder::new(1, storage.clone(), bits);
        for i in 0..n {
            b.push(KvEntry::put(key(i * 2), value(i), i + 1));
        }
        b.finish(u64::MAX).unwrap()
    }

    #[test]
    fn probe_finds_every_key() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(&disk, 100, 10.0);
        for i in 0..100 {
            let r = run.probe(disk.as_ref(), &key(i * 2));
            match r.outcome {
                ProbeOutcome::Found(e) => assert_eq!(e.value, value(i)),
                other => panic!("key {i} not found: {other:?}"),
            }
        }
    }

    #[test]
    fn probe_out_of_range_costs_nothing() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(&disk, 10, 10.0);
        let before = disk.metrics().pages_read;
        let r = run.probe(disk.as_ref(), &key(1_000_000));
        assert_eq!(r.outcome, ProbeOutcome::FilteredOut);
        assert_eq!(disk.metrics().pages_read, before);
    }

    #[test]
    fn probe_missing_key_in_range() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(&disk, 100, 10.0);
        // Odd keys are absent; with bits=10 most probes are filtered, any
        // bloom positive must come back as FalsePositive, never Found.
        for i in 0..100 {
            let r = run.probe(disk.as_ref(), &key(i * 2 + 1));
            assert!(
                matches!(
                    r.outcome,
                    ProbeOutcome::FilteredOut | ProbeOutcome::FalsePositive
                ),
                "phantom key found"
            );
        }
    }

    #[test]
    fn iterator_streams_in_order() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(&disk, 50, 10.0);
        let entries: Vec<KvEntry> = run.iter(disk.clone() as Arc<dyn Storage>).collect();
        assert_eq!(entries.len(), 50);
        for w in entries.windows(2) {
            assert!(w[0].key < w[1].key);
        }
        assert_eq!(entries[0].key, key(0));
        assert_eq!(entries[49].key, key(98));
    }

    #[test]
    fn seeked_iterator_starts_at_bound() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(&disk, 50, 10.0);
        // Seek to key 31 (absent): first yielded must be 32.
        let it = run.iter_from(disk.clone() as Arc<dyn Storage>, &key(31));
        let first = it.take(1).next().unwrap();
        assert_eq!(first.key, key(32));
        // Seek before the run start.
        let it = run.iter_from(disk.clone() as Arc<dyn Storage>, &key(0));
        assert_eq!(it.take(1).next().unwrap().key, key(0));
    }

    #[test]
    fn metadata_and_counters() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(&disk, 100, 8.0);
        assert_eq!(run.entry_count(), 100);
        assert!(run.page_count() > 1);
        assert!(run.data_bytes() > 0);
        assert!(run.metadata_bytes() > 0);
        assert_eq!(run.max_seq(), 100);
        assert_eq!(run.min_key(), &key(0));
        assert_eq!(run.max_key(), &key(198));
    }

    #[test]
    fn destroy_frees_pages() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(&disk, 20, 8.0);
        assert!(disk.live_pages() > 0);
        run.destroy(disk.as_ref());
        assert_eq!(disk.live_pages(), 0);
    }

    /// The builder streams: full pages reach storage before `finish`, and
    /// the finished run's extent is exactly what the device holds.
    #[test]
    fn builder_writes_pages_as_they_fill() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let mut b = RunBuilder::new(1, disk.clone(), 8.0);
        for i in 0..100 {
            b.push(KvEntry::put(key(i * 2), value(i), i + 1));
        }
        let streamed = disk.metrics().pages_written;
        assert!(streamed > 1, "full pages must be written before finish");
        let run = b.finish(u64::MAX).unwrap();
        assert_eq!(disk.metrics().pages_written, streamed + 1);
        assert_eq!(disk.live_pages(), run.page_count() as u64);
        assert_eq!(disk.live_extents(), 1);
    }

    #[test]
    fn empty_builder_returns_none() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let b = RunBuilder::new(1, disk.clone(), 8.0);
        assert!(b.finish(0).is_none());
        assert_eq!(disk.live_extents(), 0, "an empty build allocates nothing");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_push_panics() {
        let mut b = RunBuilder::new(1, SimulatedDisk::new(256, CostModel::FREE), 8.0);
        b.push(KvEntry::put(key(5), value(5), 1));
        b.push(KvEntry::put(key(3), value(3), 2));
    }

    /// A run rebuilt from its manifest record and data pages is
    /// observationally identical: same probes, same iteration, same
    /// metadata footprint (the Bloom filter is rebuilt from the same keys
    /// with the same budget).
    #[test]
    fn recover_rebuilds_an_identical_run() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(&disk, 80, 8.0);
        let rec = crate::manifest::RunRecord {
            run_id: run.id(),
            extent_id: run.extent().id,
            pages: run.page_count(),
            capacity_bytes: run.capacity_bytes(),
            entry_count: run.entry_count(),
            data_bytes: run.data_bytes(),
            max_seq: run.max_seq(),
            bloom_bits_per_key: 8.0,
            min_key: run.min_key().clone(),
            max_key: run.max_key().clone(),
        };
        let rebuilt = Run::recover(disk.as_ref(), &rec).unwrap();
        assert_eq!(rebuilt.entry_count(), run.entry_count());
        assert_eq!(rebuilt.metadata_bytes(), run.metadata_bytes());
        for i in 0..80u64 {
            let a = run.probe(disk.as_ref(), &key(i * 2));
            let b = rebuilt.probe(disk.as_ref(), &key(i * 2));
            assert_eq!(a, b, "probe {i} diverged after recovery");
        }
        let before: Vec<KvEntry> = run.iter(disk.clone() as Arc<dyn Storage>).collect();
        let after: Vec<KvEntry> = rebuilt.iter(disk.clone() as Arc<dyn Storage>).collect();
        assert_eq!(before, after);
        // A record whose expectations disagree with the pages is rejected.
        let bad = crate::manifest::RunRecord {
            entry_count: rec.entry_count + 1,
            ..rec
        };
        assert!(Run::recover(disk.as_ref(), &bad).is_err());
    }

    #[test]
    fn zero_bits_run_still_correct() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(&disk, 30, 0.0);
        let r = run.probe(disk.as_ref(), &key(4));
        assert!(matches!(r.outcome, ProbeOutcome::Found(_)));
        // In-range misses always pay a page read without a filter.
        let r = run.probe(disk.as_ref(), &key(5));
        assert_eq!(r.outcome, ProbeOutcome::FalsePositive);
        assert_eq!(r.pages_read, 1);
    }
}
