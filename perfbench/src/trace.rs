//! Spans recorded from outside the program: a preallocated in-memory
//! buffer, timing wrappers around the public `Storage` and `Tuner`
//! traits, and the summaries drawn from the buffer after a run.
//!
//! A span's parent is the span open on the same thread when it began:
//! device under cache on a shard worker, tune under `run_mission` on the
//! calling thread. Work a shard worker does for a client request runs on
//! another thread, so from out here it cannot be linked to the request's
//! span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ruskey::stats::MissionReport;
use ruskey::tuner::{TreeObservation, Tuner};
use ruskey_storage::{
    CostModel, Extent, IoCharge, PowerCutPoint, Storage, StorageMetrics, VirtualClock,
};

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    ClientGet = 1,
    ClientPut,
    ClientScan,
    Mission,
    Tune,
    CacheRead,
    CacheWrite,
    CacheSync,
    DeviceRead,
    DeviceWrite,
    DeviceSync,
}

impl Kind {
    const ALL: [Kind; 11] = [
        Kind::ClientGet,
        Kind::ClientPut,
        Kind::ClientScan,
        Kind::Mission,
        Kind::Tune,
        Kind::CacheRead,
        Kind::CacheWrite,
        Kind::CacheSync,
        Kind::DeviceRead,
        Kind::DeviceWrite,
        Kind::DeviceSync,
    ];

    fn from_code(code: u8) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| *k as u8 == code)
    }

    /// True for spans taken by the wrapper directly above `BlockCache`:
    /// the outermost storage spans, which contain the device spans.
    pub fn is_cache(self) -> bool {
        matches!(self, Kind::CacheRead | Kind::CacheWrite | Kind::CacheSync)
    }
}

/// One finished span. `parent` indexes the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub thread: u16,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The span buffer: fixed capacity, three words per slot. A slot is
/// claimed when its span opens (so children can name it) and written once
/// when it closes; readers only look after the run's threads handed their
/// work back through a channel or join, which orders the writes first.
struct Tracer {
    base: Instant,
    slots: Vec<[AtomicU64; 3]>,
    next: AtomicUsize,
    dropped: AtomicU64,
    active: AtomicBool,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u16 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as u16;
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Allocates the span buffer (lazily backed: untouched slots cost no
/// memory); the first call wins. Spans are only recorded between
/// [`start`] and [`stop`].
pub fn install(capacity: usize) {
    if TRACER.get().is_some() {
        return;
    }
    let slots = (0..capacity)
        .map(|_| [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)])
        .collect();
    let tracer = Tracer {
        base: Instant::now(),
        slots,
        next: AtomicUsize::new(0),
        dropped: AtomicU64::new(0),
        active: AtomicBool::new(false),
    };
    let _ = TRACER.set(tracer);
}

/// Starts recording (the timed window opens).
pub fn start() {
    if let Some(t) = TRACER.get() {
        t.active.store(true, Ordering::SeqCst);
    }
}

/// Stops recording (the timed window closed).
pub fn stop() {
    if let Some(t) = TRACER.get() {
        t.active.store(false, Ordering::SeqCst);
    }
}

fn recording() -> Option<&'static Tracer> {
    TRACER.get().filter(|t| t.active.load(Ordering::Relaxed))
}

/// Runs `f` inside a span of `kind` when recording, else just runs it.
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let Some(t) = recording() else {
        return f();
    };
    let slot = t.next.fetch_add(1, Ordering::Relaxed);
    if slot >= t.slots.len() {
        t.dropped.fetch_add(1, Ordering::Relaxed);
        return f();
    }
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let p = o.last().copied();
        o.push(slot as u32);
        p
    });
    let start = t.base.elapsed().as_nanos() as u64;
    let out = f();
    let dur = (t.base.elapsed().as_nanos() as u64).saturating_sub(start);
    OPEN.with(|o| o.borrow_mut().pop());
    let tag = (kind as u64) << 56
        | u64::from(THREAD.with(|t| *t)) << 40
        | parent.map_or(0, |p| u64::from(p) + 1);
    let s = &t.slots[slot];
    s[0].store(start, Ordering::Relaxed);
    s[1].store(dur, Ordering::Relaxed);
    s[2].store(tag, Ordering::Relaxed);
    out
}

/// The spans by slot (a slot whose span never closed is `None`, so
/// parent indices stay valid), plus how many spans did not fit.
pub fn drain() -> (Vec<Option<Span>>, u64) {
    let Some(t) = TRACER.get() else {
        return (Vec::new(), 0);
    };
    let used = t.next.load(Ordering::SeqCst).min(t.slots.len());
    let spans = t.slots[..used]
        .iter()
        .map(|s| {
            let tag = s[2].load(Ordering::SeqCst);
            Some(Span {
                kind: Kind::from_code((tag >> 56) as u8)?,
                thread: (tag >> 40) as u16,
                parent: match tag & 0xFFFF_FFFF {
                    0 => None,
                    p => Some((p - 1) as u32),
                },
                start_ns: s[0].load(Ordering::SeqCst),
                dur_ns: s[1].load(Ordering::SeqCst),
            })
        })
        .collect();
    (spans, t.dropped.load(Ordering::SeqCst))
}

/// Writes spans by slot as little-endian records of (kind u8, thread u16,
/// parent slot u32 with `u32::MAX` for none, start u64, duration u64).
pub fn write_spans(path: &std::path::Path, spans: &[Option<Span>]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(spans.len() * 23);
    for slot in spans {
        // An unfinished slot keeps its place (kind 0) so parents resolve.
        let Some(s) = slot else {
            buf.extend_from_slice(&[0u8; 23]);
            continue;
        };
        buf.push(s.kind as u8);
        buf.extend_from_slice(&s.thread.to_le_bytes());
        buf.extend_from_slice(&s.parent.unwrap_or(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&s.start_ns.to_le_bytes());
        buf.extend_from_slice(&s.dur_ns.to_le_bytes());
    }
    std::fs::write(path, buf)
}

/// Where a [`Timed`] storage wrapper sits in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Directly above `BlockCache`: every page access the engine makes.
    Cache,
    /// Directly above `FileDisk`: only what reaches the files.
    Device,
}

/// A `Storage` that times reads, writes and syncs of `inner` and
/// forwards every method — provided ones included — returning the inner
/// result unchanged.
pub struct Timed<S: Storage> {
    inner: std::sync::Arc<S>,
    layer: Layer,
}

impl<S: Storage> Timed<S> {
    pub fn new(inner: std::sync::Arc<S>, layer: Layer) -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self { inner, layer })
    }

    fn kinds(&self) -> (Kind, Kind, Kind) {
        match self.layer {
            Layer::Cache => (Kind::CacheRead, Kind::CacheWrite, Kind::CacheSync),
            Layer::Device => (Kind::DeviceRead, Kind::DeviceWrite, Kind::DeviceSync),
        }
    }
}

impl<S: Storage> Storage for Timed<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self, pages: u32) -> Extent {
        self.inner.allocate(pages)
    }

    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        span(self.kinds().1, || self.inner.write_page(ext, idx, data))
    }

    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge> {
        span(self.kinds().0, || self.inner.try_read_page(ext, idx, buf))
    }

    fn read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> IoCharge {
        span(self.kinds().0, || self.inner.read_page(ext, idx, buf))
    }

    fn sync_extent(&self, ext: Extent) -> std::io::Result<IoCharge> {
        span(self.kinds().2, || self.inner.sync_extent(ext))
    }

    fn sync_dir(&self) -> std::io::Result<IoCharge> {
        span(self.kinds().2, || self.inner.sync_dir())
    }

    fn collect_orphans(&self, live: &[u64]) -> std::io::Result<Vec<u64>> {
        self.inner.collect_orphans(live)
    }

    fn arm_power_cut(&self, point: PowerCutPoint, after: u64) {
        self.inner.arm_power_cut(point, after);
    }

    fn free(&self, ext: Extent) {
        self.inner.free(ext);
    }

    fn metrics(&self) -> StorageMetrics {
        self.inner.metrics()
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

/// A `Tuner` that times `tune` and forwards every method unchanged.
pub struct TimedTuner(pub Box<dyn Tuner>);

impl Tuner for TimedTuner {
    fn name(&self) -> String {
        self.0.name()
    }

    fn tune(&mut self, report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)> {
        span(Kind::Tune, || self.0.tune(report, obs))
    }

    fn model_update_ns(&self) -> u64 {
        self.0.model_update_ns()
    }

    fn converged(&self) -> bool {
        self.0.converged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Records which method was called and answers with a distinctive
    /// charge, so a wrapper that fell back to a provided default (or
    /// rewrote the result) shows.
    #[derive(Default)]
    struct Probe {
        calls: Mutex<Vec<&'static str>>,
        clock: VirtualClock,
    }

    impl Probe {
        fn hit(&self, name: &'static str) {
            self.calls.lock().expect("probe lock").push(name);
        }
    }

    fn charge(ns: u64) -> IoCharge {
        IoCharge {
            ns,
            io: StorageMetrics {
                pages_read: ns + 1,
                ..StorageMetrics::default()
            },
        }
    }

    impl Storage for Probe {
        fn page_size(&self) -> usize {
            self.hit("page_size");
            77
        }
        fn allocate(&self, pages: u32) -> Extent {
            self.hit("allocate");
            Extent { id: 9, pages }
        }
        fn write_page(&self, _: Extent, _: u32, _: &[u8]) -> IoCharge {
            self.hit("write_page");
            charge(3)
        }
        fn try_read_page(&self, _: Extent, _: u32, _: &mut Vec<u8>) -> std::io::Result<IoCharge> {
            self.hit("try_read_page");
            Ok(charge(4))
        }
        fn read_page(&self, _: Extent, _: u32, _: &mut Vec<u8>) -> IoCharge {
            self.hit("read_page");
            charge(5)
        }
        fn sync_extent(&self, _: Extent) -> std::io::Result<IoCharge> {
            self.hit("sync_extent");
            Ok(charge(6))
        }
        fn sync_dir(&self) -> std::io::Result<IoCharge> {
            self.hit("sync_dir");
            Ok(charge(7))
        }
        fn collect_orphans(&self, live: &[u64]) -> std::io::Result<Vec<u64>> {
            self.hit("collect_orphans");
            Ok(live.iter().map(|x| x + 1).collect())
        }
        fn arm_power_cut(&self, _: PowerCutPoint, _: u64) {
            self.hit("arm_power_cut");
        }
        fn free(&self, _: Extent) {
            self.hit("free");
        }
        fn metrics(&self) -> StorageMetrics {
            self.hit("metrics");
            charge(8).io
        }
        fn clock(&self) -> &VirtualClock {
            self.hit("clock");
            &self.clock
        }
        fn cost_model(&self) -> CostModel {
            self.hit("cost_model");
            CostModel::NVME
        }
        fn charge_cpu(&self, _: u64) {
            self.hit("charge_cpu");
        }
        fn live_pages(&self) -> u64 {
            self.hit("live_pages");
            11
        }
    }

    #[test]
    fn storage_wrapper_forwards_every_method_unchanged() {
        let probe = Arc::new(Probe::default());
        let w = Timed::new(Arc::clone(&probe), Layer::Cache);
        let ext = Extent { id: 1, pages: 2 };
        let mut buf = Vec::new();
        assert_eq!(w.page_size(), 77);
        assert_eq!(w.allocate(2), Extent { id: 9, pages: 2 });
        assert_eq!(w.write_page(ext, 0, b"x"), charge(3));
        assert_eq!(w.try_read_page(ext, 0, &mut buf).unwrap(), charge(4));
        assert_eq!(w.read_page(ext, 0, &mut buf), charge(5));
        assert_eq!(w.sync_extent(ext).unwrap(), charge(6));
        assert_eq!(w.sync_dir().unwrap(), charge(7));
        assert_eq!(w.collect_orphans(&[1, 2]).unwrap(), vec![2, 3]);
        w.arm_power_cut(PowerCutPoint::DirUnsynced, 1);
        w.free(ext);
        assert_eq!(w.metrics(), charge(8).io);
        assert!(std::ptr::eq(w.clock(), &probe.clock));
        assert_eq!(w.cost_model(), CostModel::NVME);
        w.charge_cpu(5);
        assert_eq!(w.live_pages(), 11);
        assert_eq!(
            *probe.calls.lock().unwrap(),
            [
                "page_size",
                "allocate",
                "write_page",
                "try_read_page",
                "read_page",
                "sync_extent",
                "sync_dir",
                "collect_orphans",
                "arm_power_cut",
                "free",
                "metrics",
                "clock",
                "cost_model",
                "charge_cpu",
                "live_pages",
            ]
        );
    }

    struct ProbeTuner;

    impl Tuner for ProbeTuner {
        fn name(&self) -> String {
            "probe".into()
        }
        fn tune(&mut self, _: &MissionReport, _: &TreeObservation) -> Vec<(usize, u32)> {
            vec![(0, 3), (2, 7)]
        }
        fn model_update_ns(&self) -> u64 {
            42
        }
        fn converged(&self) -> bool {
            false
        }
    }

    #[test]
    fn tuner_wrapper_forwards_every_method_unchanged() {
        let mut t = TimedTuner(Box::new(ProbeTuner));
        let obs = TreeObservation {
            policies: vec![1],
            fills: vec![0.5],
            run_counts: vec![1],
            size_ratio: 10,
            level_count: 1,
        };
        assert_eq!(t.name(), "probe");
        assert_eq!(
            t.tune(&MissionReport::default(), &obs),
            vec![(0, 3), (2, 7)]
        );
        assert_eq!(t.model_update_ns(), 42);
        assert!(!t.converged());
    }
}
