//! Layer-boundary host timing.
//!
//! The benchmark times calls at each layer boundary from outside the
//! program: around the top-level store calls and the maintenance calls, in
//! a [`TimedStore`] between `lsmkv::Db` and LightLSM, and in [`TimedMedia`]
//! wrappers above the I/O scheduler and above the device. Frames nest on
//! one per-thread stack, so a layer's *self* time is its inclusive time
//! minus the inclusive time of the boundaries crossed beneath it; whatever
//! no boundary covers (executor, actors, generator, checks) is the `sim`
//! remainder.
//!
//! Timing is off unless [`set_enabled`] turned it on; a disabled boundary
//! is a thread-local flag test and a direct call. The same wrappers also
//! collect the virtual-time figures only a boundary can see (per-call
//! virtual latency, scheduler queueing delay), again only while enabled.

use lsmkv::{StoreError, TableStore};
use ocssd::{ChunkAddr, ChunkHealth, ChunkInfo, Completion, Geometry, MediaEvent, Ppa, Result};
use ox_core::Media;
use ox_sim::SimTime;
use std::cell::RefCell;
use std::sync::Arc;
// oxcheck:allow(wall_clock): the benchmark measures host time on purpose;
use std::time::Instant; // every reading goes through `host_now` below.

/// One timed boundary call kind. Each belongs to exactly one [`Layer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    LsmPut,
    LsmGet,
    LsmFlush,
    LsmCompact,
    LightFlushTable,
    LightReadBlock,
    LightDeleteTable,
    BlockWrite,
    BlockRead,
    BlockGc,
    BlockCheckpoint,
    SchedCmd,
    SchedOther,
    ZtlWrite,
    ZtlRead,
    ZtlGc,
    DevWrite,
    DevRead,
    DevCopy,
    DevReset,
    DevOther,
}

/// Number of [`Probe`] variants.
pub const PROBES: usize = 21;

/// The layers host time is split across (`sim` is the remainder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Lsmkv,
    Lightlsm,
    Oxblock,
    Iosched,
    Oxztl,
    Ocssd,
}

/// Every layer, in stack order.
pub const LAYERS: [Layer; 6] = [
    Layer::Lsmkv,
    Layer::Lightlsm,
    Layer::Oxblock,
    Layer::Iosched,
    Layer::Oxztl,
    Layer::Ocssd,
];

impl Layer {
    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Lsmkv => "lsmkv",
            Layer::Lightlsm => "lightlsm",
            Layer::Oxblock => "oxblock",
            Layer::Iosched => "iosched",
            Layer::Oxztl => "oxztl",
            Layer::Ocssd => "ocssd",
        }
    }
}

impl Probe {
    /// The layer whose self time this boundary measures.
    pub fn layer(self) -> Layer {
        use Probe::*;
        match self {
            LsmPut | LsmGet | LsmFlush | LsmCompact => Layer::Lsmkv,
            LightFlushTable | LightReadBlock | LightDeleteTable => Layer::Lightlsm,
            BlockWrite | BlockRead | BlockGc | BlockCheckpoint => Layer::Oxblock,
            SchedCmd | SchedOther => Layer::Iosched,
            ZtlWrite | ZtlRead | ZtlGc => Layer::Oxztl,
            DevWrite | DevRead | DevCopy | DevReset | DevOther => Layer::Ocssd,
        }
    }
}

/// Accumulated boundary figures since the last [`take`].
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Self host ns per probe.
    pub self_ns: [u64; PROBES],
    /// Calls per probe.
    pub calls: [u64; PROBES],
    /// Virtual ns summed over calls, per probe (call → completion).
    pub virt_ns: [u64; PROBES],
    /// Table bytes LightLSM was asked to flush by memtable flushes.
    pub flush_table_bytes: u64,
    /// Table bytes LightLSM was asked to flush by compactions.
    pub compaction_table_bytes: u64,
    /// Virtual ns each user-tenant scheduler command waited between
    /// submission and issue to the device.
    pub queue_delays_ns: Vec<u64>,
}

impl Profile {
    /// Self host ns summed over one layer's probes.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        ALL_PROBES
            .iter()
            .filter(|p| p.layer() == layer)
            .map(|&p| self.self_ns[p as usize])
            .sum()
    }

    /// Self host ns of one probe.
    pub fn self_ns(&self, p: Probe) -> u64 {
        self.self_ns[p as usize]
    }

    /// Calls of one probe.
    pub fn calls(&self, p: Probe) -> u64 {
        self.calls[p as usize]
    }

    /// Virtual ns of one probe.
    pub fn virt_ns(&self, p: Probe) -> u64 {
        self.virt_ns[p as usize]
    }

    /// Adds another window's figures.
    pub fn merge(&mut self, o: &Profile) {
        for i in 0..PROBES {
            self.self_ns[i] += o.self_ns[i];
            self.calls[i] += o.calls[i];
            self.virt_ns[i] += o.virt_ns[i];
        }
        self.flush_table_bytes += o.flush_table_bytes;
        self.compaction_table_bytes += o.compaction_table_bytes;
        self.queue_delays_ns.extend_from_slice(&o.queue_delays_ns);
    }
}

const ALL_PROBES: [Probe; PROBES] = {
    use Probe::*;
    [
        LsmPut,
        LsmGet,
        LsmFlush,
        LsmCompact,
        LightFlushTable,
        LightReadBlock,
        LightDeleteTable,
        BlockWrite,
        BlockRead,
        BlockGc,
        BlockCheckpoint,
        SchedCmd,
        SchedOther,
        ZtlWrite,
        ZtlRead,
        ZtlGc,
        DevWrite,
        DevRead,
        DevCopy,
        DevReset,
        DevOther,
    ]
};

struct Frame {
    probe: Probe,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Profiler {
    enabled: bool,
    stack: Vec<Frame>,
    profile: Profile,
    /// Submission time of the user-tenant command now inside the scheduler.
    pending_submit: Option<SimTime>,
}

thread_local! {
    static PROF: RefCell<Profiler> = RefCell::new(Profiler::default());
}

/// Reads the host clock. Host time is what the benchmark measures; it never
/// feeds back into the simulation, whose virtual figures stay exact
/// functions of (configuration, seed).
pub fn host_now() -> Instant {
    // oxcheck:allow(wall_clock): host-time measurement, outside the model.
    Instant::now()
}

/// Turns boundary timing on or off (the benchmark is single-threaded).
pub fn set_enabled(on: bool) {
    PROF.with(|p| p.borrow_mut().enabled = on);
}

/// Whether boundary timing is on.
pub fn enabled() -> bool {
    PROF.with(|p| p.borrow().enabled)
}

/// Returns and clears the figures accumulated so far.
pub fn take() -> Profile {
    PROF.with(|p| std::mem::take(&mut p.borrow_mut().profile))
}

/// Runs `f` as one call across boundary `probe`.
pub fn timed<R>(probe: Probe, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    PROF.with(|p| {
        p.borrow_mut().stack.push(Frame {
            probe,
            start: host_now(),
            child_ns: 0,
        })
    });
    let out = f();
    let end = host_now();
    PROF.with(|p| {
        let mut g = p.borrow_mut();
        let frame = g.stack.pop().expect("a timed frame is open");
        debug_assert_eq!(frame.probe, probe);
        let total = end.duration_since(frame.start).as_nanos() as u64;
        g.profile.self_ns[probe as usize] += total.saturating_sub(frame.child_ns);
        g.profile.calls[probe as usize] += 1;
        if let Some(parent) = g.stack.last_mut() {
            parent.child_ns += total;
        }
    });
    out
}

/// [`timed`] for a call that completes at a virtual time: also sums the
/// call's virtual latency under `probe`.
pub fn timed_virt<R>(
    probe: Probe,
    now: SimTime,
    f: impl FnOnce() -> R,
    done: impl Fn(&R) -> Option<SimTime>,
) -> R {
    let out = timed(probe, f);
    if let Some(t) = done(&out) {
        if enabled() {
            PROF.with(|p| {
                p.borrow_mut().profile.virt_ns[probe as usize] += t.saturating_since(now).as_nanos()
            });
        }
    }
    out
}

fn parent_probe() -> Option<Probe> {
    PROF.with(|p| p.borrow().stack.last().map(|f| f.probe))
}

fn note_table_bytes(bytes: usize) {
    if !enabled() {
        return;
    }
    let from_compaction = parent_probe() == Some(Probe::LsmCompact);
    PROF.with(|p| {
        let mut g = p.borrow_mut();
        if from_compaction {
            g.profile.compaction_table_bytes += bytes as u64;
        } else {
            g.profile.flush_table_bytes += bytes as u64;
        }
    });
}

fn note_submit(now: SimTime) {
    if enabled() {
        PROF.with(|p| p.borrow_mut().pending_submit = Some(now));
    }
}

fn note_issue(now: SimTime) {
    if !enabled() {
        return;
    }
    PROF.with(|p| {
        let mut g = p.borrow_mut();
        if let Some(sub) = g.pending_submit.take() {
            g.profile
                .queue_delays_ns
                .push(now.saturating_since(sub).as_nanos());
        }
    });
}

fn comp_done(r: &Result<Completion>) -> Option<SimTime> {
    r.as_ref().ok().map(|c| c.done)
}

/// Where a [`TimedMedia`] sits in the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MediaSide {
    /// Above a user-tenant `iosched::SchedMedia`.
    SchedUser,
    /// Above a GC-tenant `iosched::SchedMedia`.
    SchedGc,
    /// Directly above the device.
    Device,
}

/// [`Media`] pass-through that times every call at its boundary.
pub struct TimedMedia {
    inner: Arc<dyn Media>,
    side: MediaSide,
}

impl TimedMedia {
    /// Wraps `inner` as the boundary at `side`.
    pub fn wrap(inner: Arc<dyn Media>, side: MediaSide) -> Arc<dyn Media> {
        Arc::new(TimedMedia { inner, side })
    }

    fn probe(&self, data: Probe) -> Probe {
        match self.side {
            MediaSide::Device => data,
            MediaSide::SchedUser | MediaSide::SchedGc => Probe::SchedCmd,
        }
    }

    fn other(&self) -> Probe {
        match self.side {
            MediaSide::Device => Probe::DevOther,
            MediaSide::SchedUser | MediaSide::SchedGc => Probe::SchedOther,
        }
    }

    /// Brackets one data command: submission (above the scheduler) or
    /// issue (above the device) for the queueing-delay figure.
    fn data_cmd(
        &self,
        now: SimTime,
        probe: Probe,
        f: impl FnOnce() -> Result<Completion>,
    ) -> Result<Completion> {
        match self.side {
            MediaSide::SchedUser => note_submit(now),
            MediaSide::Device => note_issue(now),
            MediaSide::SchedGc => {}
        }
        timed_virt(self.probe(probe), now, f, comp_done)
    }
}

impl Media for TimedMedia {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn write(&self, now: SimTime, ppa: Ppa, data: &[u8]) -> Result<Completion> {
        self.data_cmd(now, Probe::DevWrite, || self.inner.write(now, ppa, data))
    }

    fn read(&self, now: SimTime, ppa: Ppa, sectors: u32, out: &mut [u8]) -> Result<Completion> {
        self.data_cmd(now, Probe::DevRead, || {
            self.inner.read(now, ppa, sectors, out)
        })
    }

    fn reset(&self, now: SimTime, chunk: ChunkAddr) -> Result<Completion> {
        self.data_cmd(now, Probe::DevReset, || self.inner.reset(now, chunk))
    }

    fn copy(&self, now: SimTime, srcs: &[Ppa], dst: ChunkAddr) -> Result<Completion> {
        self.data_cmd(now, Probe::DevCopy, || self.inner.copy(now, srcs, dst))
    }

    fn flush(&self, now: SimTime) -> Completion {
        timed(self.other(), || self.inner.flush(now))
    }

    fn flush_chunk(&self, now: SimTime, chunk: ChunkAddr) -> Completion {
        timed(self.other(), || self.inner.flush_chunk(now, chunk))
    }

    fn chunk_info(&self, chunk: ChunkAddr) -> ChunkInfo {
        timed(self.other(), || self.inner.chunk_info(chunk))
    }

    fn report_all(&self) -> Vec<(ChunkAddr, ChunkInfo)> {
        timed(self.other(), || self.inner.report_all())
    }

    fn drain_events(&self) -> Vec<MediaEvent> {
        timed(self.other(), || self.inner.drain_events())
    }

    fn pu_busy_until(&self, pu: u32) -> SimTime {
        timed(self.other(), || self.inner.pu_busy_until(pu))
    }

    fn chunk_health(&self, now: SimTime, chunk: ChunkAddr) -> ChunkHealth {
        timed(self.other(), || self.inner.chunk_health(now, chunk))
    }
}

/// [`TableStore`] pass-through timing the LSM → LightLSM boundary.
pub struct TimedStore {
    inner: Arc<dyn TableStore>,
}

impl TimedStore {
    /// Wraps `inner`.
    pub fn wrap(inner: Arc<dyn TableStore>) -> Arc<dyn TableStore> {
        Arc::new(TimedStore { inner })
    }
}

impl TableStore for TimedStore {
    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }

    fn table_capacity_bytes(&self) -> usize {
        self.inner.table_capacity_bytes()
    }

    fn flush_table(
        &self,
        now: SimTime,
        data: &[u8],
    ) -> std::result::Result<(u64, SimTime), StoreError> {
        note_table_bytes(data.len());
        timed_virt(
            Probe::LightFlushTable,
            now,
            || self.inner.flush_table(now, data),
            |r| r.as_ref().ok().map(|(_, t)| *t),
        )
    }

    fn read_block(
        &self,
        now: SimTime,
        id: u64,
        block: u32,
        out: &mut [u8],
    ) -> std::result::Result<SimTime, StoreError> {
        timed_virt(
            Probe::LightReadBlock,
            now,
            || self.inner.read_block(now, id, block, out),
            |r| r.as_ref().ok().copied(),
        )
    }

    fn delete_table(&self, now: SimTime, id: u64) -> std::result::Result<SimTime, StoreError> {
        timed(Probe::LightDeleteTable, || self.inner.delete_table(now, id))
    }
}
