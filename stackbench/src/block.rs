//! `block-ycsb-a`: YCSB-A (50 % read / 50 % update, zipfian θ = 0.99)
//! over OX-Block, all I/O through the I/O scheduler (deadline arbiter):
//! user I/O in a user tenant, GC relocation in the GC class.

use crate::keys::{check_record, record, Zipfian};
use crate::layers::{self, MediaSide, Probe, TimedMedia};
use crate::loadgen::{Bench, Mix, Op, Outcome, Run, Tally, CLIENTS};
use crate::stack::{device_counters, device_turned_over, Counters, Workload};
use iosched::{ArbiterKind, IoScheduler, SchedConfig, SchedMedia, SharedScheduler, TenantConfig};
use ocssd::{DeviceConfig, OcssdDevice, SharedDevice, SECTOR_BYTES};
use ox_block::{BlockFtl, BlockFtlConfig};
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimDuration, SimTime};
use std::sync::Arc;

/// Records in the population.
pub const RECORDS: u64 = 4096;
/// 4 KB pages per record (12 KB records; the device pads each write to its
/// 96 KB `ws_min`).
const RECORD_PAGES: u64 = 3;
/// YCSB-A read share.
const READ_SHARE: f64 = 0.5;
/// Ops per client per window.
const OPS_PER_CLIENT: u64 = 512;

/// OX-Block over the scheduler over the device.
pub struct BlockStack {
    ftl: BlockFtl,
    dev: SharedDevice,
    sched: SharedScheduler,
    zipf: Zipfian,
    /// Latest acknowledged version per record (0 = never written).
    shadow: Vec<u32>,
    /// Next record each client loads.
    load_next: [u64; CLIENTS],
}

impl Bench for BlockStack {
    fn next_op(&mut self, mix: Mix, client: usize, rng: &mut Prng) -> Op {
        match mix {
            Mix::Load => {
                let id = self.load_next[client];
                self.load_next[client] += CLIENTS as u64;
                Op::Put(id)
            }
            Mix::Ycsb if rng.gen_f64() < READ_SHARE => Op::Get(self.zipf.next_id(rng)),
            Mix::Ycsb => Op::Put(self.zipf.next_id(rng)),
            Mix::Fill | Mix::ReadRandom => unreachable!("block-ycsb-a issues YCSB ops only"),
        }
    }

    fn exec(&mut self, op: Op, now: SimTime) -> Outcome {
        let bytes = (RECORD_PAGES as usize) * SECTOR_BYTES;
        match op {
            Op::Put(id) => {
                let ver = self.shadow[id as usize] + 1;
                let data = record(id, ver, bytes);
                let ftl = &mut self.ftl;
                let w = layers::timed_virt(
                    Probe::BlockWrite,
                    now,
                    || ftl.write(now, id * RECORD_PAGES, &data),
                    |r| r.as_ref().ok().map(|w| w.done),
                );
                match w {
                    Ok(w) => {
                        self.shadow[id as usize] = ver;
                        Outcome::Done(w.done)
                    }
                    Err(e) => Outcome::Failed(e.to_string()),
                }
            }
            Op::Get(id) => {
                let mut buf = vec![0u8; bytes];
                let mut done = now;
                for (page, out) in buf.chunks_mut(SECTOR_BYTES).enumerate() {
                    let ftl = &mut self.ftl;
                    let lpn = id * RECORD_PAGES + page as u64;
                    match layers::timed(Probe::BlockRead, || ftl.read(now, lpn, out)) {
                        Ok(c) => done = done.max(c.done),
                        Err(e) => return Outcome::Failed(e.to_string()),
                    }
                }
                match check_record(id, self.shadow[id as usize], &buf) {
                    Ok(()) => Outcome::Done(done),
                    Err(msg) => Outcome::Wrong(msg),
                }
            }
        }
    }

    fn background(&mut self, _worker: usize, now: SimTime) -> Result<Option<SimTime>, String> {
        let ftl = &mut self.ftl;
        if let Some(done) = layers::timed(Probe::BlockCheckpoint, || ftl.maybe_checkpoint(now))
            .map_err(|e| format!("checkpoint: {e}"))?
        {
            return Ok(Some(done));
        }
        let pass =
            layers::timed(Probe::BlockGc, || ftl.maybe_gc(now)).map_err(|e| format!("gc: {e}"))?;
        Ok(pass.map(|p| p.done))
    }

    fn workers(&self) -> Vec<SimDuration> {
        vec![SimDuration::from_micros(500)]
    }
}

impl Workload for BlockStack {
    const WARMUP_WINDOWS: usize = 16;
    const VIRTUAL_WINDOWS: usize = 16;

    fn build() -> (Self, SimTime) {
        // The paper TLC drive at 1/134 of its chunks and 1/8 chunk size:
        // 11 chunks of 3 MB per PU (1 GB), 96 KB write unit.
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(134, 8)));
        let raw: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let mut sched = IoScheduler::new(
            TimedMedia::wrap(raw, MediaSide::Device),
            SchedConfig::with_arbiter(ArbiterKind::Deadline),
        );
        let user = sched.add_tenant(TenantConfig::new("user").depth(4096));
        let gc = sched.add_tenant(TenantConfig::new("gc").depth(4096).gc_class());
        let sched = SharedScheduler::new(sched);
        let user_media = TimedMedia::wrap(
            Arc::new(SchedMedia::new(sched.clone(), user)),
            MediaSide::SchedUser,
        );
        let gc_media = TimedMedia::wrap(
            Arc::new(SchedMedia::new(sched.clone(), gc)),
            MediaSide::SchedGc,
        );
        let capacity = RECORDS * RECORD_PAGES * SECTOR_BYTES as u64;
        let (mut ftl, t) = BlockFtl::format(
            user_media,
            BlockFtlConfig::with_capacity(capacity),
            SimTime::ZERO,
        )
        .expect("format OX-Block");
        ftl.set_gc_io_media(gc_media);
        let mut load_next = [0u64; CLIENTS];
        for (c, next) in load_next.iter_mut().enumerate() {
            *next = c as u64;
        }
        let stack = BlockStack {
            ftl,
            dev,
            sched,
            zipf: Zipfian::new(RECORDS, 0.99),
            shadow: vec![0; RECORDS as usize],
            load_next,
        };
        (stack, t)
    }

    fn load(run: &mut Run<Self>) -> Tally {
        run.phase(Mix::Load, RECORDS / CLIENTS as u64)
    }

    fn window(run: &mut Run<Self>) -> Tally {
        run.phase(Mix::Ycsb, OPS_PER_CLIENT)
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        device_counters(&self.dev, &mut c);
        let s = self.ftl.stats();
        c.insert("user_bytes", s.user_writes.bytes() as f64);
        c.insert(
            "block.pad_bytes",
            (s.physical_user_writes.bytes() - s.user_writes.bytes()) as f64,
        );
        c.insert("block.gc_bytes", s.gc_writes.bytes() as f64);
        c.insert("block.wal_bytes", s.metadata_writes.bytes() as f64);
        c.insert("block.gc_passes", s.gc_passes as f64);
        c.insert("block.checkpoints", s.checkpoints as f64);
        let ss = self.sched.stats();
        c.insert("sched.gc_cmds", ss.gc_dispatched as f64);
        c.insert("sched.cmds", ss.dispatched as f64);
        c
    }

    fn warmed(&self, c: &Counters) -> bool {
        device_turned_over(c)
    }
}
