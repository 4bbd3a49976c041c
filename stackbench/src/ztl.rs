//! `ztl-ycsb-b`: YCSB-B (95 % read / 5 % update, zipfian θ = 0.99) over
//! the zone-translation layer on OX-ZNS, one record = one append unit's
//! payload.

use crate::keys::{check_record, record, Zipfian};
use crate::layers::{self, MediaSide, Probe, TimedMedia};
use crate::loadgen::{Bench, Mix, Op, Outcome, Run, Tally, CLIENTS};
use crate::stack::{device_counters, device_turned_over, Counters, Workload};
use ocssd::{CellType, DeviceConfig, Geometry, OcssdDevice, SharedDevice, SECTOR_BYTES};
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimDuration, SimTime};
use oxztl::{ZtlConfig, ZtlFtl};
use std::sync::Arc;

/// Records in the population.
pub const RECORDS: u64 = 3072;
/// Sectors per record: the data payload of one append unit (a 4-sector
/// write unit less its header sector).
const RECORD_SECTORS: u64 = 3;
/// YCSB-B read share.
const READ_SHARE: f64 = 0.95;
/// Ops per client per window.
const OPS_PER_CLIENT: u64 = 2048;

/// The cross-interface ablation's device: small SLC chunks and a 4-sector
/// write unit, so zones recycle within a few thousand operations.
fn geometry() -> Geometry {
    Geometry {
        num_groups: 4,
        pus_per_group: 2,
        chunks_per_pu: 40,
        sectors_per_chunk: 96,
        ws_min: 4,
        mw_cunits: 8,
        cell: CellType::Slc,
        planes: 1,
        sectors_per_page: 4,
        endurance: 10_000,
    }
}

/// The zone-translation layer over the device.
pub struct ZtlStack {
    ftl: ZtlFtl,
    dev: SharedDevice,
    zipf: Zipfian,
    /// Latest acknowledged version per record (0 = never written).
    shadow: Vec<u32>,
    /// Next record each client loads.
    load_next: [u64; CLIENTS],
}

impl Bench for ZtlStack {
    fn next_op(&mut self, mix: Mix, client: usize, rng: &mut Prng) -> Op {
        match mix {
            Mix::Load => {
                let id = self.load_next[client];
                self.load_next[client] += CLIENTS as u64;
                Op::Put(id)
            }
            Mix::Ycsb if rng.gen_f64() < READ_SHARE => Op::Get(self.zipf.next_id(rng)),
            Mix::Ycsb => Op::Put(self.zipf.next_id(rng)),
            Mix::Fill | Mix::ReadRandom => unreachable!("ztl-ycsb-b issues YCSB ops only"),
        }
    }

    fn exec(&mut self, op: Op, now: SimTime) -> Outcome {
        let bytes = RECORD_SECTORS as usize * SECTOR_BYTES;
        let lpn = |id: u64| id * RECORD_SECTORS;
        let ftl = &mut self.ftl;
        match op {
            Op::Put(id) => {
                let ver = self.shadow[id as usize] + 1;
                let data = record(id, ver, bytes);
                match layers::timed(Probe::ZtlWrite, || ftl.write_sectors(now, lpn(id), &data)) {
                    Ok(done) => {
                        self.shadow[id as usize] = ver;
                        Outcome::Done(done)
                    }
                    Err(e) => Outcome::Failed(e.to_string()),
                }
            }
            Op::Get(id) => {
                let mut buf = vec![0u8; bytes];
                let r = layers::timed(Probe::ZtlRead, || {
                    ftl.read_sectors(now, lpn(id), RECORD_SECTORS as u32, &mut buf)
                });
                match r {
                    Ok(done) => match check_record(id, self.shadow[id as usize], &buf) {
                        Ok(()) => Outcome::Done(done),
                        Err(msg) => Outcome::Wrong(msg),
                    },
                    Err(e) => Outcome::Failed(e.to_string()),
                }
            }
        }
    }

    fn background(&mut self, _worker: usize, now: SimTime) -> Result<Option<SimTime>, String> {
        let ftl = &mut self.ftl;
        layers::timed(Probe::ZtlGc, || {
            ftl.ingest_media_events();
            let before = ftl.stats().gc_passes;
            match ftl.maybe_gc(now) {
                Ok(done) if ftl.stats().gc_passes > before => Ok(Some(done)),
                Ok(_) => Ok(None),
                Err(e) => Err(format!("gc: {e}")),
            }
        })
    }

    fn workers(&self) -> Vec<SimDuration> {
        vec![SimDuration::from_micros(500)]
    }
}

impl Workload for ZtlStack {
    const WARMUP_WINDOWS: usize = 8;
    const VIRTUAL_WINDOWS: usize = 16;

    fn build() -> (Self, SimTime) {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geometry())));
        let raw: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (ftl, t) = ZtlFtl::format(
            TimedMedia::wrap(raw, MediaSide::Device),
            ZtlConfig::default(),
            SimTime::ZERO,
        )
        .expect("format oxztl");
        let mut load_next = [0u64; CLIENTS];
        for (c, next) in load_next.iter_mut().enumerate() {
            *next = c as u64;
        }
        let stack = ZtlStack {
            ftl,
            dev,
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
        c.insert("user_bytes", (s.user_sectors * SECTOR_BYTES as u64) as f64);
        c.insert("ztl.user_sectors", s.user_sectors as f64);
        c.insert("ztl.phys_sectors", s.phys_sectors as f64);
        c.insert("ztl.gc_relocated_sectors", s.gc_relocated_sectors as f64);
        c.insert("ztl.gc_passes", s.gc_passes as f64);
        c.insert("ztl.zone_resets", s.zone_resets as f64);
        c
    }

    fn warmed(&self, c: &Counters) -> bool {
        device_turned_over(c)
    }
}
