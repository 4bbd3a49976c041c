//! `lsm-fill-read`: db_bench fillseq then readrandom over lsmkv on
//! LightLSM (paper §4.3), vertical placement, 16 B keys and 1 KB values,
//! on the Figure 5 device with the Figure 5 `DbConfig`.
//!
//! Each client fills its own contiguous key range in key order. The range
//! is fixed, so once a client reaches its end it starts again at the
//! beginning (db_bench fillseq, then overwrite in key order): the database
//! stops growing and compaction can reach a steady state.

use crate::layers::{self, MediaSide, Probe, TimedMedia, TimedStore};
use crate::loadgen::{Bench, Mix, Op, Outcome, Run, Tally, CLIENTS};
use crate::stack::{device_counters, Counters, Workload};
use lightlsm::{LightLsm, LightLsmConfig, Placement};
use lsmkv::{Db, DbConfig, LightLsmStore, PutOutcome, SharedDb, TableStore};
use ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimDuration, SimTime};
use std::sync::Arc;

/// fillseq puts per client per window (8 × 6144 × 1 KB = 48 MB: more than
/// the 44 MB of memtables the write path may buffer, so every window's fill
/// reaches the flush- and compaction-bound regime).
const FILL_PER_CLIENT: u64 = 6144;
/// Keys per client range: one window's fill, so every window overwrites
/// the whole 48 MB database once (the L1 target; its overwritten versions
/// keep L2 in use).
const KEYS_PER_CLIENT: u64 = FILL_PER_CLIENT;
/// readrandom gets per client per window.
const READS_PER_CLIENT: u64 = 512;
/// Value bytes (db_bench `--value_size=1024`).
const VALUE_BYTES: usize = 1024;
/// Key bytes (db_bench 16-byte keys).
const KEY_BYTES: usize = 16;
/// Distance between the clients' key ranges.
const KEY_STRIDE: u64 = 1_000_000_000_000;
/// Longest the background may take to drain between fill and readrandom.
const SETTLE_LIMIT: SimDuration = SimDuration::from_secs(60);
/// Background flush and compaction workers (db_bench with 8 threads).
const FLUSHERS: usize = 8;
const COMPACTORS: usize = 8;

fn key(id: u64) -> [u8; KEY_BYTES] {
    let mut k = [0u8; KEY_BYTES];
    k.copy_from_slice(format!("{id:016}").as_bytes());
    k
}

fn value(key: &[u8]) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_BYTES];
    v[..KEY_BYTES].copy_from_slice(key);
    v
}

/// The Figure 5 options: memtable = SSTable = one full-width stripe.
fn db_config() -> DbConfig {
    DbConfig {
        memtable_bytes: 11 * 512 * 1024,
        max_immutables: 8,
        l0_compaction_trigger: 4,
        l0_slowdown: 8,
        l0_stall: 12,
        level_base_blocks: 512,
        level_multiplier: 8,
        max_levels: 3,
        table_bytes: 6 * 1024 * 1024,
        ..DbConfig::default()
    }
}

/// lsmkv over LightLSM over the device, with boundaries between each.
pub struct LsmStack {
    db: SharedDb,
    dev: SharedDevice,
    /// Next fill index per client.
    issued: [u64; CLIENTS],
    /// Acknowledged fill puts per client; keys `0..acked` of the range
    /// (all of it once wrapped) hold values.
    acked: [u64; CLIENTS],
}

impl LsmStack {
    /// When the last queued NAND operation on any parallel unit finishes.
    fn device_busy_until(&self) -> SimTime {
        let pus = self.dev.geometry().total_pus();
        (0..pus)
            .map(|pu| self.dev.pu_busy_until(pu))
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

impl Bench for LsmStack {
    fn next_op(&mut self, mix: Mix, client: usize, rng: &mut Prng) -> Op {
        match mix {
            Mix::Fill => {
                let i = self.issued[client] % KEYS_PER_CLIENT;
                self.issued[client] += 1;
                Op::Put(client as u64 * KEY_STRIDE + i)
            }
            Mix::ReadRandom => {
                let written = self.acked.map(|a| a.min(KEYS_PER_CLIENT));
                let mut pick = rng.gen_range(written.iter().sum());
                let mut c = 0;
                while pick >= written[c] {
                    pick -= written[c];
                    c += 1;
                }
                Op::Get(c as u64 * KEY_STRIDE + pick)
            }
            Mix::Load | Mix::Ycsb => unreachable!("lsm-fill-read issues fill and readrandom only"),
        }
    }

    fn exec(&mut self, op: Op, now: SimTime) -> Outcome {
        match op {
            Op::Put(id) => {
                let k = key(id);
                match layers::timed(Probe::LsmPut, || self.db.put(now, &k, &value(&k))) {
                    Ok(PutOutcome::Done(t)) => {
                        self.acked[(id / KEY_STRIDE) as usize] += 1;
                        Outcome::Done(t)
                    }
                    Ok(PutOutcome::Stalled(retry)) => Outcome::Stalled(retry),
                    Err(e) => Outcome::Failed(e.to_string()),
                }
            }
            Op::Get(id) => {
                let k = key(id);
                match layers::timed(Probe::LsmGet, || self.db.get(now, &k)) {
                    Ok((Some(v), t)) if v.len() == VALUE_BYTES && v[..KEY_BYTES] == k => {
                        Outcome::Done(t)
                    }
                    Ok((v, _)) => Outcome::Wrong(format!(
                        "key {id}: {}",
                        v.map_or("missing".to_string(), |v| format!(
                            "{} bytes headed {:?}",
                            v.len(),
                            String::from_utf8_lossy(&v[..KEY_BYTES.min(v.len())])
                        ))
                    )),
                    Err(e) => Outcome::Failed(e.to_string()),
                }
            }
        }
    }

    fn background(&mut self, worker: usize, now: SimTime) -> Result<Option<SimTime>, String> {
        let r = if worker < FLUSHERS {
            layers::timed(Probe::LsmFlush, || self.db.flush_once(now))
        } else {
            layers::timed(Probe::LsmCompact, || self.db.compact_once(now))
        };
        r.map_err(|e| e.to_string())
    }

    fn workers(&self) -> Vec<SimDuration> {
        let mut w = vec![SimDuration::from_micros(200); FLUSHERS];
        w.extend(vec![SimDuration::from_micros(500); COMPACTORS]);
        w
    }
}

impl Workload for LsmStack {
    const WARMUP_WINDOWS: usize = 12;
    const VIRTUAL_WINDOWS: usize = 16;

    fn build() -> (Self, SimTime) {
        // Figure 5's device: 192 KB chunks, 4.5 GB, 6 MB full-width tables.
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
            Geometry::paper_tlc_scaled(2, 128),
        )));
        let raw: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (ftl, t) = LightLsm::format(
            TimedMedia::wrap(raw, MediaSide::Device),
            LightLsmConfig {
                placement: Placement::Vertical,
                ..LightLsmConfig::default()
            },
            SimTime::ZERO,
        )
        .expect("format LightLSM");
        let store: Arc<dyn TableStore> = Arc::new(LightLsmStore::new(ftl));
        let db = SharedDb::new(Db::new(TimedStore::wrap(store), db_config()));
        let stack = LsmStack {
            db,
            dev,
            issued: [0; CLIENTS],
            acked: [0; CLIENTS],
        };
        (stack, t)
    }

    fn load(_run: &mut Run<Self>) -> Tally {
        // fillseq starts from an empty database: warm-up windows fill it.
        Tally::default()
    }

    /// fillseq, then (as db_bench runs them) readrandom over the database
    /// the fill left, once its flushes and compactions have finished and
    /// the device has programmed everything they wrote. The background
    /// workers restart with each fill, so how long the reads (whose keys
    /// the seed picks) took never shifts the fill's background schedule.
    fn window(run: &mut Run<Self>) -> Tally {
        run.restart_background();
        let mut t = run.phase(Mix::Fill, FILL_PER_CLIENT);
        run.bench.borrow().db.seal_memtable();
        run.settle(SETTLE_LIMIT, |s, now| {
            s.db.has_background_work() || s.device_busy_until() > now
        });
        t.merge(&run.phase(Mix::ReadRandom, READS_PER_CLIENT));
        t
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        device_counters(&self.dev, &mut c);
        let s = self.db.stats();
        let cs = self.db.compaction_stats();
        c.insert(
            "user_bytes",
            (s.puts * (KEY_BYTES + VALUE_BYTES) as u64) as f64,
        );
        c.insert("lsm.puts", s.puts as f64);
        c.insert("lsm.gets", s.gets as f64);
        c.insert("lsm.slowdowns", s.slowdowns as f64);
        c.insert("lsm.stalls", s.stalls as f64);
        c.insert("lsm.get_blocks_read", s.get_blocks_read as f64);
        c.insert("lsm.bloom_skips", s.bloom_skips as f64);
        c.insert("lsm.compactions", cs.compactions as f64);
        c.insert("lsm.flushes", cs.flushes as f64);
        c.insert("lsm.compaction_ns", cs.compaction_nanos as f64);
        c
    }

    fn warmed(&self, _c: &Counters) -> bool {
        self.acked.iter().all(|&a| a >= KEYS_PER_CLIENT)
    }
}
