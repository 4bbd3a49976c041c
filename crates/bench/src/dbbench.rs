//! `db_bench`-style workloads (paper §4.3, Figures 5 and 6).
//!
//! Workloads mirror the paper's setup: fill-sequential, read-sequential and
//! read-random with 1/2/4/8 clients, 16-byte keys and 1 KB values, no
//! compression and no block cache. Clients run on the shared
//! [`ClosedLoop`]; pools of background flushers and compactors run
//! alongside, so flush/compaction interference on the device shows up in
//! client latency.

use crate::driver::{ClosedLoop, OpClass, OpGen, Outcome, RunReport};
use crate::ycsb::{LsmBackend, YcsbBackend};
use lsmkv::{DbIter, SharedDb};
use ox_sim::{Prng, SimDuration, SimTime, Step};

/// The three db_bench workloads used in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sequential puts; each client owns a contiguous key range.
    FillSequential,
    /// Full-database iteration per client.
    ReadSequential,
    /// Uniform random gets over the populated key space.
    ReadRandom,
}

impl Workload {
    /// db_bench-style label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::FillSequential => "fillseq",
            Workload::ReadSequential => "readseq",
            Workload::ReadRandom => "readrandom",
        }
    }
}

/// One workload run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Which workload.
    pub workload: Workload,
    /// Concurrent clients (db_bench threads).
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: u64,
    /// Keys present in the database (read workloads).
    pub key_space: u64,
    /// Value size (1 KB in the paper).
    pub value_bytes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Throughput window for the time series (Figure 6 uses 1 s).
    pub window: SimDuration,
    /// Background flush workers (RocksDB `max_background_flushes`).
    pub flushers: usize,
    /// Background compaction workers (RocksDB `max_background_compactions`).
    pub compactors: usize,
}

impl BenchConfig {
    /// Paper-style defaults for a workload and client count.
    pub fn paper(workload: Workload, clients: usize, ops_per_client: u64) -> Self {
        BenchConfig {
            workload,
            clients,
            ops_per_client,
            key_space: clients as u64 * ops_per_client,
            value_bytes: 1024,
            seed: 0xD81,
            window: SimDuration::from_secs(1),
            // Background parallelism scales with foreground load, as
            // db_bench deployments configure max_background_jobs.
            flushers: clients.clamp(1, 8),
            compactors: clients.clamp(1, 8),
        }
    }
}

/// 16-byte db_bench key for index `i`.
pub fn bench_key(i: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    let s = format!("{i:016}");
    k.copy_from_slice(s.as_bytes());
    k
}

/// A value whose head identifies the key and whose tail is zeros (cheap for
/// the simulator to store, still verifiable).
pub fn bench_value(key: &[u8], len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let n = key.len().min(len);
    v[..n].copy_from_slice(&key[..n]);
    v
}

/// One db_bench client's operation stream.
struct DbBenchGen {
    cfg: BenchConfig,
    idx: u64,
    completed: u64,
    rng: Prng,
    /// readseq's persistent iterator: one `next` per op, restarted at the end.
    iter: Option<DbIter>,
}

impl OpGen<LsmBackend> for DbBenchGen {
    fn issue(&mut self, now: SimTime, backend: &mut LsmBackend) -> Outcome {
        let out = match self.cfg.workload {
            Workload::FillSequential => {
                // A stall retries the same key: no draw happens here.
                let key = bench_key(self.idx * self.cfg.ops_per_client + self.completed);
                let value = bench_value(&key, self.cfg.value_bytes);
                backend.put(now, &key, &value).into()
            }
            Workload::ReadRandom => {
                let key = bench_key(self.rng.gen_range(self.cfg.key_space.max(1)));
                let got = backend.get(now, &key);
                assert!(!got.failed, "readrandom get failed");
                Outcome::done(OpClass::Read, got.done)
            }
            Workload::ReadSequential => {
                let iter = self.iter.get_or_insert_with(|| backend.db().scan_from(b""));
                let mut t = now;
                match iter.next(&mut t) {
                    Ok(Some(_)) => Outcome::done(OpClass::Read, t),
                    Ok(None) => {
                        // Wrapped the keyspace: restart the scan.
                        assert!(self.completed > 0, "readseq over an empty database");
                        self.iter = None;
                        Outcome::Retry(t)
                    }
                    Err(e) => panic!("scan failed: {e}"),
                }
            }
        };
        if let Outcome::Done { .. } = out {
            self.completed += 1;
        }
        out
    }
}

/// Runs one workload against `db` starting at `start`. Returns the report
/// and the virtual time when everything (including background drain) was
/// quiescent.
pub fn run_workload(db: &SharedDb, cfg: BenchConfig, start: SimTime) -> (RunReport, SimTime) {
    let mut run = ClosedLoop::new(start, cfg.window, None);
    let rng = Prng::seed_from_u64(cfg.seed);
    let backend = LsmBackend::new(db.clone());
    for idx in 0..cfg.clients as u64 {
        let gen = DbBenchGen {
            cfg,
            idx,
            completed: 0,
            rng: rng.split(idx),
            iter: None,
        };
        run.client(start, backend.clone(), gen, cfg.ops_per_client);
    }
    for _ in 0..cfg.flushers.max(1) {
        let db = db.clone();
        run.background(start, move |now| match db.flush_once(now) {
            Ok(Some(done)) => Step::RunAt(done),
            Ok(None) => Step::RunAt(now + SimDuration::from_micros(200)),
            Err(e) => panic!("flush failed: {e}"),
        });
    }
    for _ in 0..cfg.compactors.max(1) {
        let db = db.clone();
        run.background(start, move |now| match db.compact_once(now) {
            Ok(Some(done)) => Step::RunAt(done),
            Ok(None) => Step::RunAt(now + SimDuration::from_micros(500)),
            Err(e) => panic!("compaction failed: {e}"),
        });
    }
    let report = run.run();

    // Drain background work so a follow-up workload starts quiescent.
    let mut t = report.end;
    if cfg.workload == Workload::FillSequential {
        db.seal_memtable();
    }
    loop {
        match db.flush_once(t) {
            Ok(Some(done)) => {
                t = done;
                continue;
            }
            Ok(None) => {}
            Err(e) => panic!("drain flush failed: {e}"),
        }
        match db.compact_once(t) {
            Ok(Some(done)) => {
                t = done;
                continue;
            }
            Ok(None) => break,
            Err(e) => panic!("drain compaction failed: {e}"),
        }
    }
    (report, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightlsm::{LightLsm, LightLsmConfig};
    use lsmkv::{Db, DbConfig, LightLsmStore, TableStore};
    use ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
    use ox_core::{Media, OcssdMedia};
    use ox_sim::trace::Obs;
    use std::sync::Arc;

    fn small_db(obs: &Obs) -> SharedDb {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
            Geometry::paper_tlc_scaled(22, 32),
        )));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let (ftl, _) = LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
        let cfg = DbConfig {
            memtable_bytes: 256 * 1024,
            level_base_blocks: 32,
            level_multiplier: 4,
            ..DbConfig::default()
        };
        let store: Arc<dyn TableStore> = Arc::new(LightLsmStore::new(ftl));
        let mut db = Db::new(store, cfg);
        db.set_obs(obs.clone());
        SharedDb::new(db)
    }

    #[test]
    fn db_bench_fill_then_read_workloads_run() {
        let obs = Obs::new(16);
        let db = small_db(&obs);
        let fill = BenchConfig::paper(Workload::FillSequential, 2, 1500);
        let (report, t1) = run_workload(&db, fill, SimTime::ZERO);
        assert_eq!(report.total_ops, 3000);
        assert!(report.kops_per_sec() > 0.0);
        assert!(report.series.total() == 3000);

        let read_seq = BenchConfig {
            key_space: 3000,
            ..BenchConfig::paper(Workload::ReadSequential, 2, 500)
        };
        let (rs, t2) = run_workload(&db, read_seq, t1);
        assert_eq!(rs.total_ops, 1000);

        let read_rand = BenchConfig {
            key_space: 3000,
            ..BenchConfig::paper(Workload::ReadRandom, 2, 300)
        };
        let (rr, _) = run_workload(&db, read_rand, t2);
        assert_eq!(rr.total_ops, 600);
        // The headline shape: sequential reads amortize block reads, random
        // reads pay one ~96 KB block per op.
        assert!(
            rs.kops_per_sec() > rr.kops_per_sec(),
            "readseq {} must beat readrandom {}",
            rs.kops_per_sec(),
            rr.kops_per_sec()
        );
        // Random reads over the fill find their data.
        assert!(db.stats().hits > 0);
        // db_bench shares the YCSB client loop but not its histograms.
        let snap = obs.metrics.snapshot();
        assert!(snap.counters.contains_key("lsm.flush"), "obs is wired");
        assert!(!snap.histograms.keys().any(|k| k.starts_with("ycsb.")));
    }
}
