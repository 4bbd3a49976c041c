//! Pinned virtual outputs of the closed-loop KV client driver: one small
//! cell per workload family (db_bench, YCSB, the shard mix).
//!
//! Every number here is an exact function of (config, seed) in virtual
//! time, so any change to how clients are spawned, how ops are drawn, or
//! how background work interleaves with them shows up as a mismatch. The
//! `obs` fingerprints hash the full metrics JSON of each run's shared
//! observability handle: device, FTL and store counters included.
//!
//! Only the three `*_cell` adapters know the driver's API; the expected
//! values below them must not change when the driver is refactored.

use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{SimDuration, SimTime};
use ox_workbench::lightlsm::{LightLsm, LightLsmConfig, Placement};
use ox_workbench::lsmkv::{Db, DbConfig, LightLsmStore, SharedDb, TableStore};
use ox_workbench::ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_workbench::ox_core::{Media, OcssdMedia};
use ox_workbench::oxshard::{ClusterConfig, ShardCluster};
use std::sync::Arc;

/// FNV-1a over the metrics JSON: a compact byte-identity fingerprint.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn lsm_stack(obs: &Obs) -> SharedDb {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        Geometry::paper_tlc_scaled(22, 32),
    )));
    dev.set_obs(obs.clone());
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
    let (mut ftl, _) = LightLsm::format(
        media,
        LightLsmConfig {
            placement: Placement::Horizontal,
            ..LightLsmConfig::default()
        },
        SimTime::ZERO,
    )
    .unwrap();
    ftl.set_obs(obs.clone());
    let store = Arc::new(LightLsmStore::new(ftl));
    let mut db = Db::new(
        store as Arc<dyn TableStore>,
        DbConfig {
            memtable_bytes: 256 * 1024,
            level_base_blocks: 64,
            level_multiplier: 4,
            ..DbConfig::default()
        },
    );
    db.set_obs(obs.clone());
    SharedDb::new(db)
}

/// db_bench fill → readseq → readrandom, 2 clients: per phase
/// `(total ops, duration ns, per-window completions)`, then the obs hash.
fn db_bench_cell() -> (Vec<(u64, u64, Vec<u64>)>, u64) {
    use ox_bench::dbbench::{run_workload, BenchConfig, Workload};
    let obs = Obs::new(16);
    let db = lsm_stack(&obs);
    let window = SimDuration::from_millis(5);
    let mut phases = Vec::new();
    let mut t = SimTime::ZERO;
    for (workload, ops) in [
        (Workload::FillSequential, 1500),
        (Workload::ReadSequential, 600),
        (Workload::ReadRandom, 200),
    ] {
        let mut cfg = BenchConfig::paper(workload, 2, ops);
        cfg.key_space = 3000;
        cfg.window = window;
        let (report, done) = run_workload(&db, cfg, t);
        t = done;
        let series = report.series.windows().iter().map(|w| w.count).collect();
        phases.push((report.total_ops, report.duration().as_nanos(), series));
    }
    (phases, fnv(&obs.metrics.to_json()))
}

/// YCSB over `LsmBackend`: `(ops, p50 ns, p99 ns, scanned, obs hash)`.
fn ycsb_cell(letter: &str) -> (u64, u64, u64, u64, u64) {
    use ox_bench::ycsb::{load, run_ycsb, LsmBackend, YcsbConfig, YcsbWorkload};
    let obs = Obs::new(16);
    let mut cfg = YcsbConfig::new(YcsbWorkload::parse(letter).unwrap());
    cfg.clients = 4;
    cfg.record_count = 2048;
    cfg.operations = 1024;
    let mut lsm = LsmBackend::new(lsm_stack(&obs));
    let t0 = load(&mut lsm, &cfg, SimTime::ZERO);
    let (r, _) = run_ycsb(&lsm, &cfg, &obs, t0);
    (
        r.total_ops,
        r.quantile_ns(0.50),
        r.quantile_ns(0.99),
        r.scanned_entries,
        fnv(&obs.metrics.to_json()),
    )
}

/// The shard mix on 2 shards: `(ops, end ns, per-shard p99 ns, obs hash)`.
fn shard_cell() -> (u64, u64, [u64; 2], u64) {
    use ox_bench::shard_scale::{run_mix, ShardMix};
    let obs = Obs::new(16);
    let (cluster, t0) =
        ShardCluster::new(ClusterConfig::new(2), obs.clone(), SimTime::ZERO).unwrap();
    let shared = Arc::new(Mutex::new(cluster));
    let mut mix = ShardMix::new(24, 8);
    mix.scan_fraction = 0.125;
    let r = run_mix(&shared, &mix, t0);
    (
        r.total_ops,
        r.end.as_nanos(),
        [r.shard_quantile_ns(0, 0.99), r.shard_quantile_ns(1, 0.99)],
        fnv(&obs.metrics.to_json()),
    )
}

const FILL_SERIES: [u64; 19] = [
    486, 243, 486, 243, 243, 243, 0, 0, 0, 243, 243, 0, 486, 0, 0, 0, 0, 0, 84,
];
const READRANDOM_TAIL: [u64; 23] = [
    8, 18, 17, 16, 20, 20, 19, 19, 19, 17, 20, 17, 17, 20, 20, 17, 19, 20, 19, 18, 20, 17, 3,
];

/// `len - tail.len()` empty windows, then `tail`.
fn series(len: usize, tail: &[u64]) -> Vec<u64> {
    let mut s = vec![0; len - tail.len()];
    s.extend_from_slice(tail);
    s
}

#[test]
fn db_bench_cell_is_pinned() {
    let (phases, obs) = db_bench_cell();
    assert_eq!(
        phases[0],
        (3000, 93_800_000, FILL_SERIES.to_vec()),
        "fillseq"
    );
    assert_eq!(phases[1], (1200, 3_092_400, series(28, &[1200])), "readseq");
    assert_eq!(
        phases[2],
        (400, 108_839_700, series(50, &READRANDOM_TAIL)),
        "readrandom"
    );
    assert_eq!(obs, 0x9bf4_107d_4840_13c0, "db_bench obs JSON");
}

#[test]
fn ycsb_cells_are_pinned() {
    assert_eq!(
        ycsb_cell("A"),
        (1024, 2200, 1_678_800, 0, 6_030_141_827_523_892_079),
        "YCSB A"
    );
    assert_eq!(
        ycsb_cell("E"),
        (1024, 4_761_200, 5_681_600, 8471, 1_107_052_588_768_417_055),
        "YCSB E"
    );
}

#[test]
fn shard_cell_is_pinned() {
    assert_eq!(
        shard_cell(),
        (
            192,
            16_253_506,
            [4_326_500, 4_280_300],
            9_764_132_510_179_528_145
        )
    );
}
