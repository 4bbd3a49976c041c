//! Ablation: the paper's §5 open issue — "NVMe is standardizing a KV
//! interface, inspired by KV-SSD. How does it compare to LightLSM?"
//!
//! The same KV workload (load N entries of 1 KB, then point gets and
//! overwrites) through two application-specific FTL designs on identical
//! devices:
//!
//! * **KV-SSD style** (`ox-kvssd`): hash index + value log — gets read
//!   exactly the value's sectors, but every put journals an index update
//!   and reclamation copies live pages.
//! * **LightLSM + LSM** (`lightlsm` + `lsmkv`): sorted tables with 96 KB
//!   blocks — gets pay the block tax, but reclamation is erase-only and
//!   scans come for free.
//!
//! Usage: `cargo run --release -p ox-bench --bin ablation_kv_interface [--quick]`

use lightlsm::{LightLsm, LightLsmConfig};
use lsmkv::{Db, DbConfig, LightLsmStore, PutOutcome, TableStore};
use ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_bench::dbbench::{bench_key, bench_value};
use ox_bench::{export_obs, figure_obs, print_row, print_sep, quick_mode};
use ox_core::{Media, OcssdMedia};
use ox_kvssd::{KvSsd, KvSsdConfig};
use ox_sim::{Prng, SimDuration, SimTime};
use std::sync::Arc;

struct Row {
    name: &'static str,
    load_secs: f64,
    get_avg_us: f64,
    device_writes_mb: u64,
    device_reads_mb: u64,
    gc_or_compaction_moved_mb: u64,
}

fn main() {
    let n: u64 = if quick_mode() { 20_000 } else { 80_000 };
    let gets: u64 = if quick_mode() { 1_000 } else { 4_000 };
    let overwrites = n / 4;
    let mut rows = Vec::new();
    let obs = figure_obs();

    // --- KV-SSD style. ---
    {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::paper_tlc_scaled(22, 8)));
        dev.set_obs(obs.clone());
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut kv, t0) = KvSsd::format(media, KvSsdConfig::default(), SimTime::ZERO).unwrap();
        let mut t = t0;
        for i in 0..n {
            let k = bench_key(i);
            t = kv.put(t, &k, &bench_value(&k, 1024)).unwrap();
            if kv.log_pressure() > 0.7 {
                t = kv.truncate_log(t).unwrap();
            }
        }
        let mut rng = Prng::seed_from_u64(5);
        for _ in 0..overwrites {
            let k = bench_key(rng.gen_range(n));
            t = kv.put(t, &k, &bench_value(&k, 1024)).unwrap();
            if kv.log_pressure() > 0.7 {
                t = kv.truncate_log(t).unwrap();
            }
        }
        t = kv.sync(t).unwrap();
        let load_done = t;
        let mut tg = load_done + SimDuration::from_secs(1);
        let mut sum_us = 0.0;
        for _ in 0..gets {
            let k = bench_key(rng.gen_range(n));
            let (v, done) = kv.get(tg, &k).unwrap();
            assert!(v.is_some());
            sum_us += done.saturating_since(tg).as_nanos() as f64 / 1000.0;
            tg = done;
        }
        dev.publish_pu_metrics(tg);
        dev.publish_health_metrics(tg);
        let stats = dev.with(|d| d.stats().clone());
        rows.push(Row {
            name: "KV-SSD (hash + value log)",
            load_secs: load_done.as_secs_f64(),
            get_avg_us: sum_us / gets as f64,
            device_writes_mb: stats.writes.bytes() >> 20,
            device_reads_mb: stats.media_reads.bytes() >> 20,
            gc_or_compaction_moved_mb: stats.copies.bytes() >> 20,
        });
    }

    // --- LightLSM + LSM. ---
    {
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
            Geometry::paper_tlc_scaled(2, 128),
        )));
        dev.set_obs(obs.clone());
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
        let (mut ftl, _) =
            LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
        ftl.set_obs(obs.clone());
        let store: Arc<dyn TableStore> = Arc::new(LightLsmStore::new(ftl));
        let mut db = Db::new(
            store,
            DbConfig {
                memtable_bytes: 4 * 1024 * 1024,
                table_bytes: 6 * 1024 * 1024,
                level_base_blocks: 256,
                ..DbConfig::default()
            },
        );
        db.set_obs(obs.clone());
        let mut t = SimTime::ZERO;
        let drain = |db: &mut Db, mut t: SimTime| {
            loop {
                if let Some(done) = db.flush_once(t).unwrap() {
                    t = done;
                    continue;
                }
                if let Some(done) = db.compact_once(t).unwrap() {
                    t = done;
                    continue;
                }
                break;
            }
            t
        };
        let mut rng = Prng::seed_from_u64(5);
        for i in 0..n + overwrites {
            let idx = if i < n { i } else { rng.gen_range(n) };
            let k = bench_key(idx);
            loop {
                match db.put(t, &k, &bench_value(&k, 1024)).unwrap() {
                    PutOutcome::Done(done) => {
                        t = done;
                        break;
                    }
                    PutOutcome::Stalled(r) => t = drain(&mut db, r),
                }
            }
        }
        db.seal_memtable();
        let load_done = drain(&mut db, t);
        let mut tg = load_done + SimDuration::from_secs(1);
        let mut sum_us = 0.0;
        for _ in 0..gets {
            let k = bench_key(rng.gen_range(n));
            let (v, done) = db.get(tg, &k).unwrap();
            assert!(v.is_some());
            sum_us += done.saturating_since(tg).as_nanos() as f64 / 1000.0;
            tg = done;
        }
        dev.publish_pu_metrics(tg);
        dev.publish_health_metrics(tg);
        let stats = dev.with(|d| d.stats().clone());
        rows.push(Row {
            name: "LightLSM + LSM (flush/probe)",
            load_secs: load_done.as_secs_f64(),
            get_avg_us: sum_us / gets as f64,
            device_writes_mb: stats.writes.bytes() >> 20,
            device_reads_mb: stats.media_reads.bytes() >> 20,
            gc_or_compaction_moved_mb: (db.compaction_stats().blocks_written * 96 * 1024) >> 20,
        });
    }

    println!(
        "KV-interface ablation (§5): load {n} × 1 KB + {overwrites} overwrites, then {gets} point gets\n"
    );
    let widths = [30usize, 12, 14, 14, 14, 16];
    print_row(
        &[
            "interface".into(),
            "load (s)".into(),
            "get avg (µs)".into(),
            "dev writes MB".into(),
            "dev reads MB".into(),
            "relocated MB".into(),
        ],
        &widths,
    );
    print_sep(&widths);
    for r in &rows {
        print_row(
            &[
                r.name.to_string(),
                format!("{:.3}", r.load_secs),
                format!("{:.1}", r.get_avg_us),
                r.device_writes_mb.to_string(),
                r.device_reads_mb.to_string(),
                r.gc_or_compaction_moved_mb.to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\nthe trade the paper leaves open: KV-SSD gets read one sector (no 96 KB block tax),"
    );
    println!(
        "while LightLSM reclaims space with erases only (no page relocation) and supports scans."
    );
    export_obs("ablation_kv_interface", &obs);
}
