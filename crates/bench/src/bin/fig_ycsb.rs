//! YCSB A–F over both stacks: the single-device LSM key-value store
//! (lsmkv over LightLSM) and the 4-shard serving layer (oxshard).
//!
//! Each workload runs against a freshly loaded store, so rows are
//! independent and deterministic. Writes the table to stdout **and**
//! `results/fig_ycsb.txt`, and the shared observability dump (per-op
//! `ycsb.{read,write,scan}_ns` histograms plus device/FTL metrics) to
//! `results/fig_ycsb.obs.json`.
//!
//! `OX_YCSB_WORKLOAD=<A..F>` restricts the sweep to one mix (the CI
//! matrix's knob); unset or `all` runs all six.
//!
//! Usage: `cargo run --release -p ox-bench --bin fig_ycsb [--quick]`

use lightlsm::Placement;
use ox_bench::driver::RunReport;
use ox_bench::fig5::make_db_with_store_obs;
use ox_bench::ycsb::{
    load, matrix_workloads, run_ycsb, LsmBackend, ShardBackend, SharedCluster, YcsbBackend,
    YcsbConfig, YcsbWorkload,
};
use ox_bench::{export_obs, figure_obs, quick_mode};
use ox_sim::sync::Mutex;
use ox_sim::SimTime;
use oxshard::{ClusterConfig, ShardCluster};
use std::fmt::Write as _;
use std::sync::Arc;

const SHARDS: u32 = 4;

fn env_size(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn row(out: &mut String, cells: &[String], widths: &[usize]) {
    let mut line = String::from("|");
    for (c, w) in cells.iter().zip(widths) {
        let _ = write!(line, " {c:<w$} |");
    }
    let _ = writeln!(out, "{line}");
}

fn report_cells(wl: YcsbWorkload, backend: &str, r: &RunReport) -> Vec<String> {
    vec![
        wl.letter().to_string(),
        backend.to_string(),
        r.total_ops.to_string(),
        format!("{:.1}", r.kops_per_sec()),
        format!("{:.1}", r.quantile_ns(0.50) as f64 / 1000.0),
        format!("{:.1}", r.quantile_ns(0.95) as f64 / 1000.0),
        format!("{:.1}", r.quantile_ns(0.99) as f64 / 1000.0),
        r.scanned_entries.to_string(),
        r.stall_retries.to_string(),
        r.failed_ops.to_string(),
    ]
}

fn main() {
    let quick = quick_mode();
    let obs = figure_obs();
    let workloads = matrix_workloads();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "YCSB A–F — lsmkv single device vs. oxshard {SHARDS}-shard cluster (virtual time{})\n",
        if quick { ", quick" } else { "" }
    );
    let widths = [2usize, 7, 8, 8, 10, 10, 10, 9, 7, 6];
    let header = [
        "wl",
        "backend",
        "ops",
        "kops/s",
        "p50 (µs)",
        "p95 (µs)",
        "p99 (µs)",
        "scanned",
        "stalls",
        "failed",
    ];
    row(
        &mut out,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    );
    let mut sep = String::from("|");
    for w in &widths {
        let _ = write!(sep, "{}|", "-".repeat(w + 2));
    }
    let _ = writeln!(out, "{sep}");

    for wl in workloads {
        let mut cfg = YcsbConfig::new(wl);
        if quick {
            cfg.clients = 4;
            cfg.record_count = 1024;
            cfg.operations = 2048;
        } else {
            // Large enough that the single-device store spills past its
            // memtable: point reads exercise the on-media read path.
            cfg.record_count = env_size("OX_YCSB_RECORDS", 32_768);
            cfg.operations = env_size("OX_YCSB_OPS", 16_384);
        }

        // Single-device stack: the paper's LSM over LightLSM, horizontal
        // placement (its best configuration).
        let (db, dev, _store) = make_db_with_store_obs(Placement::Horizontal, &obs);
        let mut lsm = LsmBackend::new(db);
        eprintln!("[{}] lsmkv load...", wl.letter());
        let t0 = load(&mut lsm, &cfg, SimTime::ZERO);
        eprintln!("[{}] lsmkv run...", wl.letter());
        let (report, t_done) = run_ycsb(&lsm, &cfg, &obs, t0);
        dev.publish_pu_metrics(t_done);
        dev.publish_health_metrics(t_done);
        row(&mut out, &report_cells(wl, lsm.label(), &report), &widths);

        // Sharded stack: same workload fanned over SHARDS devices. The
        // test-scale default of 16 MiB per shard is one 4 KiB slot per
        // record × 4096; the full-size load would overflow the fullest
        // hash bucket, so give each shard headroom.
        let mut ccfg = ClusterConfig::new(SHARDS);
        ccfg.shard_capacity_bytes = 64 << 20;
        let (cluster, tc) = ShardCluster::new(ccfg, obs.clone(), SimTime::ZERO).expect("cluster");
        let shared: SharedCluster = Arc::new(Mutex::new(cluster));
        let mut shard = ShardBackend::new(shared);
        eprintln!("[{}] oxshard load...", wl.letter());
        let t0 = load(&mut shard, &cfg, tc);
        eprintln!("[{}] oxshard run...", wl.letter());
        let (report, _) = run_ycsb(&shard, &cfg, &obs, t0);
        row(&mut out, &report_cells(wl, shard.label(), &report), &widths);
    }

    let _ = writeln!(
        out,
        "\n(zipfian θ=0.99 scrambled ranks; D reads the latest distribution; E scans ≤16 keys;"
    );
    let _ = writeln!(
        out,
        " A/B replace records after a read, F's RMW carries the read value forward.)"
    );

    print!("{out}");
    let dir = std::path::Path::new("results");
    let path = dir.join("fig_ycsb.txt");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &out)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    export_obs("fig_ycsb", &obs);
}
