//! Figure 5: RocksDB-style average throughput over LightLSM.
//!
//! Setup (paper §4.3): db_bench fill-sequential, read-sequential and
//! read-random with 1/2/4/8 clients, 16 B keys and 1 KB values, no
//! compression or caching, horizontal vs. vertical SSTable placement.
//! Read workloads run over the database left by fill-sequential.
//!
//! Expected shapes:
//! * write throughput ≫ read throughput (write-back device cache);
//! * fill-sequential: horizontal ≫ vertical at 1 client (~4× in the paper);
//!   horizontal degrades with 4–8 clients while vertical scales, ending
//!   ~2× ahead at 8 clients;
//! * read-sequential ≫ read-random (block = unit of read *and* write);
//! * horizontal ≥ vertical for reads.

use crate::backend::BenchBackend;
use crate::dbbench::{run_workload, BenchConfig, Workload};
use crate::driver::RunReport;
use lightlsm::{LightLsm, LightLsmConfig, Placement};
use lsmkv::{Db, DbConfig, LightLsmStore, SharedDb, TableStore};
use ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_core::{Media, OcssdMedia};
use ox_sim::trace::Obs;
use ox_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// One (placement × clients) cell of the figure.
#[derive(Clone, Debug)]
pub struct Fig5Cell {
    /// Placement policy.
    pub placement: Placement,
    /// Client count.
    pub clients: usize,
    /// fill-sequential report.
    pub fill: RunReport,
    /// read-sequential report.
    pub read_seq: RunReport,
    /// read-random report.
    pub read_random: RunReport,
}

/// Whole-figure output.
#[derive(Clone, Debug)]
pub struct Fig5Result {
    /// All cells, placement-major then client count.
    pub cells: Vec<Fig5Cell>,
}

impl Fig5Result {
    /// Finds a cell.
    pub fn cell(&self, placement: Placement, clients: usize) -> &Fig5Cell {
        self.cells
            .iter()
            .find(|c| c.placement == placement && c.clients == clients)
            .expect("cell exists")
    }
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Config {
    /// Client counts to sweep.
    pub client_counts: [usize; 4],
    /// Bytes each client writes during fill (the paper used 3 GB).
    pub fill_bytes_per_client: u64,
    /// read-sequential ops per client.
    pub read_seq_ops: u64,
    /// read-random ops per client.
    pub read_random_ops: u64,
    /// Throughput window for time series.
    pub window: SimDuration,
}

impl Fig5Config {
    /// Full-scale run (scaled from the paper's 3 GB/client to 96 MB/client
    /// to match the scaled device geometry).
    pub fn full() -> Self {
        Fig5Config {
            client_counts: [1, 2, 4, 8],
            fill_bytes_per_client: 96 * 1024 * 1024,
            read_seq_ops: 24_000,
            read_random_ops: 3_000,
            window: SimDuration::from_millis(250),
        }
    }

    /// Quick run.
    pub fn quick() -> Self {
        Fig5Config {
            client_counts: [1, 2, 4, 8],
            fill_bytes_per_client: 48 * 1024 * 1024,
            read_seq_ops: 8_000,
            read_random_ops: 1_000,
            window: SimDuration::from_millis(100),
        }
    }
}

/// Builds the Figure 5/6 database stack: small-chunk paper geometry
/// (768 KB chunks ⇒ 24 MB full-width SSTables) and paper-flavoured
/// RocksDB options.
pub fn make_db(placement: Placement) -> (SharedDb, SharedDevice) {
    let (db, dev, _) = make_db_with_store(placement);
    (db, dev)
}

/// [`make_db`] plus a handle on the LightLSM store (for FTL statistics).
pub fn make_db_with_store(placement: Placement) -> (SharedDb, SharedDevice, Arc<LightLsmStore>) {
    make_db_with_store_obs(placement, &Obs::default())
}

/// [`make_db_with_store`] with shared observability wired through every
/// layer of the stack: device, LightLSM FTL, and the LSM database.
pub fn make_db_with_store_obs(
    placement: Placement,
    obs: &Obs,
) -> (SharedDb, SharedDevice, Arc<LightLsmStore>) {
    // Chunk size ÷128 (192 KB chunks, 2 write units each) and chunk count
    // ÷2: a 4.5 GB device where a full-width SSTable is 32 chunks = 6 MB,
    // so fills reach compaction steady state within ~50 MB per client.
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        Geometry::paper_tlc_scaled(2, 128),
    )));
    dev.set_obs(obs.clone());
    // `OX_BACKEND=oxztl` interposes the zone-translation layer: LightLSM's
    // chunk writes and resets become zone appends and durable trims, the
    // cross-interface leg of the ablation matrix.
    let raw: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let media = BenchBackend::from_env().wrap_media(raw, obs);
    let (mut ftl, _) = LightLsm::format(
        media,
        LightLsmConfig {
            placement,
            ..LightLsmConfig::default()
        },
        SimTime::ZERO,
    )
    .expect("format");
    ftl.set_obs(obs.clone());
    let store = Arc::new(LightLsmStore::new(ftl));
    let db_cfg = DbConfig {
        // Memtable = SSTable = one full-width stripe, as the paper sizes
        // them (768 MB on the real drive, 6 MB scaled).
        memtable_bytes: 11 * 512 * 1024,
        max_immutables: 8,
        l0_compaction_trigger: 4,
        l0_slowdown: 8,
        l0_stall: 12,
        level_base_blocks: 512, // L1 target 48 MB of 96 KB blocks
        level_multiplier: 8,
        max_levels: 3, // L0, L1, L2 — "3 levels of SSTables on disk"
        table_bytes: 6 * 1024 * 1024,
        ..DbConfig::default()
    };
    let mut db = Db::new(store.clone() as Arc<dyn TableStore>, db_cfg);
    db.set_obs(obs.clone());
    (SharedDb::new(db), dev, store)
}

/// Runs one (placement, clients) column: fill, then read-seq, then
/// read-random over the same database.
pub fn run_cell(cfg: &Fig5Config, placement: Placement, clients: usize) -> Fig5Cell {
    run_cell_with_obs(cfg, placement, clients, &Obs::default())
}

/// [`run_cell`] with shared observability wired through the stack.
pub fn run_cell_with_obs(
    cfg: &Fig5Config,
    placement: Placement,
    clients: usize,
    obs: &Obs,
) -> Fig5Cell {
    let (db, dev, _store) = make_db_with_store_obs(placement, obs);
    let ops_per_client = cfg.fill_bytes_per_client / 1024; // 1 KB values
    let mut fill_cfg = BenchConfig::paper(Workload::FillSequential, clients, ops_per_client);
    fill_cfg.window = cfg.window;
    let (fill, t1) = run_workload(&db, fill_cfg, SimTime::ZERO);

    let key_space = clients as u64 * ops_per_client;
    let mut rs_cfg = BenchConfig::paper(Workload::ReadSequential, clients, cfg.read_seq_ops);
    rs_cfg.key_space = key_space;
    rs_cfg.window = cfg.window;
    let (read_seq, t2) = run_workload(&db, rs_cfg, t1);

    let mut rr_cfg = BenchConfig::paper(Workload::ReadRandom, clients, cfg.read_random_ops);
    rr_cfg.key_space = key_space;
    rr_cfg.window = cfg.window;
    let (read_random, t3) = run_workload(&db, rr_cfg, t2);
    dev.publish_pu_metrics(t3);
    dev.publish_health_metrics(t3);

    Fig5Cell {
        placement,
        clients,
        fill,
        read_seq,
        read_random,
    }
}

/// Runs the whole figure.
pub fn run(cfg: &Fig5Config) -> Fig5Result {
    run_with_obs(cfg, &Obs::default())
}

/// [`run`] with shared observability, accumulating across all cells.
pub fn run_with_obs(cfg: &Fig5Config, obs: &Obs) -> Fig5Result {
    let mut cells = Vec::new();
    for placement in [Placement::Horizontal, Placement::Vertical] {
        for &clients in &cfg.client_counts {
            cells.push(run_cell_with_obs(cfg, placement, clients, obs));
        }
    }
    Fig5Result { cells }
}
