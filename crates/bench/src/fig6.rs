//! Figure 6: fill-sequential throughput as a function of time.
//!
//! Same setup as Figure 5's fill-sequential, but reporting the per-window
//! completion-rate series for each (placement, client count). Expected
//! shapes: horizontal sustains high throughput at 1–2 clients and takes
//! visibly longer with oscillating lower throughput at 4–8; vertical shows
//! a lower single-client peak but its completion time stays stable (or
//! shrinks) as clients are added.

use crate::dbbench::{run_workload, BenchConfig, Workload};
use crate::driver::RunReport;
use crate::fig5::{make_db_with_store_obs, Fig5Config};
use lightlsm::Placement;
use ox_sim::trace::Obs;
use ox_sim::SimTime;

/// One timeline of the figure.
#[derive(Clone, Debug)]
pub struct Fig6Line {
    /// Placement policy.
    pub placement: Placement,
    /// Client count.
    pub clients: usize,
    /// The fill report (including the throughput time series).
    pub report: RunReport,
}

/// Whole-figure output.
#[derive(Clone, Debug)]
pub struct Fig6Result {
    /// All timelines.
    pub lines: Vec<Fig6Line>,
}

impl Fig6Result {
    /// Finds a line.
    pub fn line(&self, placement: Placement, clients: usize) -> &Fig6Line {
        self.lines
            .iter()
            .find(|l| l.placement == placement && l.clients == clients)
            .expect("line exists")
    }
}

/// Runs the figure (reuses the Figure 5 configuration).
pub fn run(cfg: &Fig5Config) -> Fig6Result {
    run_with_obs(cfg, &Obs::default())
}

/// [`run`] with shared observability, accumulating across all timelines.
pub fn run_with_obs(cfg: &Fig5Config, obs: &Obs) -> Fig6Result {
    let mut lines = Vec::new();
    for placement in [Placement::Horizontal, Placement::Vertical] {
        for &clients in &cfg.client_counts {
            let (db, dev, _store) = make_db_with_store_obs(placement, obs);
            let ops_per_client = cfg.fill_bytes_per_client / 1024;
            let mut fill_cfg =
                BenchConfig::paper(Workload::FillSequential, clients, ops_per_client);
            fill_cfg.window = cfg.window;
            let (report, t_end) = run_workload(&db, fill_cfg, SimTime::ZERO);
            dev.publish_pu_metrics(t_end);
            dev.publish_health_metrics(t_end);
            lines.push(Fig6Line {
                placement,
                clients,
                report,
            });
        }
    }
    Fig6Result { lines }
}
