//! What every workload's stack provides to the runner, and the device
//! counters all three share.

use crate::loadgen::{Bench, Run, Tally};
use ocssd::SharedDevice;
use ox_sim::SimTime;
use std::collections::BTreeMap;

/// Cumulative virtual counters by name; a window's figures are the
/// differences between two snapshots.
pub type Counters = BTreeMap<&'static str, f64>;

/// A workload: its stack, its population load and its window.
pub trait Workload: Bench + Sized + 'static {
    /// Warm-up windows after the load (checked for steady state).
    const WARMUP_WINDOWS: usize;
    /// Measured windows whose virtual figures are reported.
    const VIRTUAL_WINDOWS: usize;
    /// Formats a fresh stack; returns it and the virtual time format ended.
    fn build() -> (Self, SimTime);
    /// Populates the store before warm-up (may run no phase).
    fn load(run: &mut Run<Self>) -> Tally;
    /// Runs one window of the workload.
    fn window(run: &mut Run<Self>) -> Tally;
    /// Cumulative counters of every layer.
    fn counters(&self) -> Counters;
    /// Whether the state that steady state needs has been reached (for an
    /// FTL, the device written over twice; for the LSM, a full key space).
    fn warmed(&self, c: &Counters) -> bool;
}

/// Device turnover condition: everything written since format, GC copies
/// included, amounts to at least twice the device's capacity.
pub fn device_turned_over(c: &Counters) -> bool {
    c["dev.write_bytes"] + c["dev.copy_bytes"] >= 2.0 * c["dev.capacity_bytes"]
}

/// Horizon for turning PU utilization back into busy time: far beyond
/// any run, so the utilization never clamps.
const BUSY_HORIZON_S: u64 = 1 << 20;

/// Adds the device's cumulative counters to `c`.
pub fn device_counters(dev: &SharedDevice, c: &mut Counters) {
    let s = dev.stats();
    c.insert("dev.write_bytes", s.writes.bytes() as f64);
    c.insert("dev.write_cmds", s.writes.ops() as f64);
    c.insert("dev.copy_bytes", s.copies.bytes() as f64);
    c.insert("dev.copy_cmds", s.copies.ops() as f64);
    c.insert("dev.reset_cmds", s.resets.ops() as f64);
    c.insert("dev.media_reads", s.media_reads.ops() as f64);
    c.insert("dev.cache_reads", s.cache_reads.ops() as f64);
    c.insert("dev.cache_stalls", s.cache_stalls as f64);
    let (busy_ns, qdelay_ns, pus) = dev.with(|d| {
        let horizon = SimTime::ZERO + ox_sim::SimDuration::from_secs(BUSY_HORIZON_S);
        let busy: f64 = d
            .pu_utilizations(horizon)
            .iter()
            .map(|u| u * horizon.as_secs_f64() * 1e9)
            .sum();
        let qd: u64 = d.pu_queue_delays().iter().map(|q| q.as_nanos()).sum();
        (busy, qd, d.geometry().total_pus())
    });
    c.insert("dev.pu_busy_ns", busy_ns);
    c.insert("dev.pu_queue_delay_ns", qdelay_ns as f64);
    c.insert("dev.pus", pus as f64);
    let geo = dev.geometry();
    c.insert(
        "dev.capacity_bytes",
        (geo.total_sectors() * ocssd::SECTOR_BYTES as u64) as f64,
    );
    let ops = dev
        .obs()
        .metrics
        .snapshot()
        .histograms
        .get("device.pu.queue_delay_ns")
        .map_or(0, |h| h.count());
    c.insert("dev.pu_ops", ops as f64);
}
