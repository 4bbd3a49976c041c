//! Regression test for the sharded obs-merge gap.
//!
//! N shard devices share one [`Obs`] pipeline. Before per-scope
//! publication existed, every device published its point-in-time per-PU
//! gauges under the same `device.pu.<i>.…` names, so concurrent shards
//! silently clobbered each other (last-publisher-wins) — dumps looked
//! complete but attributed one device's queues to the whole fleet. The fix
//! is `publish_pu_metrics_as(scope, …)` + the cluster publishing under
//! `device.shard<k>.…`; this test pins the merged dump down: every
//! (shard, PU) gauge present, republication idempotent, no unscoped
//! collisions, and counters/trace reconciling across the fleet.

use ox_bench::shard_scale::{run_mix, ShardMix};
use ox_bench::ycsb::SharedCluster;
use ox_sim::sync::Mutex;
use ox_sim::trace::{Obs, TracePhase};
use oxshard::{ClusterConfig, ShardCluster};
use std::sync::Arc;

const SHARDS: u32 = 3;

#[test]
fn concurrent_shard_dumps_merge_without_clobbering() {
    let obs = Obs::new(1 << 20);
    obs.tracer.set_enabled(true);
    let (cluster, t0) = ShardCluster::new(
        ClusterConfig::new(SHARDS),
        obs.clone(),
        ox_sim::SimTime::ZERO,
    )
    .unwrap_or_else(|e| panic!("cluster build: {e}"));
    let pus = cluster.device(0).unwrap().geometry().total_pus() as usize;
    let shared: SharedCluster = Arc::new(Mutex::new(cluster));

    let report = run_mix(&shared, &ShardMix::new(48, 6), t0);
    assert_eq!(report.failed_ops, 0);
    let horizon = report.end;

    let c = shared.lock();
    c.publish_metrics(horizon);
    let first = obs.metrics.snapshot();

    // Every (shard, PU) pair surfaces its own gauges — nothing dropped.
    for shard in 0..SHARDS {
        for pu in 0..pus {
            for leaf in ["queue_delay_ns", "busy_ppm"] {
                let name = format!("device.shard{shard}.pu.{pu}.{leaf}");
                assert!(
                    first.gauges.contains_key(&name),
                    "missing per-PU gauge {name}"
                );
            }
        }
        let stalls = format!("device.shard{shard}.cache.stalls");
        assert!(first.gauges.contains_key(&stalls), "missing {stalls}");
        let keys = format!("oxshard.shard{shard}.keys");
        assert!(first.gauges.contains_key(&keys), "missing {keys}");
    }

    // Exactly the scoped names — the unscoped legacy names would mean two
    // shards were overwriting one another again.
    let unscoped: Vec<&String> = first
        .gauges
        .keys()
        .filter(|k| k.starts_with("device.pu.") || *k == "device.cache.stalls")
        .collect();
    assert!(unscoped.is_empty(), "unscoped device gauges: {unscoped:?}");
    let per_pu = first
        .gauges
        .keys()
        .filter(|k| k.starts_with("device.shard") && k.contains(".pu."))
        .count();
    assert_eq!(per_pu, SHARDS as usize * pus * 2, "per-PU gauge census");

    // Republication is idempotent: gauges are point-in-time, so dumping
    // the fleet twice must not double-count anything.
    c.publish_metrics(horizon);
    let second = obs.metrics.snapshot();
    assert_eq!(first.gauges, second.gauges, "republication double-counted");

    // Fleet-wide counters reconcile with each device's own accounting.
    let mut write_ops = 0u64;
    let mut write_bytes = 0u64;
    for shard in 0..SHARDS {
        let stats = c.device(shard).unwrap().stats();
        write_ops += stats.writes.ops();
        write_bytes += stats.writes.bytes();
    }
    let writes = &second.counters["device.write"];
    assert_eq!(writes.ops(), write_ops, "device.write ops across shards");
    assert_eq!(
        writes.bytes(),
        write_bytes,
        "device.write bytes across shards"
    );

    // Scoped iosched dispatch metrics partition the unscoped aggregate:
    // merged without dropping or double-counting.
    let unscoped_dispatch = &second.counters["iosched.dispatched"];
    let mut scoped_ops = 0u64;
    let mut scoped_bytes = 0u64;
    let mut scoped_hist = 0u64;
    for shard in 0..SHARDS {
        let c4 = &second.counters[&format!("iosched.shard{shard}.dispatched")];
        assert!(c4.ops() > 0, "shard {shard} dispatched nothing");
        scoped_ops += c4.ops();
        scoped_bytes += c4.bytes();
        scoped_hist += second.histograms[&format!("iosched.shard{shard}.queue_delay_ns")].count();
    }
    assert_eq!(
        scoped_ops,
        unscoped_dispatch.ops(),
        "dispatch ops partition"
    );
    assert_eq!(
        scoped_bytes,
        unscoped_dispatch.bytes(),
        "dispatch bytes partition"
    );
    assert_eq!(
        scoped_hist,
        second.histograms["iosched.queue_delay_ns"].count(),
        "queue-delay histogram partition"
    );

    // The shared trace stayed coherent while all shards appended to it.
    let events = obs.tracer.snapshot();
    assert_eq!(obs.tracer.dropped(), 0, "trace must be complete");
    assert!(!events.is_empty());
    for w in events.windows(2) {
        assert!(w[1].seq > w[0].seq, "seq must be strictly monotone");
    }
    assert!(
        events
            .iter()
            .any(|e| e.subsystem == "iosched" && e.phase == TracePhase::Begin),
        "iosched spans present in the merged trace"
    );
}
