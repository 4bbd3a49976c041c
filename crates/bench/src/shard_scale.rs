//! Shard scaling: aggregate throughput and per-shard tails, 1 → N devices.
//!
//! The ROADMAP's "millions of users" question, measured: a fixed per-shard
//! client population (weak scaling) drives `oxshard` clusters of growing
//! size, every shard a full simulated Open-Channel SSD with its own OX-Block
//! FTL, GC and `iosched` queues. Because clients are closed-loop virtual-time
//! actors, aggregate throughput grows linearly exactly when shards do not
//! interfere — any shared bottleneck or routing skew shows up as a sublinear
//! scale factor and a widening per-shard p99 spread.
//!
//! The reproduction target: ≥ 0.8× linear aggregate throughput from 1 to 8
//! shards, with per-shard p99 attribution (min/max across the fleet) in both
//! the printed table and the exported obs dump.

use crate::driver::{ClosedLoop, OpClass, OpGen, Outcome, RunReport};
use crate::ycsb::{workload_key, ShardBackend, SharedCluster, YcsbBackend};
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{Prng, SimDuration, SimTime, Step};
use oxshard::{ClusterConfig, ShardCluster};
use std::sync::Arc;

/// The shard figure's client mix: uniform keys, point reads, optional
/// scans, and upserts of random bytes.
#[derive(Clone, Debug)]
pub struct ShardMix {
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Operations each client issues.
    pub ops_per_client: usize,
    /// Value payload size in bytes.
    pub value_bytes: usize,
    /// Fraction of operations that are point reads (the rest are upserts).
    pub read_fraction: f64,
    /// Fraction of operations that are ordered scans (carved out of the
    /// non-read remainder before upserts).
    pub scan_fraction: f64,
    /// Maximum scan length; each scan draws uniformly from `1..=max`.
    pub max_scan_len: usize,
    /// Number of distinct keys addressed by the workload.
    pub key_space: u64,
    /// Seed for key choice and read/write mix.
    pub seed: u64,
    /// Period of the cluster maintenance tick.
    pub maintain_every: SimDuration,
}

impl ShardMix {
    /// A read-mostly closed loop sized for tests.
    pub fn new(clients: usize, ops_per_client: usize) -> ShardMix {
        ShardMix {
            clients,
            ops_per_client,
            value_bytes: 128,
            read_fraction: 0.5,
            scan_fraction: 0.0,
            max_scan_len: 16,
            key_space: 4096,
            seed: 0x0C55D,
            maintain_every: SimDuration::from_millis(10),
        }
    }
}

/// One shard-mix client's operation stream.
struct ShardMixGen {
    mix: ShardMix,
    rng: Prng,
}

impl<B: YcsbBackend> OpGen<B> for ShardMixGen {
    fn issue(&mut self, now: SimTime, backend: &mut B) -> Outcome {
        let key = workload_key(self.rng.gen_range(self.mix.key_space));
        let dice = self.rng.gen_f64();
        let read = dice < self.mix.read_fraction;
        // Typed faults (e.g. injected device failures) are counted and the
        // client backs off one tick rather than abort the whole run.
        if !read && dice < self.mix.read_fraction + self.mix.scan_fraction {
            // Ordered scatter-gather scan; latency is cluster-wide, not
            // attributable to a single shard.
            let limit = 1 + self.rng.gen_range(self.mix.max_scan_len.max(1) as u64) as usize;
            let out = backend.scan(now, &key, limit);
            if out.failed {
                return Outcome::Failed(out.done);
            }
            return Outcome::Done {
                class: OpClass::Scan,
                done: out.done,
                failed: false,
                scanned: out.entries,
            };
        }
        if read {
            let got = backend.get(now, &key);
            if got.failed {
                return Outcome::Failed(got.done);
            }
            return Outcome::done(OpClass::Read, got.done);
        }
        let mut value = vec![0u8; self.mix.value_bytes];
        self.rng.fill_bytes(&mut value);
        backend.put(now, &key, &value).into()
    }
}

/// Runs `mix` against `cluster` starting at `start`, to completion.
///
/// Clients are staggered over the first microsecond so the heap does not
/// see a thundering herd at one instant; the cluster's maintenance pass
/// ticks at a fixed period until the last client finishes.
pub fn run_mix(cluster: &SharedCluster, mix: &ShardMix, start: SimTime) -> RunReport {
    let mut run = ClosedLoop::new(start, SimDuration::from_secs(1), None);
    let backend = ShardBackend::new(cluster.clone());
    let mut rng = Prng::seed_from_u64(mix.seed);
    for c in 0..mix.clients {
        let gen = ShardMixGen {
            mix: mix.clone(),
            rng: rng.split(c as u64),
        };
        let jitter = SimDuration::from_nanos(rng.gen_range(1000));
        run.client(
            start + jitter,
            backend.clone(),
            gen,
            mix.ops_per_client as u64,
        );
    }
    let period = mix.maintain_every;
    let cluster = cluster.clone();
    run.background(start + period, move |now| {
        // Maintenance failures under fault pressure are survivable; the
        // next tick retries.
        let _ = cluster.lock().maintain(now);
        Step::RunAt(now + period)
    });
    run.run()
}

/// One cluster size in the sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Number of shards (devices) in the cluster.
    pub shards: u32,
    /// Closed-loop clients driving the cluster.
    pub clients: usize,
    /// Operations completed.
    pub total_ops: u64,
    /// Operations that surfaced a typed error.
    pub failed_ops: u64,
    /// Aggregate throughput in virtual kops/s.
    pub kops_per_sec: f64,
    /// Smallest per-shard p99 latency in microseconds.
    pub p99_min_us: f64,
    /// Largest per-shard p99 latency in microseconds.
    pub p99_max_us: f64,
}

/// Whole-sweep output.
#[derive(Clone, Debug)]
pub struct ShardScaleResult {
    /// One point per cluster size, in sweep order.
    pub points: Vec<ScalePoint>,
    /// Clients per shard (the weak-scaling unit).
    pub clients_per_shard: usize,
    /// Operations each client issues.
    pub ops_per_client: usize,
}

impl ShardScaleResult {
    /// The point for a given shard count.
    pub fn point(&self, shards: u32) -> &ScalePoint {
        self.points
            .iter()
            .find(|p| p.shards == shards)
            .unwrap_or_else(|| panic!("no point for {shards} shards"))
    }

    /// Aggregate throughput ratio between two sweep points
    /// (`kops(to) / kops(from)`); linear scaling would give `to / from`.
    pub fn scaling(&self, from: u32, to: u32) -> f64 {
        self.point(to).kops_per_sec / self.point(from).kops_per_sec
    }
}

/// Runs the sweep without observability.
pub fn run(
    shard_counts: &[u32],
    clients_per_shard: usize,
    ops_per_client: usize,
) -> ShardScaleResult {
    run_with_obs(
        shard_counts,
        clients_per_shard,
        ops_per_client,
        &Obs::default(),
    )
}

/// Runs the sweep, sharing `obs` across every cluster: scoped per-shard
/// metrics (`iosched.shard<k>.*`, `device.shard<k>.pu.*`) accumulate into
/// one dump, and each point publishes its measured per-shard p99 under
/// `oxshard.scale<N>.shard<k>.p99_ns` for offline attribution.
pub fn run_with_obs(
    shard_counts: &[u32],
    clients_per_shard: usize,
    ops_per_client: usize,
    obs: &Obs,
) -> ShardScaleResult {
    let mut points = Vec::with_capacity(shard_counts.len());
    for &n in shard_counts {
        let (cluster, t0) = ShardCluster::new(ClusterConfig::new(n), obs.clone(), SimTime::ZERO)
            .expect("cluster build");
        let shared: SharedCluster = Arc::new(Mutex::new(cluster));

        let clients = clients_per_shard * n as usize;
        let mut mix = ShardMix::new(clients, ops_per_client);
        mix.key_space = (clients * ops_per_client) as u64;
        mix.seed = 0x5CA1_E000 ^ n as u64;
        let report = run_mix(&shared, &mix, t0);

        let c = shared.lock();
        c.publish_metrics(report.end);
        let mut p99_min = u64::MAX;
        let mut p99_max = 0u64;
        for s in 0..n as usize {
            let p99 = report.shard_quantile_ns(s, 0.99);
            p99_min = p99_min.min(p99);
            p99_max = p99_max.max(p99);
            obs.metrics
                .gauge_set(&format!("oxshard.scale{n}.shard{s}.p99_ns"), p99 as i64);
        }
        points.push(ScalePoint {
            shards: n,
            clients,
            total_ops: report.total_ops,
            failed_ops: report.failed_ops,
            kops_per_sec: report.kops_per_sec(),
            p99_min_us: p99_min as f64 / 1e3,
            p99_max_us: p99_max as f64 / 1e3,
        });
    }
    ShardScaleResult {
        points,
        clients_per_shard,
        ops_per_client,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::LatencyStats;

    #[test]
    fn throughput_scales_near_linearly_to_eight_shards() {
        // Enough ops per client that the makespan (last completion across
        // all shards) reflects steady-state throughput, not routing noise.
        let r = run(&[1, 8], 32, 24);
        for p in &r.points {
            assert_eq!(
                p.failed_ops, 0,
                "{} shards: fault-free run failed ops",
                p.shards
            );
            assert_eq!(
                p.total_ops,
                (p.clients * r.ops_per_client) as u64,
                "{} shards: incomplete run",
                p.shards
            );
            assert!(p.p99_min_us > 0.0, "{} shards: idle shard", p.shards);
            assert!(p.p99_max_us >= p.p99_min_us);
        }
        // The acceptance shape: ≥ 0.8× linear aggregate throughput 1 → 8.
        let scale = r.scaling(1, 8);
        assert!(
            scale >= 0.8 * 8.0,
            "1→8 shards scaled only {scale:.2}× (need ≥ 6.4×): {:?}",
            r.points
        );
    }

    fn two_shards() -> (SharedCluster, SimTime) {
        let (cluster, t0) =
            ShardCluster::new(ClusterConfig::new(2), Obs::new(4096), SimTime::ZERO).unwrap();
        (Arc::new(Mutex::new(cluster)), t0)
    }

    #[test]
    fn driver_completes_and_attributes_latency() {
        let (shared, t0) = two_shards();
        let report = run_mix(&shared, &ShardMix::new(32, 8), t0);
        assert_eq!(report.total_ops, 32 * 8);
        assert_eq!(report.failed_ops, 0);
        assert!(report.end > report.start);
        assert!(report.kops_per_sec() > 0.0);
        let served: u64 = report.per_shard.iter().map(LatencyStats::count).sum();
        assert_eq!(served, 32 * 8);
        for s in 0..2 {
            assert!(report.shard_quantile_ns(s, 0.99) > 0, "shard {s} idle");
        }
    }

    #[test]
    fn driver_serves_scans_when_configured() {
        let (shared, t0) = two_shards();
        let mut mix = ShardMix::new(16, 16);
        mix.read_fraction = 0.25;
        mix.scan_fraction = 0.25;
        mix.max_scan_len = 8;
        let report = run_mix(&shared, &mix, t0);
        assert_eq!(report.total_ops, 16 * 16);
        assert_eq!(report.failed_ops, 0);
        assert!(report.scans.count() > 0, "scan fraction must produce scans");
        assert!(report.scanned_entries > 0, "scans must return entries");
        assert!(report.scans.quantile_ns(0.99) > 0);
        // Scans are scatter-gather: no shard is charged for them.
        let served: u64 = report.per_shard.iter().map(LatencyStats::count).sum();
        assert_eq!(served + report.scans.count(), 16 * 16);
    }

    #[test]
    fn per_shard_p99_lands_in_the_obs_dump() {
        let obs = Obs::new(4096);
        let r = run_with_obs(&[2], 16, 4, &obs);
        assert_eq!(r.points.len(), 1);
        let snap = obs.metrics.snapshot();
        for s in 0..2 {
            let name = format!("oxshard.scale2.shard{s}.p99_ns");
            assert!(
                snap.gauges.get(&name).copied().unwrap_or(0) > 0,
                "missing {name}"
            );
        }
        assert!(snap.counters["iosched.shard0.dispatched"].ops() > 0);
    }
}
