//! # oxshard — sharded multi-device serving layer
//!
//! The horizontal layer of the workbench: a keyspace striped across N
//! independent simulated Open-Channel SSDs, each with its own OX-Block FTL,
//! garbage collector and `iosched` submission queues. The paper's §4.3
//! isolation story is vertical (tenants sharing one device); this crate is
//! the ROADMAP's "millions of users" answer — scale by adding devices, keep
//! per-device QoS, and survive device-local media decay by moving keyspace
//! away from failing shards.
//!
//! * [`router`] — pluggable consistent-hash or range sharding over a fixed
//!   2520-slot table with exact movement bounds.
//! * [`store`] — one shard: self-identifying one-page records over OX-Block,
//!   directory rebuilt from the mapping after a crash.
//! * [`cluster`] — the serving layer: routing, scatter-gather scans,
//!   bad-block-driven rebalancing, cluster-wide crash recovery.
//!
//! Correctness is proptest-driven (`tests/routing_proptests.rs`,
//! `tests/crash_fault_proptests.rs`), swept across seeds × shard counts ×
//! geometries by the `shard-matrix` CI job. See `docs/sharding.md`.

pub mod cluster;
pub mod error;
pub mod router;
pub mod store;

pub use cluster::{ClusterConfig, ClusterStats, ScanEntry, ShardCluster};
pub use error::ShardError;
pub use router::{Router, Sharding, SLOTS};
pub use store::{decode_record, encode_record, ShardStore, MAX_KEY_BYTES, MAX_VALUE_BYTES};

/// Shard-count leg of the CI shard matrix: `OX_SHARD_COUNT=n` (default 4,
/// clamped to `[2, 8]` so routing and rebalancing properties stay
/// meaningful), mirroring `iosched::matrix_tenants` and
/// `ocssd::matrix_geometry`.
pub fn matrix_shards() -> u32 {
    std::env::var("OX_SHARD_COUNT")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(4)
        .clamp(2, 8)
}
