//! OX-Block driven into read-only mode on the ablation geometry, with GC
//! retried on every maintenance tick.
//!
//! Once the spare pool is gone, every GC pass fails for want of a
//! destination chunk. A failed pass must leave nothing behind: its
//! begun-but-uncommitted WAL records may not pile up in the log's pending
//! buffer (left there, they grow until one commit exceeds a WAL chunk and
//! trips the frame-size assertion), its in-memory remaps must not outlive
//! it, and every write acknowledged before the store degraded must still
//! read back after a crash and recovery through the shared fault harness.
//!
//! A failed call returns no completion time, yet the device may already have
//! executed part of it (a pass's earlier victims, the failed pass's copies).
//! The harness may only crash at the frontier, so after every failure the
//! host advances its clock to the point where the device is fully drained.

use ocssd::{ChunkAddr, DeviceConfig, OcssdDevice, SharedDevice, SECTOR_BYTES};
use ox_bench::ablation::ablation_geometry;
use ox_block::{BlockFtl, BlockFtlConfig, BlockFtlError};
use ox_core::faultharness::{fingerprint, parse_fingerprint, run_case, FaultCase, FaultHost};
use ox_core::{Media, OcssdMedia};
use ox_sim::{Prng, SimTime};
use std::sync::Arc;

/// GC attempts per maintenance tick once the store is degraded.
const GC_RETRIES: usize = 64;

struct Host {
    dev: SharedDevice,
    ftl: BlockFtl,
    config: BlockFtlConfig,
    /// Whether a call failed since the clock was last advanced past it.
    failed: bool,
    gc_failures: usize,
    /// Most pending WAL records any run of degraded-mode GC retries added.
    max_growth: usize,
}

impl Host {
    /// `now`, or — after a failed call — the time the device finishes
    /// everything it was handed.
    fn frontier(&mut self, now: SimTime) -> SimTime {
        if !std::mem::take(&mut self.failed) {
            return now;
        }
        let geo = self.dev.geometry();
        let media = OcssdMedia::new(self.dev.clone());
        (0..geo.total_chunks())
            .map(|c| media.flush_chunk(now, ChunkAddr::from_linear(&geo, c)).done)
            .fold(now, SimTime::max)
    }
}

impl FaultHost for Host {
    fn write(&mut self, now: SimTime, slot: u64, version: u32) -> Result<SimTime, String> {
        let page = fingerprint(slot, version, SECTOR_BYTES);
        match self.ftl.write(now, slot, &page) {
            Ok(out) => Ok(out.done),
            Err(e) => {
                self.failed = true;
                Err(e.to_string())
            }
        }
    }

    fn read(&mut self, now: SimTime, slot: u64) -> Result<Option<u32>, String> {
        let mut out = vec![0u8; SECTOR_BYTES];
        self.ftl
            .read(now, slot, &mut out)
            .map_err(|e| e.to_string())?;
        if out.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        match parse_fingerprint(&out) {
            Some((s, v)) if s == slot => Ok(Some(v)),
            Some((s, v)) => Err(format!("slot {slot} returned slot {s} v{v} content")),
            None => Err(format!("slot {slot} returned torn bytes")),
        }
    }

    fn maintain(&mut self, now: SimTime) -> Result<SimTime, String> {
        let mut t = now;
        let retries = if self.ftl.is_degraded() {
            GC_RETRIES
        } else {
            1
        };
        let before = self.ftl.wal_pending_records();
        for _ in 0..retries {
            match self.ftl.maybe_gc(t) {
                Ok(Some(pass)) => t = t.max(pass.done),
                Ok(None) => {}
                Err(BlockFtlError::ReadOnly) => {
                    self.gc_failures += 1;
                    self.failed = true;
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        if self.ftl.is_degraded() {
            let growth = self.ftl.wal_pending_records().saturating_sub(before);
            self.max_growth = self.max_growth.max(growth);
        }
        Ok(self.frontier(t))
    }

    fn crash_and_recover(&mut self, now: SimTime) -> Result<SimTime, String> {
        let now = self.frontier(now);
        self.dev.crash(now);
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(self.dev.clone()));
        let (ftl, outcome) =
            BlockFtl::recover(media, self.config, now).map_err(|e| e.to_string())?;
        self.ftl = ftl;
        Ok(outcome.done)
    }
}

#[test]
fn failed_gc_passes_leave_no_wal_debris_and_lose_no_acked_data() {
    let geo = ablation_geometry();
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    // A logical space nearly as large as the raw device: overwrites run the
    // spare pool dry and the store degrades to read-only.
    let slots = geo.total_sectors() * 7 / 8;
    let config = BlockFtlConfig::with_capacity(slots * SECTOR_BYTES as u64);
    let (ftl, t) = BlockFtl::format(media, config, SimTime::ZERO).unwrap();
    let mut host = Host {
        dev: dev.clone(),
        ftl,
        config,
        failed: false,
        gc_failures: 0,
        max_growth: 0,
    };

    let mut rng = Prng::seed_from_u64(0x6C0F);
    let case = FaultCase {
        seed: 0x6C0F,
        plan: Default::default(),
        ops: (0..slots)
            .map(|i| (rng.gen_range(slots), i as u32 + 1))
            .collect(),
        crash_frac: 1.0,
        maintain_every: 16,
        torn_tail: false,
    };
    let report = run_case(&case, &dev, &mut host, t).unwrap_or_else(|e| panic!("{e}"));

    assert!(report.failed_writes > 0, "the store never degraded");
    assert!(
        host.gc_failures > 100,
        "GC was retried only {} times in read-only mode",
        host.gc_failures
    );
    assert_eq!(
        host.max_growth, 0,
        "failed GC passes left uncommitted WAL records pending"
    );
}
