//! Garbage collection with group-marked locality.
//!
//! OX-Block "marks a group for collection; then background threads recycle
//! victim chunks within that group. This guarantees locality of
//! interferences from garbage collection" (paper §4.3): on an SSD with N
//! independent groups, (N−1)/N of user I/O never queues behind GC — 93.75 %
//! at 16 groups, 87.5 % at 8.
//!
//! The collector is greedy (min-valid-count victim), relocates live sectors
//! with the device-internal copy command, journals the resulting map changes
//! as a WAL transaction *before* resetting the victim (so a crash between
//! relocation and checkpoint cannot resurrect stale mappings), and returns
//! reclaimed chunks to the provisioner.

use crate::mapping::PageMap;
use crate::media::Media;
use crate::provision::Provisioner;
use crate::wal::{Wal, WalError, WalRecord};
use ocssd::{ChunkAddr, ChunkState, Ppa};
use ox_sim::trace::Obs;
use ox_sim::SimTime;
use std::collections::HashSet;
use std::sync::Arc;

/// GC policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct GcConfig {
    /// Run GC when device-wide free chunks drop below this.
    pub low_watermark: u32,
    /// Victims to recycle per collection pass.
    pub chunks_per_pass: u32,
    /// Wear-leveling bias in victim selection: the greedy score becomes
    /// `valid_sectors + wear_bias × wear`, steering collection toward
    /// low-wear chunks so erase cycles spread instead of piling onto the
    /// emptiest chunks. Zero (the default) is pure greedy — byte-identical
    /// to the collector before the knob existed.
    pub wear_bias: u32,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            low_watermark: 8,
            chunks_per_pass: 2,
            wear_bias: 0,
        }
    }
}

/// Result of one collection pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcPass {
    /// Chunks reclaimed.
    pub victims: u32,
    /// Live sectors relocated.
    pub moved_sectors: u64,
    /// Padding sectors written to satisfy `ws_min` (dead on arrival).
    pub padded_sectors: u64,
    /// Completion time of the pass.
    pub done: SimTime,
}

impl GcPass {
    /// Folds one recycled victim's sub-pass into this pass.
    fn absorb(&mut self, sub: GcPass) {
        self.victims += sub.victims;
        self.moved_sectors += sub.moved_sectors;
        self.padded_sectors += sub.padded_sectors;
        self.done = sub.done;
    }
}

/// Cumulative GC statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcStats {
    /// Collection passes run.
    pub passes: u64,
    /// Total victims reclaimed.
    pub victims: u64,
    /// Total live sectors moved.
    pub moved_sectors: u64,
    /// Total padding sectors.
    pub padded_sectors: u64,
    /// Relocation batches that failed over to a fresh destination chunk
    /// after a program failure.
    pub copy_failovers: u64,
    /// Victim resets that failed, forfeiting the chunk as a grown bad
    /// block instead of recycling it.
    pub reset_failures: u64,
}

/// The garbage collector.
pub struct GarbageCollector {
    config: GcConfig,
    /// Group currently marked for collection (GC activity is confined here).
    marked_group: u32,
    reserved: HashSet<u64>,
    next_txid: u64,
    stats: GcStats,
    obs: Obs,
    /// Optional relocation-I/O override: when set, copies and resets issue
    /// through this media (an `iosched` GC-class tenant) instead of the
    /// FTL's direct media, so background relocation is arbitrated against —
    /// and yields to — user traffic.
    io_media: Option<Arc<dyn Media>>,
}

impl GarbageCollector {
    /// Creates a collector. `reserved` chunks (linear) are never victims.
    pub fn new(config: GcConfig, reserved: &[u64]) -> Self {
        GarbageCollector {
            config,
            marked_group: 0,
            reserved: reserved.iter().copied().collect(),
            next_txid: 1 << 48, // disjoint from user transaction ids
            stats: GcStats::default(),
            obs: Obs::default(),
            io_media: None,
        }
    }

    /// Routes the collector's relocation I/O (copy + reset) through `media`
    /// — typically an [`crate::Media`] adapter bound to a scheduler's
    /// GC-class tenant. Victim selection and WAL traffic are unaffected.
    pub fn set_io_media(&mut self, media: Arc<dyn Media>) {
        self.io_media = Some(media);
    }

    /// Points the collector's observability at shared sinks. Each pass is a
    /// `gc.pass` span; victims and copy volume land in `gc.victims` /
    /// `gc.moved` / `gc.padded` counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The group currently marked for collection.
    pub fn marked_group(&self) -> u32 {
        self.marked_group
    }

    /// Marks a specific group for collection.
    pub fn mark_group(&mut self, group: u32) {
        self.marked_group = group;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> GcStats {
        self.stats
    }

    /// Whether a pass is warranted given the provisioner's pools.
    pub fn needs_gc(&self, prov: &Provisioner) -> bool {
        prov.free_chunks() < self.config.low_watermark
    }

    /// Picks the lowest-scoring closed data chunk in the marked group
    /// (score = valid sectors, plus `wear_bias × wear` when wear leveling is
    /// on). Marks the next group if the current one has no victims (rotating
    /// the GC focus, as OX does between passes).
    fn select_victim(&mut self, media: &Arc<dyn Media>, map: &PageMap) -> Option<(ChunkAddr, u64)> {
        let geo = media.geometry();
        for _ in 0..geo.num_groups {
            let group = self.marked_group;
            let mut best: Option<(ChunkAddr, u64)> = None;
            for pu in 0..geo.pus_per_group {
                for chunk in 0..geo.chunks_per_pu {
                    let addr = ChunkAddr::new(group, pu, chunk);
                    let lin = addr.linear(&geo);
                    if self.reserved.contains(&lin) {
                        continue;
                    }
                    let info = media.chunk_info(addr);
                    if info.state != ChunkState::Closed {
                        continue;
                    }
                    let valid = map.valid_count(lin);
                    if valid == geo.sectors_per_chunk {
                        continue; // nothing to reclaim
                    }
                    let score = valid as u64 + self.config.wear_bias as u64 * info.wear as u64;
                    if best.is_none_or(|(_, s)| score < s) {
                        best = Some((addr, score));
                    }
                }
            }
            if best.is_some() {
                return best;
            }
            // Nothing collectible here: rotate the marked group.
            self.marked_group = (self.marked_group + 1) % geo.num_groups;
        }
        None
    }

    /// Relocates `victim`'s live sectors, journals the remap, and erases the
    /// chunk: the shared machinery behind both collection passes and
    /// scrub-driven refresh. Map changes commit to the WAL *before* the
    /// reset, so a crash in between cannot resurrect stale mappings. Returns
    /// the victim's sub-pass (reclaim/copy volume + completion time) for the
    /// caller to absorb.
    fn recycle_victim(
        &mut self,
        now: SimTime,
        victim: ChunkAddr,
        io: &Arc<dyn Media>,
        map: &mut PageMap,
        prov: &mut Provisioner,
        wal: &mut Wal,
    ) -> Result<GcPass, WalError> {
        let mut pass = GcPass {
            done: now,
            ..Default::default()
        };
        let geo = io.geometry();
        let group = victim.group;
        let victim_lin = victim.linear(&geo);
        let live = map.valid_sectors(victim_lin);
        let txid = self.next_txid;
        self.next_txid += 1;

        let mut t = now;
        if !live.is_empty() {
            let begin = wal.append(WalRecord::TxBegin { txid });
            let relocated = 'relocate: {
                let mut cursor = 0usize;
                while cursor < live.len() {
                    // One ws_min batch: pad with repeats of the last live
                    // sector if the tail is short.
                    let mut batch: Vec<Ppa> = Vec::with_capacity(geo.ws_min as usize);
                    let mut lpns: Vec<Option<u64>> = Vec::with_capacity(geo.ws_min as usize);
                    for k in 0..geo.ws_min as usize {
                        if let Some(&(ppa, lpn)) = live.get(cursor + k) {
                            batch.push(ppa);
                            lpns.push(Some(lpn));
                        } else {
                            batch.push(live[live.len() - 1].0);
                            lpns.push(None);
                            pass.padded_sectors += 1;
                        }
                    }
                    cursor += geo.ws_min as usize;

                    // Destination in the same group, never the victim chunk.
                    // A program failure on the destination freezes it; the
                    // write point is retired and the batch retries on a
                    // fresh chunk. Every retry permanently consumes a chunk
                    // from provisioning, so the loop is bounded by the
                    // healthy-chunk supply.
                    let (slot, comp) = loop {
                        let slot = loop {
                            let Some(slot) = prov.allocate_in_group(group) else {
                                // Group out of space: fall back to any group.
                                match prov.allocate_horizontal() {
                                    Some(s) => break s,
                                    None => break 'relocate Err(WalError::LogFull),
                                }
                            };
                            if slot.chunk != victim {
                                break slot;
                            }
                        };
                        match io.copy(t, &batch, slot.chunk) {
                            Ok(comp) => break (slot, comp),
                            Err(
                                ocssd::DeviceError::MediaFailure(_)
                                | ocssd::DeviceError::ChunkOffline(_)
                                | ocssd::DeviceError::InvalidChunkState { .. },
                            ) => {
                                prov.mark_offline(slot.chunk);
                                self.stats.copy_failovers += 1;
                                self.obs.metrics.record("gc.copy_failover", 0);
                            }
                            Err(e) => break 'relocate Err(e.into()),
                        }
                    };
                    t = comp.done;
                    for (k, lpn) in lpns.iter().enumerate() {
                        if let Some(lpn) = lpn {
                            let dst = slot.chunk.ppa(slot.sector + k as u32);
                            map.map(*lpn, dst);
                            wal.append(WalRecord::MapUpdate {
                                txid,
                                lpn: *lpn,
                                ppa_linear: dst.linear(&geo),
                            });
                            pass.moved_sectors += 1;
                        }
                    }
                }
                wal.append(WalRecord::TxCommit { txid });
                wal.commit(t)
            };
            // A pass that fails before its commit is rolled back whole: the
            // moved sectors map back to the victim (which still holds them)
            // and the transaction's records leave the log's buffer, so
            // retried passes cannot pile up uncommitted records.
            match relocated {
                Ok(done) => t = done,
                Err(e) => {
                    for &(ppa, lpn) in &live[..pass.moved_sectors as usize] {
                        map.map(lpn, ppa);
                    }
                    wal.discard_from(begin);
                    return Err(e);
                }
            }
        }

        // Victim is now dead; erase and recycle. An erase failure
        // retires the victim as a grown bad block (the device already
        // queued the media event). Its live data is relocated and
        // journaled, so the pass just forfeits the chunk rather than
        // failing the collection.
        match io.reset(t, victim) {
            Ok(comp) => {
                t = comp.done;
                prov.release_chunk(victim);
                pass.victims += 1;
            }
            Err(_) => {
                prov.mark_offline(victim);
                self.stats.reset_failures += 1;
                self.obs.metrics.record("gc.reset_failure", 0);
            }
        }
        pass.done = t;
        Ok(pass)
    }

    /// Runs one collection pass at `now`. Relocations stay inside the marked
    /// group; map changes are journaled through `wal` before the victim is
    /// reset. Returns what was reclaimed.
    pub fn collect(
        &mut self,
        now: SimTime,
        media: &Arc<dyn Media>,
        map: &mut PageMap,
        prov: &mut Provisioner,
        wal: &mut Wal,
    ) -> Result<GcPass, WalError> {
        let io = self.io_media.clone();
        let io: &Arc<dyn Media> = io.as_ref().unwrap_or(media);
        let mut pass = GcPass {
            done: now,
            ..Default::default()
        };
        for _ in 0..self.config.chunks_per_pass {
            let Some((victim, _score)) = self.select_victim(media, map) else {
                break;
            };
            let sub = self.recycle_victim(pass.done, victim, io, map, prov, wal)?;
            pass.absorb(sub);
        }
        self.stats.passes += 1;
        self.stats.victims += pass.victims as u64;
        self.stats.moved_sectors += pass.moved_sectors;
        self.stats.padded_sectors += pass.padded_sectors;
        let moved_bytes = pass.moved_sectors * ocssd::SECTOR_BYTES as u64;
        self.obs.metrics.record("gc.pass", moved_bytes);
        self.obs.metrics.add("gc.victims", pass.victims as u64, 0);
        self.obs
            .metrics
            .add("gc.moved", pass.moved_sectors, moved_bytes);
        self.obs.metrics.add(
            "gc.padded",
            pass.padded_sectors,
            pass.padded_sectors * ocssd::SECTOR_BYTES as u64,
        );
        self.obs
            .metrics
            .gauge_set("gc.marked_group", self.marked_group as i64);
        self.obs
            .tracer
            .span(now, pass.done, "gc", "pass", moved_bytes);
        Ok(pass)
    }

    /// Refresh-relocates one caller-chosen chunk: moves its live data to
    /// fresh chunks, journals the remap, and erases the victim. This is the
    /// scrubber's entry point for chunks the device flags as refresh-due —
    /// unlike [`GarbageCollector::collect`] the victim may be fully valid
    /// (a retention refresh rewrites everything). Reserved chunks and chunks
    /// that are not `Closed` are skipped with an empty pass: the caller reads
    /// `victims == 0` as "not refreshed, try again later". Volume lands in
    /// `gc.refresh` rather than `gc.pass` metrics.
    pub fn relocate_chunk(
        &mut self,
        now: SimTime,
        victim: ChunkAddr,
        media: &Arc<dyn Media>,
        map: &mut PageMap,
        prov: &mut Provisioner,
        wal: &mut Wal,
    ) -> Result<GcPass, WalError> {
        let geo = media.geometry();
        let mut pass = GcPass {
            done: now,
            ..Default::default()
        };
        if self.reserved.contains(&victim.linear(&geo))
            || media.chunk_info(victim).state != ChunkState::Closed
        {
            return Ok(pass);
        }
        let io = self.io_media.clone();
        let io: &Arc<dyn Media> = io.as_ref().unwrap_or(media);
        let sub = self.recycle_victim(now, victim, io, map, prov, wal)?;
        pass.absorb(sub);
        self.stats.victims += pass.victims as u64;
        self.stats.moved_sectors += pass.moved_sectors;
        self.stats.padded_sectors += pass.padded_sectors;
        let moved_bytes = pass.moved_sectors * ocssd::SECTOR_BYTES as u64;
        self.obs.metrics.record("gc.refresh", moved_bytes);
        self.obs
            .tracer
            .span(now, pass.done, "gc", "refresh", moved_bytes);
        Ok(pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Layout, LayoutConfig};
    use crate::media::OcssdMedia;
    use ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};

    struct Rig {
        media: Arc<dyn Media>,
        geo: Geometry,
        map: PageMap,
        prov: Provisioner,
        wal: Wal,
        layout: Layout,
        gc: GarbageCollector,
        t: SimTime,
    }

    fn rig() -> Rig {
        let geo = Geometry::paper_tlc_scaled(22, 8);
        let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(geo)));
        let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev));
        let layout = Layout::plan(&geo, LayoutConfig::default());
        let reserved = layout.reserved_linear(&geo);
        let prov = Provisioner::fresh(geo, &reserved);
        let map = PageMap::new(geo, 100_000);
        let (wal, t) =
            Wal::format(media.clone(), layout.wal_chunks.clone(), SimTime::ZERO).unwrap();
        let gc = GarbageCollector::new(
            GcConfig {
                chunks_per_pass: 1,
                ..GcConfig::default()
            },
            &reserved,
        );
        Rig {
            media,
            geo,
            map,
            prov,
            wal,
            layout,
            gc,
            t,
        }
    }

    /// Writes `lpns` sequentially onto the first PU of `group`, so chunks
    /// fill (and close) one at a time.
    fn fill(r: &mut Rig, lpns: std::ops::Range<u64>, group: u32) {
        let data = vec![0x5Au8; r.geo.ws_min_bytes()];
        let pu = group * r.geo.pus_per_group;
        let mut lpn_iter = lpns.into_iter();
        'outer: loop {
            let Some(slot) = r.prov.allocate_on_pu(pu) else {
                panic!("out of space during fill");
            };
            let comp = r
                .media
                .write(r.t, slot.chunk.ppa(slot.sector), &data)
                .unwrap();
            r.t = comp.done;
            for k in 0..r.geo.ws_min {
                let Some(lpn) = lpn_iter.next() else {
                    break 'outer;
                };
                r.map.map(lpn, slot.chunk.ppa(slot.sector + k));
            }
        }
        let f = r.media.flush(r.t);
        r.t = f.done;
    }

    #[test]
    fn collect_reclaims_empty_closed_chunks_without_copies() {
        let mut r = rig();
        let units = r.geo.ws_min as u64;
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        // Fill exactly one chunk worth in group 0, then overwrite everything
        // (all sectors of the first chunk become invalid).
        fill(&mut r, 0..chunk_lpns, 0);
        fill(&mut r, 0..chunk_lpns, 0);
        let free_before = r.prov.free_chunks();
        r.gc.mark_group(0);
        let pass =
            r.gc.collect(r.t, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
                .unwrap();
        assert!(pass.victims >= 1);
        assert_eq!(
            pass.moved_sectors, 0,
            "fully-invalid victim needs no copies"
        );
        assert!(r.prov.free_chunks() > free_before);
        let _ = units;
    }

    #[test]
    fn collect_relocates_live_data_and_remaps() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        let ws = r.geo.ws_min as u64;
        fill(&mut r, 0..chunk_lpns, 0);
        // Overwrite all but the first write unit: the victim keeps ws_min
        // live sectors.
        fill(&mut r, ws..chunk_lpns, 0);
        r.gc.mark_group(0);
        let before: Vec<_> = (0..r.geo.ws_min as u64)
            .map(|l| r.map.lookup(l).unwrap())
            .collect();
        let pass =
            r.gc.collect(r.t, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
                .unwrap();
        assert!(pass.victims >= 1);
        assert_eq!(pass.moved_sectors, r.geo.ws_min as u64);
        for (l, old) in (0..r.geo.ws_min as u64).zip(before) {
            let new = r.map.lookup(l).expect("still mapped");
            assert_ne!(new, old, "lpn {l} relocated");
            // Relocation stays in the marked group.
            assert_eq!(new.group, 0);
            // And the data is readable there.
            let mut out = vec![0u8; ocssd::SECTOR_BYTES];
            r.media.read(pass.done, new, 1, &mut out).unwrap();
            assert_eq!(out[0], 0x5A);
        }
    }

    #[test]
    fn gc_moves_are_journaled_before_reset() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        let ws = r.geo.ws_min as u64;
        fill(&mut r, 0..chunk_lpns, 0);
        fill(&mut r, ws..chunk_lpns, 0);
        r.gc.mark_group(0);
        let frames_before = r.wal.frames_written();
        r.gc.collect(r.t, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
            .unwrap();
        assert!(
            r.wal.frames_written() > frames_before,
            "GC must commit a WAL transaction for its moves"
        );
        // The journaled moves replay correctly.
        let (frames, _, _) = crate::wal::scan(&r.media, &r.layout.wal_chunks, r.t);
        let has_gc_commit = frames
            .iter()
            .flat_map(|f| &f.records)
            .any(|rec| matches!(rec, WalRecord::TxCommit { txid } if *txid >= (1 << 48)));
        assert!(has_gc_commit);
    }

    #[test]
    fn needs_gc_tracks_watermark() {
        let mut r = rig();
        assert!(!r.gc.needs_gc(&r.prov));
        // Exhaust nearly all free chunks.
        let total = r.prov.free_chunks();
        for _ in 0..total.saturating_sub(4) {
            let pu = 0;
            let _ = r.prov.take_free_chunk(pu % r.geo.total_pus()).is_some()
                || (1..r.geo.total_pus()).any(|p| r.prov.take_free_chunk(p).is_some());
        }
        assert!(r.gc.needs_gc(&r.prov));
    }

    #[test]
    fn marked_group_rotates_when_empty() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        // Only group 2 has a collectible chunk.
        fill(&mut r, 0..chunk_lpns, 2);
        fill(&mut r, 0..chunk_lpns, 2);
        r.gc.mark_group(0);
        let pass =
            r.gc.collect(r.t, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
                .unwrap();
        assert!(pass.victims >= 1, "collector rotated to the busy group");
        assert_eq!(r.gc.marked_group(), 2);
    }

    /// Claims and fully writes one chunk on `pu` without mapping any lpns,
    /// so every sector is invalid from GC's point of view. Returns the
    /// chunk's address.
    fn write_unmapped_chunk(r: &mut Rig, pu: u32) -> ChunkAddr {
        let data = vec![0xA5u8; r.geo.ws_min_bytes()];
        let mut addr = None;
        for _ in 0..(r.geo.sectors_per_chunk / r.geo.ws_min) {
            let slot = r.prov.allocate_on_pu(pu).expect("out of space");
            let comp = r
                .media
                .write(r.t, slot.chunk.ppa(slot.sector), &data)
                .unwrap();
            r.t = comp.done;
            addr = Some(slot.chunk);
        }
        let f = r.media.flush(r.t);
        r.t = f.done;
        addr.unwrap()
    }

    #[test]
    fn wear_bias_steers_victim_selection_to_low_wear_chunks() {
        let mut r = rig();
        r.gc = GarbageCollector::new(
            GcConfig {
                chunks_per_pass: 1,
                wear_bias: 1,
                ..GcConfig::default()
            },
            &r.layout.reserved_linear(&r.geo),
        );
        let data = vec![0xA5u8; r.geo.ws_min_bytes()];
        // Chunk `a`: one extra erase cycle, then refilled (still fully
        // invalid). Chunk `b`: same occupancy, zero wear.
        let a = write_unmapped_chunk(&mut r, 0);
        r.t = r.media.reset(r.t, a).unwrap().done;
        let mut s = 0;
        while s < r.geo.sectors_per_chunk {
            r.t = r.media.write(r.t, a.ppa(s), &data).unwrap().done;
            s += r.geo.ws_min;
        }
        let b = write_unmapped_chunk(&mut r, 0);
        assert_ne!(a, b);
        assert_eq!(r.media.chunk_info(a).wear, 1);
        assert_eq!(r.media.chunk_info(b).wear, 0);
        r.gc.mark_group(0);
        let pass =
            r.gc.collect(r.t, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
                .unwrap();
        assert_eq!(pass.victims, 1);
        assert_eq!(
            r.media.chunk_info(b).state,
            ChunkState::Free,
            "low-wear chunk collected first"
        );
        assert_eq!(
            r.media.chunk_info(a).state,
            ChunkState::Closed,
            "worn chunk spared"
        );
    }

    #[test]
    fn relocate_chunk_refreshes_a_fully_valid_chunk() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        fill(&mut r, 0..chunk_lpns, 0);
        let victim = r.map.lookup(0).unwrap().chunk_addr();
        assert_eq!(r.media.chunk_info(victim).state, ChunkState::Closed);
        // Fully valid, so normal GC refuses it...
        r.gc.mark_group(0);
        let gc_pass =
            r.gc.collect(r.t, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
                .unwrap();
        assert_eq!(gc_pass.victims, 0, "fully-valid chunk is not a GC victim");
        // ...but a refresh relocates everything and erases it.
        let pass =
            r.gc.relocate_chunk(r.t, victim, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
                .unwrap();
        assert_eq!(pass.victims, 1);
        assert_eq!(pass.moved_sectors, r.geo.sectors_per_chunk as u64);
        assert_eq!(r.media.chunk_info(victim).state, ChunkState::Free);
        for l in 0..chunk_lpns {
            let new = r.map.lookup(l).expect("still mapped");
            assert_ne!(new.chunk_addr(), victim, "lpn {l} moved off the victim");
            let mut out = vec![0u8; ocssd::SECTOR_BYTES];
            r.media.read(pass.done, new, 1, &mut out).unwrap();
            assert_eq!(out[0], 0x5A, "lpn {l} readable after refresh");
        }
    }

    #[test]
    fn relocate_chunk_skips_reserved_and_unclosed_chunks() {
        let mut r = rig();
        let reserved = r.layout.wal_chunks[0];
        let pass =
            r.gc.relocate_chunk(r.t, reserved, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
                .unwrap();
        assert_eq!(pass.victims, 0);
        assert_eq!(pass.moved_sectors, 0);
        // A never-written data chunk is not refreshable either.
        let slot = r.prov.allocate_on_pu(0).unwrap();
        let pass =
            r.gc.relocate_chunk(
                r.t,
                slot.chunk,
                &r.media,
                &mut r.map,
                &mut r.prov,
                &mut r.wal,
            )
            .unwrap();
        assert_eq!(pass.victims, 0);
    }

    #[test]
    fn nothing_to_collect_is_a_clean_noop() {
        let mut r = rig();
        let pass =
            r.gc.collect(r.t, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
                .unwrap();
        assert_eq!(pass.victims, 0);
        assert_eq!(pass.moved_sectors, 0);
        assert_eq!(pass.done, r.t);
    }

    #[test]
    fn failed_pass_rolls_back_its_remaps_and_log_records() {
        let mut r = rig();
        let chunk_lpns = r.geo.sectors_per_chunk as u64;
        let live = 2 * r.geo.ws_min as u64; // two relocation batches
        fill(&mut r, 0..chunk_lpns, 0);
        fill(&mut r, live..chunk_lpns, 0);
        // Fill the log ring so the pass's commit cannot land: the copies
        // succeed, then the transaction fails.
        loop {
            r.wal.append(WalRecord::TxBegin { txid: 0 });
            match r.wal.commit(r.t) {
                Ok(t) => r.t = t,
                Err(WalError::LogFull) => break,
                Err(e) => panic!("{e}"),
            }
        }
        let lsn = r.wal.next_lsn();
        let pending = r.wal.pending_records();
        let before: Vec<_> = (0..live).map(|l| r.map.lookup(l).unwrap()).collect();
        let victim = before[0].chunk_addr().linear(&r.geo);
        let valid = r.map.valid_count(victim);

        r.gc.mark_group(0);
        let err =
            r.gc.collect(r.t, &r.media, &mut r.map, &mut r.prov, &mut r.wal)
                .unwrap_err();
        assert_eq!(err, WalError::LogFull);
        let after: Vec<_> = (0..live).map(|l| r.map.lookup(l).unwrap()).collect();
        assert_eq!(after, before, "moved sectors map back to the victim");
        assert_eq!(r.map.valid_count(victim), valid);
        assert_eq!(r.wal.pending_records(), pending, "no records left behind");
        assert_eq!(r.wal.next_lsn(), lsn, "the pass's LSNs are reused");
    }
}
