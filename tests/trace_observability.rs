//! Cross-crate observability integration test: one shared [`Obs`] handle is
//! threaded through the full stack (device → LightLSM FTL → LSM KV store),
//! a fill-sequential workload runs end to end, and the resulting trace and
//! metrics are checked for internal consistency — matched begin/end spans,
//! strictly monotone sequence numbers, and per-subsystem byte counters that
//! reconcile with the independent `ocssd::stats` accounting.

use ox_bench::dbbench::{run_workload, BenchConfig, Workload};
use ox_workbench::lightlsm::{LightLsm, LightLsmConfig};
use ox_workbench::lsmkv::{Db, DbConfig, LightLsmStore, SharedDb, TableStore};
use ox_workbench::ocssd::{DeviceConfig, Geometry, OcssdDevice, SharedDevice};
use ox_workbench::ox_core::{Media, OcssdMedia};
use ox_workbench::ox_sim::trace::{Obs, TracePhase};
use ox_workbench::ox_sim::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

/// Builds the full stack with one shared observability handle, mirroring
/// how the figure binaries wire it up.
fn observed_stack(obs: &Obs) -> (SharedDb, SharedDevice, Arc<LightLsmStore>) {
    let dev = SharedDevice::new(OcssdDevice::new(DeviceConfig::with_geometry(
        Geometry::paper_tlc_scaled(22, 32),
    )));
    dev.set_obs(obs.clone());
    let media: Arc<dyn Media> = Arc::new(OcssdMedia::new(dev.clone()));
    let (mut ftl, _) = LightLsm::format(media, LightLsmConfig::default(), SimTime::ZERO).unwrap();
    ftl.set_obs(obs.clone());
    let store = Arc::new(LightLsmStore::new(ftl));
    let mut db = Db::new(
        store.clone() as Arc<dyn TableStore>,
        DbConfig {
            memtable_bytes: 1024 * 1024,
            level_base_blocks: 128,
            level_multiplier: 4,
            ..DbConfig::default()
        },
    );
    db.set_obs(obs.clone());
    (SharedDb::new(db), dev, store)
}

#[test]
fn spans_pair_and_counters_reconcile_across_the_stack() {
    // A large cap so nothing is dropped: span pairing is only checkable on
    // a complete trace.
    let obs = Obs::new(1 << 20);
    obs.tracer.set_enabled(true);
    let (db, dev, store) = observed_stack(&obs);

    // Single client: completions are serialized, so event timestamps are
    // globally monotone per span.
    let cfg = BenchConfig::paper(Workload::FillSequential, 1, 8_000);
    let (report, _t) = run_workload(&db, cfg, SimTime::ZERO);
    assert_eq!(report.total_ops, 8_000);

    let events = obs.tracer.snapshot();
    assert_eq!(obs.tracer.dropped(), 0, "trace must be complete");
    assert!(!events.is_empty(), "instrumented stack must emit events");

    // Sequence numbers are strictly increasing in emission order.
    for w in events.windows(2) {
        assert!(w[1].seq > w[0].seq, "seq must be strictly monotone");
    }

    // Every begin has exactly one end with the same span id, subsystem and
    // op, and the span does not close before it opens.
    let mut open: HashMap<u64, &ox_workbench::ox_sim::trace::TraceEvent> = HashMap::new();
    for ev in &events {
        match ev.phase {
            TracePhase::Begin => {
                assert!(ev.span != 0, "begin events carry a span id");
                let prev = open.insert(ev.span, ev);
                assert!(prev.is_none(), "span {} opened twice", ev.span);
            }
            TracePhase::End => {
                let begin = open
                    .remove(&ev.span)
                    .unwrap_or_else(|| panic!("end without begin for span {}", ev.span));
                assert_eq!(begin.subsystem, ev.subsystem, "span {}", ev.span);
                assert_eq!(begin.op, ev.op, "span {}", ev.span);
                assert!(ev.at >= begin.at, "span {} ends before it begins", ev.span);
            }
            TracePhase::Instant => assert_eq!(ev.span, 0, "instants carry no span id"),
        }
    }
    assert!(open.is_empty(), "unclosed spans: {:?}", open.keys());

    // Subsystems across all three layers actually show up.
    for subsystem in ["device", "wal", "lightlsm", "lsm"] {
        assert!(
            events.iter().any(|e| e.subsystem == subsystem),
            "no events from subsystem {subsystem}"
        );
    }

    // The metrics registry reconciles with the device's own accounting.
    let snap = obs.metrics.snapshot();
    let stats = dev.with(|d| d.stats().clone());
    let writes = &snap.counters["device.write"];
    assert_eq!(writes.ops(), stats.writes.ops(), "device.write ops");
    assert_eq!(writes.bytes(), stats.writes.bytes(), "device.write bytes");
    if let Some(media_reads) = snap.counters.get("device.read.media") {
        assert_eq!(media_reads.ops(), stats.media_reads.ops());
        assert_eq!(media_reads.bytes(), stats.media_reads.bytes());
    }

    // ...and with the FTL's and the KV store's independent stats.
    let fs = store.with_ftl(|f| f.stats());
    assert_eq!(
        snap.counters["lightlsm.flush"].ops(),
        fs.flushes,
        "lightlsm.flush ops == FTL flush count"
    );
    let cs = db.compaction_stats();
    assert_eq!(
        snap.counters["lsm.flush"].ops(),
        cs.flushes,
        "lsm.flush ops == LSM flush count"
    );
    if cs.compactions > 0 {
        assert_eq!(snap.counters["lsm.compaction"].ops(), cs.compactions);
    }

    // Traced device-write spans account for exactly the bytes the device
    // reports — the byte-level reconciliation across layers.
    let span_bytes: u64 = events
        .iter()
        .filter(|e| e.subsystem == "device" && e.op == "write" && e.phase == TracePhase::Begin)
        .map(|e| e.bytes)
        .sum();
    assert_eq!(
        span_bytes,
        stats.writes.bytes(),
        "trace bytes == device bytes"
    );

    // JSON export is well-formed enough to hand to tooling.
    let json = obs.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    for key in [
        "\"events\"",
        "\"counters\"",
        "\"device.write\"",
        "\"lsm.flush\"",
    ] {
        assert!(json.contains(key), "JSON export missing {key}");
    }
}

#[test]
fn disabled_tracer_stays_silent_but_metrics_still_count() {
    let obs = Obs::new(4096); // tracer defaults to disabled
    let (db, dev, _store) = observed_stack(&obs);
    let cfg = BenchConfig::paper(Workload::FillSequential, 1, 1_000);
    run_workload(&db, cfg, SimTime::ZERO);

    assert!(obs.tracer.is_empty(), "disabled tracer records nothing");
    assert_eq!(obs.tracer.dropped(), 0);
    let snap = obs.metrics.snapshot();
    let stats = dev.with(|d| d.stats().clone());
    assert_eq!(snap.counters["device.write"].bytes(), stats.writes.bytes());
}
