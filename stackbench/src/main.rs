//! The OX stack benchmark.
//!
//! ```text
//! stackbench --workload <lsm-fill-read|block-ycsb-a|ztl-ycsb-b>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's stack, loads it and warms it up to steady state
//! (three times, reporting the median set-up time), then measures windows
//! of a fixed op count: the first `Workload::VIRTUAL_WINDOWS` give every
//! virtual metric, and windows keep running until `--seconds` of host time
//! have passed; host ns per op is that of the fastest two consecutive
//! windows. `--trace 0` prints the end-to-end metrics; `--trace 1` measures
//! once untraced and once with the layer boundaries timed, checks the two
//! agree on every virtual metric, and prints the per-layer metrics. The
//! last stdout line is one JSON object; a wrong read makes the exit code
//! non-zero.

mod block;
mod keys;
mod layers;
mod loadgen;
mod lsm;
mod stack;
mod ztl;

use layers::{Layer, Probe, Profile, LAYERS};
use loadgen::{Run, Tally};
use ox_sim::SimTime;
use stack::{Counters, Workload};
use std::time::Duration;

/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up is checked, not open-ended: after the workload's fixed number
/// of warm-up windows, its steady-state precondition must hold and the mean
/// WAF and mean write throughput of the last `STEADY_WINDOWS` windows must
/// each be within `STEADY_TOLERANCE` of the mean of the `STEADY_WINDOWS`
/// windows before them; otherwise the run is reported as not steady.
const STEADY_WINDOWS: usize = 4;
const STEADY_TOLERANCE: f64 = 0.10;
/// Samples a reported p99.9 needs (at least ten beyond it).
const MIN_SAMPLES: usize = 10_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: stackbench --workload <lsm-fill-read|block-ycsb-a|ztl-ycsb-b> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.chunks(2);
    for pair in &mut it {
        let [flag, val] = pair else { usage() };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    a
}

/// One metric line of the report.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn delta(after: &Counters, before: &Counters, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// VmHWM of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Write amplification and write throughput of one window.
fn window_shape(t: &Tally, d_after: &Counters, d_before: &Counters) -> (f64, f64) {
    let phys =
        delta(d_after, d_before, "dev.write_bytes") + delta(d_after, d_before, "dev.copy_bytes");
    let waf = ratio(phys, delta(d_after, d_before, "user_bytes"));
    let kops = ratio(t.writes.len() as f64, t.write_span_ns as f64 / 1e9) / 1000.0;
    (waf, kops)
}

fn levelled(shapes: &[(f64, f64)]) -> bool {
    let b = STEADY_WINDOWS;
    if shapes.len() < 2 * b {
        return false;
    }
    let mean =
        |w: &[(f64, f64)], f: fn(&(f64, f64)) -> f64| w.iter().map(f).sum::<f64>() / b as f64;
    let last = &shapes[shapes.len() - b..];
    let prev = &shapes[shapes.len() - 2 * b..shapes.len() - b];
    let close = |f: fn(&(f64, f64)) -> f64| {
        (mean(last, f) - mean(prev, f)).abs() <= STEADY_TOLERANCE * mean(prev, f)
    };
    close(|s| s.0) && close(|s| s.1)
}

/// A stack after format, load and warm-up.
struct Ready<W: Workload> {
    run: Run<W>,
    warmup_windows: usize,
    steady: bool,
    setup_tally: Tally,
}

fn set_up<W: Workload>(seed: u64) -> Ready<W> {
    let (stack, t0) = W::build();
    let mut run = Run::new(stack, seed, t0);
    let mut setup_tally = W::load(&mut run);
    let mut shapes = Vec::new();
    let mut after = Counters::new();
    while shapes.len() < W::WARMUP_WINDOWS {
        let before = run.bench.borrow().counters();
        let t = W::window(&mut run);
        after = run.bench.borrow().counters();
        shapes.push(window_shape(&t, &after, &before));
        setup_tally.merge(&t);
    }
    let steady = run.bench.borrow().warmed(&after) && levelled(&shapes);
    eprintln!(
        "warm-up: {} windows, steady={steady}; (waf, write kops/vs) per window: {}",
        shapes.len(),
        shapes
            .iter()
            .map(|(w, k)| format!("({w:.3}, {k:.2})"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ready {
        run,
        warmup_windows: shapes.len(),
        steady,
        setup_tally,
    }
}

/// What the measured windows of one pass gave.
struct Measured {
    /// Tally of the virtual windows.
    tally_v: Tally,
    /// Tally of every window.
    tally_all: Tally,
    /// Counter deltas over the virtual windows.
    before: Counters,
    after: Counters,
    /// Virtual ns the virtual windows spanned.
    span_ns: u64,
    /// Boundary figures of the virtual windows, and of every window.
    profile_v: Profile,
    profile_all: Profile,
    /// Host ns and ops of each window.
    window_host: Vec<(u64, u64)>,
    /// Host ns and ops over every window.
    host_ns: u64,
    ops: u64,
    windows: usize,
}

impl Measured {
    /// Host ns per op of the fastest two consecutive windows. The host is
    /// shared and its speed shifts by up to about 2x for seconds at a time;
    /// slower windows measure the neighbours, not the stack. Pairs, not
    /// single windows, so a workload whose windows alternate in cost (the
    /// LSM's two-window compaction rhythm) is timed over a whole cycle.
    fn fastest_pair_ns_per_op(&self) -> f64 {
        self.window_host
            .windows(2)
            .map(|w| (w[0].0 + w[1].0) as f64 / (w[0].1 + w[1].1).max(1) as f64)
            .fold(f64::INFINITY, f64::min)
    }
}

fn measure<W: Workload>(ready: &mut Ready<W>, budget: Duration, traced: bool) -> Measured {
    let run = &mut ready.run;
    layers::set_enabled(traced);
    let _ = layers::take();
    let before = run.bench.borrow().counters();
    let v_start: SimTime = run.now();
    let mut m = Measured {
        tally_v: Tally::default(),
        tally_all: Tally::default(),
        after: before.clone(),
        before,
        span_ns: 0,
        profile_v: Profile::default(),
        profile_all: Profile::default(),
        window_host: Vec::new(),
        host_ns: 0,
        ops: 0,
        windows: 0,
    };
    let started = layers::host_now();
    while m.windows < W::VIRTUAL_WINDOWS || started.elapsed() < budget {
        let h0 = layers::host_now();
        let t = W::window(run);
        let host = h0.elapsed().as_nanos() as u64;
        let prof = layers::take();
        m.window_host.push((host, t.attempted));
        m.host_ns += host;
        m.ops += t.attempted;
        m.profile_all.merge(&prof);
        m.tally_all.merge(&t);
        if m.windows < W::VIRTUAL_WINDOWS {
            m.tally_v.merge(&t);
            m.profile_v.merge(&prof);
            if m.windows + 1 == W::VIRTUAL_WINDOWS {
                m.after = run.bench.borrow().counters();
                m.span_ns = run.now().saturating_since(v_start).as_nanos();
            }
        }
        m.windows += 1;
    }
    layers::set_enabled(false);
    m
}

/// The virtual end-to-end metrics of a pass (identical for identical
/// seeds, traced or not).
fn virtual_metrics(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    let t = &m.tally_v;
    let d = |k: &str| delta(&m.after, &m.before, k);
    assert!(
        t.reads.len() >= MIN_SAMPLES && t.writes.len() >= MIN_SAMPLES,
        "too few samples for a p99.9: {} reads, {} writes",
        t.reads.len(),
        t.writes.len()
    );
    vec![
        (
            "read_kops_per_vs",
            ratio(t.reads.len() as f64, t.read_span_ns as f64 / 1e9) / 1000.0,
            "kops/vs",
        ),
        (
            "write_kops_per_vs",
            ratio(t.writes.len() as f64, t.write_span_ns as f64 / 1e9) / 1000.0,
            "kops/vs",
        ),
        ("read_p50_us", t.reads.quantile_us(0.50), "vus"),
        ("read_p999_us", t.reads.quantile_us(0.999), "vus"),
        ("write_p50_us", t.writes.quantile_us(0.50), "vus"),
        ("write_p999_us", t.writes.quantile_us(0.999), "vus"),
        (
            "waf",
            ratio(d("dev.write_bytes") + d("dev.copy_bytes"), d("user_bytes")),
            "B/B",
        ),
        (
            "ok_ratio",
            1.0 - ratio((t.failed + t.wrong) as f64, t.attempted as f64),
            "ratio",
        ),
    ]
}

/// Per-layer metrics of a traced pass.
fn layer_metrics(r: &mut Report, m: &Measured, untraced_ns_per_op: f64, ready_info: (usize, bool)) {
    let pa = &m.profile_all;
    let pv = &m.profile_v;
    let d = |k: &str| delta(&m.after, &m.before, k);
    let per_call = |p: Probe| ratio(pa.self_ns(p) as f64, pa.calls(p) as f64);
    let per_window_ms = |ns: u64| ns as f64 / 1e6 / m.windows as f64;
    let vus = |p: Probe| ratio(pv.virt_ns(p) as f64, pv.calls(p) as f64) / 1000.0;
    let ops = m.ops as f64;
    let user = d("user_bytes");

    // Host time, self per boundary call.
    r.push("lsmkv.put_self_host_ns", per_call(Probe::LsmPut), "ns");
    r.push("lsmkv.get_self_host_ns", per_call(Probe::LsmGet), "ns");
    r.push(
        "lsmkv.bg_self_host_ms",
        per_window_ms(pa.self_ns(Probe::LsmFlush) + pa.self_ns(Probe::LsmCompact)),
        "ms/window",
    );
    r.push(
        "lightlsm.flush_table_self_host_us",
        per_call(Probe::LightFlushTable) / 1000.0,
        "us",
    );
    r.push(
        "lightlsm.read_block_self_host_ns",
        per_call(Probe::LightReadBlock),
        "ns",
    );
    r.push(
        "oxblock.write_self_host_ns",
        per_call(Probe::BlockWrite),
        "ns",
    );
    r.push(
        "oxblock.read_self_host_ns",
        per_call(Probe::BlockRead),
        "ns",
    );
    r.push(
        "oxblock.gc_self_host_ms",
        per_window_ms(pa.self_ns(Probe::BlockGc)),
        "ms/window",
    );
    r.push(
        "oxblock.checkpoint_self_host_ms",
        per_window_ms(pa.self_ns(Probe::BlockCheckpoint)),
        "ms/window",
    );
    r.push(
        "iosched.self_host_ns_per_cmd",
        ratio(
            pa.layer_self_ns(Layer::Iosched) as f64,
            pa.calls(Probe::SchedCmd) as f64,
        ),
        "ns",
    );
    r.push("oxztl.read_self_host_ns", per_call(Probe::ZtlRead), "ns");
    r.push("oxztl.write_self_host_ns", per_call(Probe::ZtlWrite), "ns");
    r.push(
        "oxztl.gc_self_host_ms",
        per_window_ms(pa.self_ns(Probe::ZtlGc)),
        "ms/window",
    );
    r.push(
        "ocssd.write_host_ns_per_cmd",
        per_call(Probe::DevWrite),
        "ns",
    );
    r.push("ocssd.read_host_ns_per_cmd", per_call(Probe::DevRead), "ns");
    r.push("ocssd.copy_host_ns_per_cmd", per_call(Probe::DevCopy), "ns");
    r.push(
        "ocssd.reset_host_ns_per_cmd",
        per_call(Probe::DevReset),
        "ns",
    );
    r.push(
        "ocssd.write_cmds_per_op",
        ratio(pa.calls(Probe::DevWrite) as f64, ops),
        "cmd/op",
    );
    r.push(
        "ocssd.read_cmds_per_op",
        ratio(pa.calls(Probe::DevRead) as f64, ops),
        "cmd/op",
    );

    // Host time split: each layer's self time per op plus the remainder
    // sums to the traced total exactly.
    let mut covered = 0u64;
    for layer in LAYERS {
        let ns = pa.layer_self_ns(layer);
        covered += ns;
        r.push(
            &format!("{}.self_host_ns_per_op", layer.name()),
            ratio(ns as f64, ops),
            "ns",
        );
    }
    assert!(
        covered <= m.host_ns,
        "layer self times ({covered} ns) exceed the traced total ({} ns)",
        m.host_ns
    );
    r.push(
        "sim.host_ns_per_op",
        ratio((m.host_ns - covered) as f64, ops),
        "ns",
    );
    r.push("trace.host_ns_per_op", ratio(m.host_ns as f64, ops), "ns");
    r.push("untraced.host_ns_per_op", untraced_ns_per_op, "ns");
    r.push(
        "trace.overhead_ratio",
        ratio(m.fastest_pair_ns_per_op(), untraced_ns_per_op),
        "ratio",
    );

    // Bytes: where the write amplification comes from.
    r.push(
        "lsmkv.compaction_write_bytes_per_user_byte",
        ratio(pv.compaction_table_bytes as f64, user),
        "B/B",
    );
    r.push(
        "lsmkv.flush_write_bytes_per_user_byte",
        ratio(pv.flush_table_bytes as f64, user),
        "B/B",
    );
    r.push(
        "oxblock.pad_bytes_per_user_byte",
        ratio(d("block.pad_bytes"), user),
        "B/B",
    );
    r.push(
        "oxblock.gc_bytes_per_user_byte",
        ratio(d("block.gc_bytes"), user),
        "B/B",
    );
    r.push(
        "oxblock.wal_bytes_per_user_byte",
        ratio(d("block.wal_bytes"), user),
        "B/B",
    );
    r.push("oxblock.gc_passes", d("block.gc_passes"), "count");
    r.push("oxblock.checkpoints", d("block.checkpoints"), "count");
    let ztl_user = d("ztl.user_sectors");
    let reloc = d("ztl.gc_relocated_sectors");
    r.push(
        "oxztl.header_pad_sectors_per_user_sector",
        ratio(d("ztl.phys_sectors") - ztl_user - reloc, ztl_user),
        "sector/sector",
    );
    r.push(
        "oxztl.gc_relocated_sectors_per_user_sector",
        ratio(reloc, ztl_user),
        "sector/sector",
    );
    r.push("oxztl.gc_passes", d("ztl.gc_passes"), "count");
    r.push("oxztl.zone_resets", d("ztl.zone_resets"), "count");
    r.push(
        "ocssd.write_bytes_per_user_byte",
        ratio(d("dev.write_bytes"), user),
        "B/B",
    );
    r.push(
        "ocssd.copy_bytes_per_user_byte",
        ratio(d("dev.copy_bytes"), user),
        "B/B",
    );

    // Write path: throttling, busy resources.
    let puts = d("lsm.puts");
    r.push(
        "lsmkv.slowdowns_per_put",
        ratio(d("lsm.slowdowns"), puts),
        "1/put",
    );
    r.push(
        "lsmkv.stalls_per_put",
        ratio(d("lsm.stalls"), puts),
        "1/put",
    );
    r.push(
        "lsmkv.compaction_busy_ratio",
        ratio(d("lsm.compaction_ns"), m.span_ns as f64),
        "ratio",
    );
    r.push("lsmkv.compactions", d("lsm.compactions"), "count");
    r.push("lsmkv.flushes", d("lsm.flushes"), "count");
    r.push("oxblock.write_vus", vus(Probe::BlockWrite), "vus");
    let mut qd = pv.queue_delays_ns.clone();
    qd.sort_unstable();
    let qd_p99 = if qd.is_empty() {
        0.0
    } else {
        qd[((qd.len() as f64 * 0.99).ceil() as usize).clamp(1, qd.len()) - 1] as f64 / 1000.0
    };
    r.push("iosched.queue_delay_p99_us", qd_p99, "vus");
    r.push("ocssd.cache_stalls", d("dev.cache_stalls"), "count");
    r.push(
        "ocssd.pu_busy_ratio",
        ratio(d("dev.pu_busy_ns"), m.after["dev.pus"] * m.span_ns as f64),
        "ratio",
    );

    // Read path.
    let gets = d("lsm.gets");
    r.push(
        "lsmkv.blocks_read_per_get",
        ratio(d("lsm.get_blocks_read"), gets),
        "1/get",
    );
    r.push(
        "lsmkv.bloom_skips_per_get",
        ratio(d("lsm.bloom_skips"), gets),
        "1/get",
    );
    r.push("lightlsm.read_block_vus", vus(Probe::LightReadBlock), "vus");
    r.push("iosched.gc_cmds", d("sched.gc_cmds"), "count");
    r.push("ocssd.read_vus", vus(Probe::DevRead), "vus");
    r.push(
        "ocssd.pu_queue_delay_us",
        ratio(d("dev.pu_queue_delay_ns"), d("dev.pu_ops")) / 1000.0,
        "vus",
    );
    let cache = d("dev.cache_reads");
    r.push(
        "ocssd.cache_hit_ratio",
        ratio(cache, cache + d("dev.media_reads")),
        "ratio",
    );

    // Evidence of the window.
    r.push("window.read_samples", m.tally_v.reads.len() as f64, "count");
    r.push(
        "window.write_samples",
        m.tally_v.writes.len() as f64,
        "count",
    );
    r.push("warmup.windows", ready_info.0 as f64, "count");
    r.push(
        "warmup.steady",
        if ready_info.1 { 1.0 } else { 0.0 },
        "bool",
    );
}

fn bench<W: Workload>(args: &Args) -> Report {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let budget = Duration::from_secs(args.seconds);
    let mut untraced: Option<Measured> = None;
    let mut traced: Option<(Measured, usize, bool)> = None;
    for i in 0..SETUPS {
        let t0 = layers::host_now();
        let mut ready = set_up::<W>(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        let setup = &ready.setup_tally;
        if setup.failed + setup.wrong + setup.bg_errors > 0 {
            report.correct = false;
            eprintln!("set-up failures: {:?}", setup.messages);
        }
        if !args.trace && i + 1 == SETUPS {
            untraced = Some(measure(&mut ready, budget, false));
        } else if args.trace && i + 2 == SETUPS {
            untraced = Some(measure(&mut ready, budget / 2, false));
        } else if args.trace && i + 1 == SETUPS {
            let info = (ready.warmup_windows, ready.steady);
            traced = Some((measure(&mut ready, budget / 2, true), info.0, info.1));
        }
    }
    let u = untraced.expect("an untraced pass ran");
    let vm = virtual_metrics(&u);
    let untraced_ns = u.fastest_pair_ns_per_op();
    let mut passes = vec![&u];
    if let Some((t, _, _)) = &traced {
        passes.push(t);
        let tv = virtual_metrics(t);
        for (a, b) in vm.iter().zip(&tv) {
            if a.1.to_bits() != b.1.to_bits() {
                report.correct = false;
                eprintln!("traced run differs on {}: {} vs {}", a.0, a.1, b.1);
            }
        }
    }
    for p in passes {
        let t = &p.tally_all;
        report.attempted += t.attempted;
        report.failed += t.failed + t.wrong;
        if t.wrong > 0 {
            report.correct = false;
        }
        if t.failed + t.wrong + t.bg_errors > 0 {
            eprintln!(
                "{} failed ops, {} wrong reads, {} background errors: {:?}",
                t.failed, t.wrong, t.bg_errors, t.messages
            );
        }
    }
    eprintln!(
        "measured {} windows ({} virtual), {} reads / {} writes in the virtual windows; \
         setup_s per set-up: {:?}; host ns/op {:.1} (fastest pair), per window: {:?}",
        u.windows,
        W::VIRTUAL_WINDOWS,
        u.tally_v.reads.len(),
        u.tally_v.writes.len(),
        setup_s,
        untraced_ns,
        u.window_host
            .iter()
            .map(|&(ns, ops)| (ns as f64 / ops.max(1) as f64).round())
            .collect::<Vec<_>>()
    );
    match traced {
        None => {
            for (name, value, unit) in vm {
                report.push(name, value, unit);
            }
            report.push("setup_s", median(&setup_s), "s");
            report.push("peak_rss_mib", peak_rss_mib(), "MiB");
        }
        Some((t, windows, steady)) => {
            layer_metrics(&mut report, &t, untraced_ns, (windows, steady));
            for m in &report.metrics {
                eprintln!("  {:48} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
    }
    report
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

fn main() {
    let args = parse_args();
    let run = || match args.workload.as_str() {
        "lsm-fill-read" => bench::<lsm::LsmStack>(&args),
        "block-ycsb-a" => bench::<block::BlockStack>(&args),
        "ztl-ycsb-b" => bench::<ztl::ZtlStack>(&args),
        _ => usage(),
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(report) => {
            println!("{}", report.json());
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(p) => {
            let failed = Report {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            };
            eprintln!(
                "workload {} panicked: {}",
                args.workload,
                panic_message(&*p)
            );
            println!("{}", failed.json());
            std::process::exit(3);
        }
    }
}
