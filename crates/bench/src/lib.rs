//! # ox-bench — experiment harness for the paper's tables and figures
//!
//! One module per reproduced artifact; the `src/bin/` binaries print the
//! paper-style rows, and the smoke tests assert the qualitative shapes.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`ablation`] | §5 — cross-interface YCSB ablation (block / ZTL / KV) |
//! | [`backend`] | `OX_BACKEND` knob — native media vs. the `oxztl` layer |
//! | [`dbbench`] | §4.3 — db_bench fillseq/readseq/readrandom op generators |
//! | [`driver`] | the closed-loop KV client driver every KV figure runs on |
//! | [`fig3`] | Figure 3 — checkpoint interval vs. recovery time |
//! | [`fig5`] | Figure 5 — db_bench throughput, horizontal vs. vertical |
//! | [`fig6`] | Figure 6 — fill-sequential throughput over time |
//! | [`fig7`] | Figure 7 — controller CPU vs. host write threads |
//! | [`gc_locality`] | §4.3 — GC interference locality (93.75 % / 87.5 %) |
//! | [`lifetime`] | ROADMAP — wear-coupled aging, scrub vs. no scrub |
//! | [`qos_tail`] | §4.3 — isolation as per-tenant read-latency percentiles |
//! | [`shard_scale`] | ROADMAP — the shard mix; aggregate throughput, 1→32 devices |
//! | [`ycsb`] | ROADMAP — YCSB A–F mixes and the `YcsbBackend` stacks they drive |
//!
//! Scale note: the simulated drive uses the paper geometry with chunk count
//! and chunk size divided down (ratios preserved), and workload volumes are
//! scaled accordingly. Absolute ops/s differ from the paper's testbed; the
//! comparisons (who wins, by what factor, where behaviour changes) are the
//! reproduction targets. Each experiment reports its scaling.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablation;
pub mod backend;
pub mod dbbench;
pub mod driver;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod gc_locality;
pub mod lifetime;
pub mod qos_tail;
pub mod shard_scale;
pub mod ycsb;

use ox_sim::trace::Obs;

/// Observability sinks for a figure run: metrics always collected, tracing
/// enabled with a bounded drop-oldest buffer (the tail of the run is kept).
pub fn figure_obs() -> Obs {
    let obs = Obs::new(65_536);
    obs.tracer.set_enabled(true);
    obs
}

/// Writes the run's observability snapshot (metrics + trace JSON) to
/// `results/<name>.obs.json`, next to the figure's stdout rows. Failures
/// are reported but not fatal: the printed rows are the primary artifact.
pub fn export_obs(name: &str, obs: &Obs) {
    let dir = std::path::Path::new("results");
    let path = dir.join(format!("{name}.obs.json"));
    let outcome = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, obs.to_json()));
    match outcome {
        Ok(()) => println!("\nobservability: wrote {}", path.display()),
        Err(e) => eprintln!("\nobservability: could not write {}: {e}", path.display()),
    }
}

/// Writes a compact machine-readable summary to `results/BENCH_<name>.json`
/// (hand-built JSON — the workspace carries no serde). Failures are
/// reported but not fatal, like [`export_obs`].
pub fn export_bench_json(name: &str, json: &str) {
    let dir = std::path::Path::new("results");
    let path = dir.join(format!("BENCH_{name}.json"));
    let outcome = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json));
    match outcome {
        Ok(()) => println!("bench summary: wrote {}", path.display()),
        Err(e) => eprintln!("bench summary: could not write {}: {e}", path.display()),
    }
}

/// True when quick mode is requested (`--quick` argument or
/// `OX_BENCH_QUICK=1`): smaller workloads, same shapes.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("OX_BENCH_QUICK").is_some()
}

/// Prints a Markdown-ish table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::from("|");
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!(" {c:<w$} |"));
    }
    println!("{line}");
}

/// Prints a table separator.
pub fn print_sep(widths: &[usize]) {
    let mut line = String::from("|");
    for w in widths {
        line.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    println!("{line}");
}
