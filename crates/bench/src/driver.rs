//! The closed-loop client driver every key-value figure runs on.
//!
//! Clients are cooperative [`ox_sim::Executor`] actors over a
//! [`YcsbBackend`]: each step asks the client's [`OpGen`] for one
//! operation, reschedules at the operation's virtual completion time, and
//! records the [`Outcome`] into one shared [`RunReport`]. Workloads differ
//! only in their generator (the YCSB mixes in [`crate::ycsb`], the db_bench
//! phases in [`crate::dbbench`], the shard mix in [`crate::shard_scale`])
//! and in the background work the caller spawns beside the clients:
//! flush/compaction pools, a maintenance actor, a fixed-period cluster
//! tick. The run ends the moment the last client retires; background
//! actors are simply not stepped again.

use crate::ycsb::YcsbBackend;
use ox_sim::stats::TimeSeries;
use ox_sim::sync::Mutex;
use ox_sim::trace::Obs;
use ox_sim::{Actor, ActorId, Ctx, Executor, SimDuration, SimTime, Step};
use std::sync::Arc;

/// Latency class of a timed client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Point read.
    Read,
    /// Upsert, insert or the write leg of a read-modify-write.
    Write,
    /// Range scan.
    Scan,
}

/// What one generated operation did.
#[derive(Clone, Copy, Debug)]
pub enum Outcome {
    /// The operation finished at `done` and is timed under `class`.
    /// `failed` marks a typed failure that still counts as a timed op;
    /// `scanned` is the number of entries a scan returned.
    Done {
        /// Latency class.
        class: OpClass,
        /// Virtual completion time.
        done: SimTime,
        /// Typed failure (fault pressure), counted but not fatal.
        failed: bool,
        /// Entries returned (scans).
        scanned: usize,
    },
    /// A typed failure that uses up the op without timing it; the client
    /// resumes at the given time.
    Failed(SimTime),
    /// Nothing completed (write stall, iterator restart): the client issues
    /// again at the given time without using up an op.
    Retry(SimTime),
}

impl Outcome {
    /// A successful op of `class` finishing at `done`.
    pub fn done(class: OpClass, done: SimTime) -> Outcome {
        Outcome::Done {
            class,
            done,
            failed: false,
            scanned: 0,
        }
    }
}

/// One client's operation stream.
pub trait OpGen<B> {
    /// Issues the next operation at `now` against the client's `backend`.
    fn issue(&mut self, now: SimTime, backend: &mut B) -> Outcome;
}

/// Latency distribution of one operation class, nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    samples: Vec<u64>,
}

impl LatencyStats {
    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// The `q`-quantile (0..=1) in nanoseconds; 0 with no samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        quantile(&self.samples, q)
    }
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// What one closed-loop run measured.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Timed operations (including timed failures).
    pub total_ops: u64,
    /// Operations that surfaced a typed failure (fault pressure).
    pub failed_ops: u64,
    /// Steps that completed nothing: write stalls, iterator restarts.
    pub stall_retries: u64,
    /// Entries returned by scans.
    pub scanned_entries: u64,
    /// Virtual time the clients started.
    pub start: SimTime,
    /// Virtual time of the last completion.
    pub end: SimTime,
    /// Point-read latencies.
    pub reads: LatencyStats,
    /// Write latencies.
    pub writes: LatencyStats,
    /// Scan latencies.
    pub scans: LatencyStats,
    /// Read and write latencies by the shard that served them (empty on
    /// single-device stacks, see [`YcsbBackend::last_shard`]).
    pub per_shard: Vec<LatencyStats>,
    /// Completions per fixed virtual-time window (Figure 6's series).
    pub series: TimeSeries,
}

impl RunReport {
    /// Virtual span from start to the last completion.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Mean throughput in thousands of operations per virtual second.
    pub fn kops_per_sec(&self) -> f64 {
        let duration = self.duration();
        if duration.is_zero() {
            return 0.0;
        }
        self.total_ops as f64 / duration.as_secs_f64() / 1000.0
    }

    /// The `q`-quantile across every operation class, nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let mut all: Vec<u64> = [&self.reads, &self.writes, &self.scans]
            .iter()
            .flat_map(|s| s.samples.iter().copied())
            .collect();
        all.sort_unstable();
        quantile(&all, q)
    }

    /// The `q`-quantile of one shard's latencies, nanoseconds; 0 when the
    /// shard served nothing.
    pub fn shard_quantile_ns(&self, shard: usize, q: f64) -> u64 {
        self.per_shard.get(shard).map_or(0, |s| s.quantile_ns(q))
    }

    /// Adds one timed op (`out` is [`Outcome::Done`]) of latency `ns`.
    fn record(&mut self, out: Outcome, ns: u64, shard: Option<u32>) {
        let Outcome::Done {
            class,
            done,
            failed,
            scanned,
        } = out
        else {
            return;
        };
        self.total_ops += 1;
        self.failed_ops += u64::from(failed);
        self.scanned_entries += scanned as u64;
        self.end = self.end.max(done);
        self.series.record_at(done, 1);
        let stats = match class {
            OpClass::Read => &mut self.reads,
            OpClass::Write => &mut self.writes,
            OpClass::Scan => &mut self.scans,
        };
        stats.samples.push(ns);
        if let Some(s) = shard {
            let s = s as usize;
            if self.per_shard.len() <= s {
                self.per_shard.resize_with(s + 1, LatencyStats::default);
            }
            self.per_shard[s].samples.push(ns);
        }
    }
}

struct Client<B, G> {
    backend: B,
    gen: G,
    remaining: u64,
    sink: Arc<Mutex<RunReport>>,
    metrics: Option<Obs>,
}

impl<B: YcsbBackend, G: OpGen<B>> Actor for Client<B, G> {
    fn step(&mut self, now: SimTime, _ctx: &mut Ctx<'_>) -> Step {
        if self.remaining == 0 {
            return Step::Done;
        }
        let out = self.gen.issue(now, &mut self.backend);
        let next = match out {
            Outcome::Done { class, done, .. } => {
                self.remaining -= 1;
                let ns = done.saturating_since(now).as_nanos();
                let shard = match class {
                    OpClass::Scan => None,
                    _ => self.backend.last_shard(),
                };
                self.sink.lock().record(out, ns, shard);
                if let Some(obs) = &self.metrics {
                    let name = match class {
                        OpClass::Read => "ycsb.read_ns",
                        OpClass::Write => "ycsb.write_ns",
                        OpClass::Scan => "ycsb.scan_ns",
                    };
                    obs.metrics.observe(name, ns);
                }
                done
            }
            Outcome::Failed(t) => {
                self.remaining -= 1;
                self.sink.lock().failed_ops += 1;
                t
            }
            Outcome::Retry(t) => {
                self.sink.lock().stall_retries += 1;
                t
            }
        };
        Step::RunAt(next)
    }
}

struct Background<F>(F);

impl<F: FnMut(SimTime) -> Step> Actor for Background<F> {
    fn step(&mut self, now: SimTime, _ctx: &mut Ctx<'_>) -> Step {
        (self.0)(now)
    }
}

/// One closed-loop run being assembled: clients and background actors are
/// spawned in call order, which fixes the executor's tie-breaking.
pub struct ClosedLoop {
    ex: Executor,
    clients: Vec<ActorId>,
    sink: Arc<Mutex<RunReport>>,
    metrics: Option<Obs>,
}

impl ClosedLoop {
    /// A run whose clients start at `start`, binning completions into
    /// `window`-wide series windows. With `ycsb_metrics`, every timed op is
    /// also observed into its `ycsb.{read,write,scan}_ns` histogram.
    pub fn new(start: SimTime, window: SimDuration, ycsb_metrics: Option<&Obs>) -> ClosedLoop {
        ClosedLoop {
            ex: Executor::new(),
            clients: Vec::new(),
            sink: Arc::new(Mutex::new(RunReport {
                total_ops: 0,
                failed_ops: 0,
                stall_retries: 0,
                scanned_entries: 0,
                start,
                end: start,
                reads: LatencyStats::default(),
                writes: LatencyStats::default(),
                scans: LatencyStats::default(),
                per_shard: Vec::new(),
                series: TimeSeries::new(window),
            })),
            metrics: ycsb_metrics.cloned(),
        }
    }

    /// Spawns a client that issues `ops` operations from `gen` against its
    /// own `backend` handle, first at `at`.
    pub fn client<B, G>(&mut self, at: SimTime, backend: B, gen: G, ops: u64)
    where
        B: YcsbBackend,
        G: OpGen<B> + 'static,
    {
        let id = self.ex.spawn(
            Box::new(Client {
                backend,
                gen,
                remaining: ops,
                sink: self.sink.clone(),
                metrics: self.metrics.clone(),
            }),
            at,
        );
        self.clients.push(id);
    }

    /// Spawns background work, first run at `at`; each call returns when
    /// it next wants to run.
    pub fn background(&mut self, at: SimTime, work: impl FnMut(SimTime) -> Step + 'static) {
        self.ex.spawn(Box::new(Background(work)), at);
    }

    /// Runs until every client has retired, then drops every actor.
    pub fn run(self) -> RunReport {
        let ClosedLoop {
            mut ex,
            clients,
            sink,
            ..
        } = self;
        while !clients.iter().all(|&id| ex.is_done(id)) {
            assert!(
                ex.step_one(),
                "deadlock: clients pending but nothing scheduled"
            );
        }
        drop(ex);
        let mut report = Arc::try_unwrap(sink).map_or_else(|s| s.lock().clone(), Mutex::into_inner);
        for stats in [&mut report.reads, &mut report.writes, &mut report.scans]
            .into_iter()
            .chain(report.per_shard.iter_mut())
        {
            stats.samples.sort_unstable();
        }
        report
    }
}
