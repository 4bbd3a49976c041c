//! The benchmark's own closed-loop load generator.
//!
//! Clients are virtual [`ox_sim::Executor`] actors on one OS thread: each
//! issues one operation, waits (in virtual time) for its completion, then
//! issues the next. Background maintenance runs as further actors that
//! persist across phases, so flush, compaction, GC and checkpoints
//! interleave with client traffic exactly as they would between phases.
//! A *phase* runs a fixed number of operations per client; a *window* is a
//! workload-defined sequence of phases and is the unit warm-up and
//! measurement are counted in.

use ox_sim::{Actor, Ctx, Executor, Prng, SimDuration, SimTime, Step};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Closed-loop clients per workload.
pub const CLIENTS: usize = 8;

/// How long a client waits after a failed op before its next one.
const FAIL_BACKOFF: SimDuration = SimDuration::from_micros(100);

/// What a phase's clients issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Write every record once (population before warm-up).
    Load,
    /// db_bench fillseq: each client appends to its own key range.
    Fill,
    /// db_bench readrandom: uniform reads of acknowledged keys.
    ReadRandom,
    /// YCSB point mix: the workload's read share, zipfian keys.
    Ycsb,
}

/// One client request.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Write key `id`.
    Put(u64),
    /// Read key `id`.
    Get(u64),
}

/// Result of one attempt of an [`Op`].
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Completed (and, for reads, verified) at the given virtual time.
    Done(SimTime),
    /// Backpressure: retry the same op at the given time.
    Stalled(SimTime),
    /// The store returned a typed error.
    Failed(String),
    /// A read returned a value other than the latest acknowledged one.
    Wrong(String),
}

/// A store under test, as the load generator sees it.
pub trait Bench {
    /// Picks client `client`'s next op in `mix`.
    fn next_op(&mut self, mix: Mix, client: usize, rng: &mut Prng) -> Op;
    /// Executes one attempt of `op` at `now`; reads are checked against the
    /// shadow of acknowledged writes, acknowledged writes update it.
    fn exec(&mut self, op: Op, now: SimTime) -> Outcome;
    /// Background worker `worker` takes one step; `Some(done)` when it did
    /// work. A typed error is returned as `Err` and counted as a failure.
    fn background(&mut self, worker: usize, now: SimTime) -> Result<Option<SimTime>, String>;
    /// Poll period of each background worker.
    fn workers(&self) -> Vec<SimDuration>;
}

/// Latency samples (virtual ns) of one op class; failures sort last.
#[derive(Clone, Debug, Default)]
pub struct Latencies(pub Vec<u64>);

impl Latencies {
    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank `q`-quantile in virtual µs (`u64::MAX` for a failure).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let idx = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
        v[idx] as f64 / 1000.0
    }
}

/// What one or more phases measured.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Read latencies (failed reads as `u64::MAX`).
    pub reads: Latencies,
    /// Write latencies (failed writes as `u64::MAX`).
    pub writes: Latencies,
    /// Virtual ns of phases that issued reads.
    pub read_span_ns: u64,
    /// Virtual ns of phases that issued writes.
    pub write_span_ns: u64,
    /// Ops attempted (each counted once, however often it stalled).
    pub attempted: u64,
    /// Ops that failed with a typed error.
    pub failed: u64,
    /// Reads that returned a wrong value.
    pub wrong: u64,
    /// Stall retries absorbed by the closed loop.
    pub stalls: u64,
    /// Background steps that returned a typed error.
    pub bg_errors: u64,
    /// First failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Adds another tally.
    pub fn merge(&mut self, o: &Tally) {
        self.reads.0.extend_from_slice(&o.reads.0);
        self.writes.0.extend_from_slice(&o.writes.0);
        self.read_span_ns += o.read_span_ns;
        self.write_span_ns += o.write_span_ns;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.stalls += o.stalls;
        self.bg_errors += o.bg_errors;
        for m in &o.messages {
            self.note(m.clone());
        }
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }
}

struct Client<B: Bench> {
    bench: Rc<RefCell<B>>,
    tally: Rc<RefCell<Tally>>,
    end: Rc<RefCell<SimTime>>,
    mix: Mix,
    id: usize,
    rng: Prng,
    remaining: u64,
    pending: Option<(Op, SimTime)>,
}

impl<B: Bench> Actor for Client<B> {
    fn step(&mut self, now: SimTime, _ctx: &mut Ctx<'_>) -> Step {
        let (op, issued) = match self.pending {
            Some(p) => p,
            None if self.remaining == 0 => return Step::Done,
            None => {
                let op = self
                    .bench
                    .borrow_mut()
                    .next_op(self.mix, self.id, &mut self.rng);
                (op, now)
            }
        };
        let outcome = self.bench.borrow_mut().exec(op, now);
        let mut tally = self.tally.borrow_mut();
        let (lat, next) = match outcome {
            Outcome::Stalled(retry) => {
                tally.stalls += 1;
                self.pending = Some((op, issued));
                return Step::RunAt(retry);
            }
            Outcome::Done(t) => (t.saturating_since(issued).as_nanos(), t),
            // A failed op misses every latency limit; the client moves on.
            Outcome::Failed(msg) => {
                tally.failed += 1;
                tally.note(format!("op failed: {msg}"));
                (u64::MAX, now + FAIL_BACKOFF)
            }
            Outcome::Wrong(msg) => {
                tally.wrong += 1;
                tally.note(format!("wrong read: {msg}"));
                (u64::MAX, now + FAIL_BACKOFF)
            }
        };
        self.pending = None;
        self.remaining -= 1;
        tally.attempted += 1;
        match op {
            Op::Put(_) => tally.writes.0.push(lat),
            Op::Get(_) => tally.reads.0.push(lat),
        }
        let mut end = self.end.borrow_mut();
        *end = end.max(next);
        Step::RunAt(next)
    }
}

struct Worker<B: Bench> {
    bench: Rc<RefCell<B>>,
    tally: Rc<RefCell<Tally>>,
    idx: usize,
    period: SimDuration,
    /// The worker generation this actor belongs to, and the current one.
    generation: u64,
    current: Rc<Cell<u64>>,
}

impl<B: Bench> Actor for Worker<B> {
    fn step(&mut self, now: SimTime, _ctx: &mut Ctx<'_>) -> Step {
        if self.generation != self.current.get() {
            return Step::Done;
        }
        match self.bench.borrow_mut().background(self.idx, now) {
            // Real work consumed virtual time: chase it.
            Ok(Some(done)) if done > now => Step::RunAt(done),
            Ok(_) => Step::RunAt(now + self.period),
            Err(msg) => {
                let mut t = self.tally.borrow_mut();
                t.bg_errors += 1;
                t.note(format!("background step failed: {msg}"));
                Step::RunAt(now + self.period)
            }
        }
    }
}

/// One store, its executor and its persistent background actors.
pub struct Run<B: Bench> {
    /// The store under test.
    pub bench: Rc<RefCell<B>>,
    ex: Executor,
    bg_tally: Rc<RefCell<Tally>>,
    generation: Rc<Cell<u64>>,
    rng: Prng,
    phases: u64,
}

impl<B: Bench + 'static> Run<B> {
    /// Starts the background workers at `start`.
    pub fn new(bench: B, seed: u64, start: SimTime) -> Run<B> {
        let mut run = Run {
            bench: Rc::new(RefCell::new(bench)),
            ex: Executor::new(),
            bg_tally: Rc::new(RefCell::new(Tally::default())),
            generation: Rc::new(Cell::new(0)),
            rng: Prng::seed_from_u64(seed),
            phases: 0,
        };
        run.spawn_workers(start);
        run
    }

    fn spawn_workers(&mut self, at: SimTime) {
        let periods = self.bench.borrow().workers();
        for (idx, period) in periods.into_iter().enumerate() {
            self.ex.spawn(
                Box::new(Worker {
                    bench: self.bench.clone(),
                    tally: self.bg_tally.clone(),
                    idx,
                    period,
                    generation: self.generation.get(),
                    current: self.generation.clone(),
                }),
                at,
            );
        }
    }

    /// Retires the background workers and starts a fresh set now, so their
    /// polling schedule is aligned with what runs next. The old actors end
    /// at their next step without doing work.
    pub fn restart_background(&mut self) {
        self.generation.set(self.generation.get() + 1);
        self.spawn_workers(self.ex.now());
    }

    /// Virtual time reached.
    pub fn now(&self) -> SimTime {
        self.ex.now()
    }

    /// Lets background work run, with no client traffic, while `busy(bench,
    /// now)` holds (at most `limit` of virtual time).
    pub fn settle(&mut self, limit: SimDuration, busy: impl Fn(&B, SimTime) -> bool) {
        let deadline = self.ex.now() + limit;
        while busy(&self.bench.borrow(), self.ex.now()) && self.ex.now() < deadline {
            assert!(
                self.ex.step_one(),
                "background work pending, nothing scheduled"
            );
        }
    }

    /// Runs one phase: `ops_per_client` ops of `mix` on every client, all
    /// clients starting together.
    pub fn phase(&mut self, mix: Mix, ops_per_client: u64) -> Tally {
        let start = self.ex.now();
        let tally = Rc::new(RefCell::new(Tally::default()));
        let end = Rc::new(RefCell::new(start));
        let mut ids = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let rng = self.rng.split(self.phases * CLIENTS as u64 + c as u64);
            ids.push(self.ex.spawn(
                Box::new(Client {
                    bench: self.bench.clone(),
                    tally: tally.clone(),
                    end: end.clone(),
                    mix,
                    id: c,
                    rng,
                    remaining: ops_per_client,
                    pending: None,
                }),
                start,
            ));
        }
        self.phases += 1;
        while !ids.iter().all(|&id| self.ex.is_done(id)) {
            assert!(
                self.ex.step_one(),
                "deadlock: clients pending, nothing scheduled"
            );
        }
        let mut t = std::mem::take(&mut *tally.borrow_mut());
        let span = end.borrow().saturating_since(start).as_nanos();
        if !t.reads.0.is_empty() {
            t.read_span_ns = span;
        }
        if !t.writes.0.is_empty() {
            t.write_span_ns = span;
        }
        t.merge(&std::mem::take(&mut *self.bg_tally.borrow_mut()));
        t
    }
}
