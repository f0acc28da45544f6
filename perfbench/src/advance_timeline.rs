//! `advance-timeline`: an `AdvanceRegistry` of timeline brokers holding
//! a standing backlog of about [`BACKLOG`] live bookings, driven by a
//! seeded stream of rigid windows over 1–3 resources (a share allowing
//! preempt-and-repack), malleable transfers, cancels, and a `compact` of
//! every timeline per round as time advances.
//!
//! Each round is [`ROUND_OPS`] seeded ops plus one fixed replay of the
//! preempt-and-repack fault (see [`FAULT_PROBE`]): its last `book`
//! panics inside the program every time, is caught, and counts as the
//! round's one failed op. The probe books on a registry of its own, so
//! the backlog and the checks below are untouched by it.

use crate::measure::{ensure, median, metric, Checked, Hist, Measured, Metric, Slicer, Stopwatch};
use qosr_broker::{
    AdvanceOutcome, AdvanceRegistry, AdvanceRequest, SessionId, SimTime, TimelineBroker,
};
use qosr_model::{ResourceId, ResourceVector};
use qosr_obs::{TraceId, Tracer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Timeline brokers in the registry.
pub const RESOURCES: u32 = 8;
/// Capacity of every timeline.
pub const CAPACITY: f64 = 1000.0;
/// Requests booked (in window-start order) to build the backlog.
pub const BACKLOG: usize = 100_000;
/// Windows start up to this far (TU) ahead of the clock.
pub const HORIZON: f64 = 10_000.0;
/// The clock advances this many TU per seeded op.
pub const DT: f64 = 0.008;
/// Seeded ops per round.
pub const ROUND_OPS: usize = 256;
/// Rounds between two linear-sweep audits of the whole backlog.
pub const AUDIT_EVERY: u64 = 16;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Op mix of the stream when no hold is due: rigid, malleable, and (the
/// rest) cancel of a uniformly drawn live session. No rigid request
/// allows preempt-and-repack: on this backlog that path panics within a
/// few hundred ops on every seed tried (the fault [`FAULT_PROBE`]
/// replays), so it would fail a seed-dependent share of ops.
const P_RIGID: f64 = 0.45;
const P_MALLEABLE: f64 = 0.40;
/// A malleable transfer booked by the stream is cancelled after a hold
/// uniform in `1..=HOLD_MAX` stream ops. Water-filled transfers book one
/// segment per availability step, so without holds their segments would
/// swamp the backlog within a run.
const HOLD_MAX: u64 = 512;

/// A fixed booking sequence on one timeline of capacity 10 whose last
/// request panics inside `AdvanceRegistry::book` → `repack`: replanning
/// the evicted malleable session water-fills to an ulp-sized remainder,
/// the remainder becomes a zero-length final segment, and
/// `TimelineIndex::add` asserts `window must be non-empty`. Entries are
/// rigid `(amount, from, to, preempt)` or malleable `(volume, earliest,
/// deadline, max_rate)`.
const FAULT_PROBE: [Probe; 6] = [
    Probe::Rigid(1.0, 19.0, 27.0, false),
    Probe::Malleable(30.666666666666668, 2.0, 16.0, 3.8571428571428577),
    Probe::Malleable(3.0, 1.0, 22.0, 0.42857142857142855),
    Probe::Rigid(9.0, 6.0, 10.0, true),
    Probe::Malleable(7.666666666666667, 8.0, 31.0, 1.2857142857142856),
    Probe::Rigid(9.0, 12.0, 18.0, true),
];
const FAULT_MESSAGE: &str = "window must be non-empty";

#[derive(Clone, Copy)]
enum Probe {
    Rigid(f64, f64, f64, bool),
    Malleable(f64, f64, f64, f64),
}

/// What the benchmark itself recorded about one booked session: its
/// segments per resource, and a malleable session's terms.
struct Rec {
    segs: Vec<(ResourceId, f64, f64, f64)>,
    terms: Option<Terms>,
}

#[derive(Clone, Copy)]
struct Terms {
    resource: ResourceId,
    volume: f64,
    earliest: f64,
    deadline: f64,
    max_rate: f64,
}

/// The registry plus the benchmark's own record of what it holds.
struct State {
    registry: AdvanceRegistry,
    records: HashMap<u64, Rec>,
    /// Live session ids, for uniform cancels; `pos` indexes into it.
    live: Vec<u64>,
    pos: HashMap<u64, usize>,
    next_session: u64,
    now: f64,
    rng: StdRng,
    traced: bool,
    /// Stream ops issued, and the malleable holds keyed by the op count
    /// they end at.
    issued: u64,
    holds: BinaryHeap<Reverse<(u64, u64)>>,
}

/// Timings and counts over a run.
#[derive(Default)]
struct Tally {
    ops: u64,
    rigid: Hist,
    malleable: Hist,
    books: Hist,
    cancel: Hist,
    compact: Hist,
    malleable_booked: u64,
    waterfilled: u64,
}

thread_local! {
    /// Set while a `book` runs under [`book_catching`]: the panic hook
    /// then keeps quiet and stores the message here instead of printing
    /// it.
    static CAUGHT: RefCell<Option<String>> = const { RefCell::new(None) };
}

fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = CAUGHT.with(|c| {
                let mut c = c.borrow_mut();
                if c.is_some() {
                    *c = Some(info.to_string());
                    true
                } else {
                    false
                }
            });
            if !quiet {
                default(info);
            }
        }));
    });
}

/// Books `request`, catching a panic inside the program; `Err` carries
/// the panic message.
fn book_catching(
    registry: &AdvanceRegistry,
    request: &AdvanceRequest,
    now: f64,
) -> Result<AdvanceOutcome, String> {
    CAUGHT.with(|c| *c.borrow_mut() = Some(String::new()));
    let result = catch_unwind(AssertUnwindSafe(|| {
        registry.book(request, SimTime::new(now))
    }));
    let message = CAUGHT.with(|c| c.borrow_mut().take()).unwrap_or_default();
    result.map_err(|_| message)
}

fn rid(r: u32) -> ResourceId {
    ResourceId(r)
}

/// Replays [`FAULT_PROBE`] on a fresh one-timeline registry. Returns
/// `(attempted, failed)`: every op but the last must return, and the
/// last either panics with [`FAULT_MESSAGE`] (one failed op) or, once
/// the fault is mended, returns (none).
fn run_fault_probe() -> Checked<(u64, u64)> {
    let mut registry = AdvanceRegistry::new();
    registry.register(Arc::new(TimelineBroker::new(rid(0), 10.0)));
    for (i, probe) in FAULT_PROBE.iter().enumerate() {
        let session = SessionId(i as u64 + 1);
        let request = match *probe {
            Probe::Rigid(amount, from, to, preempt) => AdvanceRequest::rigid(
                session,
                ResourceVector::from_pairs([(rid(0), amount)]).map_err(|e| e.to_string())?,
                SimTime::new(from),
                SimTime::new(to),
            )
            .allow_preempt(preempt),
            Probe::Malleable(volume, earliest, deadline, max_rate) => {
                AdvanceRequest::malleable(session, rid(0), volume, SimTime::new(deadline))
                    .earliest(SimTime::new(earliest))
                    .max_rate(max_rate)
            }
        };
        let last = i + 1 == FAULT_PROBE.len();
        match book_catching(&registry, &request, 0.0) {
            Ok(_) => {}
            Err(message) if last && message.contains(FAULT_MESSAGE) => {
                return Ok((FAULT_PROBE.len() as u64, 1))
            }
            Err(message) => return Err(format!("fault probe op {i} panicked: {message}")),
        }
    }
    Ok((FAULT_PROBE.len() as u64, 0))
}

/// One seeded request.
enum Op {
    Rigid {
        demand: Vec<(ResourceId, f64)>,
        from: f64,
        to: f64,
    },
    Malleable(Terms),
    /// Cancel this session, or a uniformly drawn live one.
    Cancel(Option<u64>),
}

impl State {
    /// Builds the registry and books the backlog, in window-start order.
    fn build(seed: u64, traced: bool) -> Checked<State> {
        let mut registry = AdvanceRegistry::new();
        for r in 0..RESOURCES {
            registry.register(Arc::new(TimelineBroker::new(rid(r), CAPACITY)));
        }
        if traced {
            let tracer = Arc::new(Tracer::new(16));
            tracer.set_enabled(true);
            registry.set_tracer(tracer);
        }
        let mut state = State {
            registry,
            records: HashMap::new(),
            live: Vec::new(),
            pos: HashMap::new(),
            next_session: 1,
            now: 0.0,
            rng: StdRng::seed_from_u64(seed ^ 0xadfa_0001),
            traced,
            issued: 0,
            holds: BinaryHeap::new(),
        };
        // The live backlog of a stream that books windows uniformly over
        // the horizon ahead has window starts with density falling
        // linearly from the clock to the horizon.
        let mut backlog: Vec<(f64, Op)> = (0..BACKLOG)
            .map(|_| {
                let start = HORIZON * (1.0 - (1.0 - state.rng.random::<f64>()).sqrt());
                let op = if state.rng.random::<f64>() < P_RIGID / (P_RIGID + P_MALLEABLE) {
                    state.rigid_at(start)
                } else {
                    state.malleable_at(start)
                };
                (start, op)
            })
            .collect();
        backlog.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut tally = Tally::default();
        for (_, op) in backlog {
            state.apply(op, &mut tally, None)?;
        }
        Ok(state)
    }

    fn rigid_at(&mut self, from: f64) -> Op {
        let n = self.rng.random_range(1..=3usize);
        let mut demand: Vec<(ResourceId, f64)> = Vec::with_capacity(n);
        while demand.len() < n {
            let r = rid(self.rng.random_range(0..RESOURCES));
            if demand.iter().all(|(d, _)| *d != r) {
                demand.push((r, self.rng.random_range(1.0..12.0)));
            }
        }
        let to = from + self.rng.random_range(20.0..200.0);
        Op::Rigid { demand, from, to }
    }

    fn malleable_at(&mut self, earliest: f64) -> Op {
        let max_rate = self.rng.random_range(5.0..30.0);
        let slack = self.rng.random_range(20.0..200.0);
        Op::Malleable(Terms {
            resource: rid(self.rng.random_range(0..RESOURCES)),
            volume: max_rate * slack * self.rng.random_range(0.3..0.9),
            earliest,
            deadline: earliest + slack,
            max_rate,
        })
    }

    /// Draws the next stream op.
    fn next_op(&mut self) -> Op {
        self.issued += 1;
        while let Some(&Reverse((due, session))) = self.holds.peek() {
            if due > self.issued {
                break;
            }
            self.holds.pop();
            if self.pos.contains_key(&session) {
                return Op::Cancel(Some(session));
            }
        }
        let x = self.rng.random::<f64>();
        let start = self.now + self.rng.random_range(1.0..HORIZON);
        if x < P_RIGID {
            self.rigid_at(start)
        } else if x < P_RIGID + P_MALLEABLE {
            self.malleable_at(start)
        } else {
            Op::Cancel(None)
        }
    }

    fn track(&mut self, session: u64, rec: Rec) {
        self.pos.insert(session, self.live.len());
        self.live.push(session);
        self.records.insert(session, rec);
    }

    fn untrack(&mut self, session: u64) -> Option<Rec> {
        let i = self.pos.remove(&session)?;
        self.live.swap_remove(i);
        if let Some(&moved) = self.live.get(i) {
            self.pos.insert(moved, i);
        }
        self.records.remove(&session)
    }

    /// Issues one op and checks its answer. `timed` receives the op's
    /// latency; `None` during set-up.
    fn apply(
        &mut self,
        op: Op,
        tally: &mut Tally,
        timed: Option<(&Stopwatch, &mut Slicer)>,
    ) -> Checked<()> {
        let now = self.now;
        let (request, terms, rigid) = match op {
            Op::Cancel(session) => {
                let session = match session {
                    Some(session) => session,
                    None => self.live[self.rng.random_range(0..self.live.len())],
                };
                let started = Instant::now();
                let cancelled = self.registry.cancel_all(SessionId(session));
                let took = started.elapsed();
                tally.cancel.record_dur(took);
                if let Some((watch, slicer)) = timed {
                    slicer.latency(watch.secs(), took.as_nanos() as u64);
                }
                tally.ops += 1;
                let rec = self.untrack(session).expect("live session has a record");
                let volume: f64 = rec.segs.iter().map(|s| (s.2 - s.1) * s.3).sum();
                return ensure(
                    cancelled.bookings_removed == rec.segs.len()
                        && (cancelled.released_volume - volume).abs() <= 1e-9 * volume.max(1.0),
                    || {
                        format!(
                            "cancelling session {session} released {} in {} bookings; its \
                             record holds {volume} in {}",
                            cancelled.released_volume,
                            cancelled.bookings_removed,
                            rec.segs.len()
                        )
                    },
                );
            }
            Op::Rigid { demand, from, to } => {
                let session = SessionId(self.next_session);
                let vector = ResourceVector::from_pairs(demand.iter().copied())
                    .map_err(|e| format!("demand: {e}"))?;
                let request =
                    AdvanceRequest::rigid(session, vector, SimTime::new(from), SimTime::new(to));
                (request, None, Some((demand, from, to)))
            }
            Op::Malleable(terms) => {
                let session = SessionId(self.next_session);
                let request = AdvanceRequest::malleable(
                    session,
                    terms.resource,
                    terms.volume,
                    SimTime::new(terms.deadline),
                )
                .earliest(SimTime::new(terms.earliest))
                .max_rate(terms.max_rate);
                (request, Some(terms), None)
            }
        };
        let session = self.next_session;
        self.next_session += 1;
        let in_stream = timed.is_some();
        let request = if self.traced {
            request.traced(TraceId(session))
        } else {
            request
        };
        let started = Instant::now();
        let outcome = book_catching(&self.registry, &request, now).map_err(|message| {
            format!(
                "booking session {session} ({:?}, preempt {}) panicked: {message}",
                request.shape(),
                request.preempts()
            )
        })?;
        let took = started.elapsed();
        tally.books.record_dur(took);
        if rigid.is_some() {
            tally.rigid.record_dur(took);
        } else {
            tally.malleable.record_dur(took);
        }
        if let Some((watch, slicer)) = timed {
            slicer.latency(watch.secs(), took.as_nanos() as u64);
        }
        tally.ops += 1;

        let Some(profile) = outcome.profile() else {
            return Ok(());
        };
        let segs = match (rigid, terms) {
            (Some((demand, from, to)), _) => {
                ensure(
                    profile.start.value() == from && profile.end.value() == to,
                    || {
                        format!(
                            "rigid session {session} booked over [{}, {})",
                            profile.start, profile.end
                        )
                    },
                )?;
                demand.iter().map(|&(r, a)| (r, from, to, a)).collect()
            }
            (None, Some(terms)) => {
                let segs: Vec<_> = profile
                    .segments
                    .iter()
                    .map(|s| (terms.resource, s.from.value(), s.to.value(), s.rate))
                    .collect();
                check_profile(session, &terms, now, &segs)?;
                tally.malleable_booked += 1;
                if segs.len() > 1 {
                    tally.waterfilled += 1;
                }
                if in_stream {
                    let hold = self.rng.random_range(1..=HOLD_MAX);
                    self.holds.push(Reverse((self.issued + hold, session)));
                }
                segs
            }
            (None, None) => unreachable!("a request is rigid or malleable"),
        };
        // Sessions a repack moved hold new segments; re-read and re-check
        // them against their original terms.
        for moved in outcome.moved() {
            let rec = self
                .records
                .get_mut(&moved.0)
                .ok_or_else(|| format!("repack moved unknown session {}", moved.0))?;
            let terms = rec
                .terms
                .ok_or_else(|| format!("repack moved rigid session {}", moved.0))?;
            let broker = self
                .registry
                .get(terms.resource)
                .expect("registered resource");
            rec.segs = broker
                .bookings_of(*moved)
                .iter()
                .map(|b| (terms.resource, b.from.value(), b.to.value(), b.amount))
                .collect();
            check_profile(moved.0, &terms, now, &rec.segs)?;
        }
        self.track(session, Rec { segs, terms });
        Ok(())
    }

    /// Folds the past into every timeline's base, mirroring it in the
    /// record: bookings that ended are no longer cancellable.
    fn compact(&mut self, tally: &mut Tally) {
        let started = Instant::now();
        for r in 0..RESOURCES {
            self.registry
                .get(rid(r))
                .expect("registered resource")
                .compact(SimTime::new(self.now));
        }
        tally.compact.record_dur(started.elapsed());
        let now = self.now;
        let mut ended = Vec::new();
        for (&session, rec) in &mut self.records {
            rec.segs.retain(|s| s.2 > now);
            if rec.segs.is_empty() {
                ended.push(session);
            }
        }
        for session in ended {
            self.untrack(session);
        }
    }

    /// Independent linear sweep over the record, per resource: the level
    /// never exceeds capacity, and it agrees with `available_over` on
    /// random windows ahead of the clock.
    fn audit(&mut self) -> Checked<()> {
        let now = self.now;
        let mut events: Vec<Vec<(f64, f64)>> = vec![Vec::new(); RESOURCES as usize];
        for rec in self.records.values() {
            for &(r, from, to, amount) in &rec.segs {
                if to > now {
                    events[r.0 as usize].push((from.max(now), amount));
                    events[r.0 as usize].push((to, -amount));
                }
            }
        }
        for (r, ev) in events.iter_mut().enumerate() {
            ev.sort_by(|a, b| a.0.total_cmp(&b.0));
            // Level after all events at or before each distinct time.
            let mut steps: Vec<(f64, f64)> = Vec::with_capacity(ev.len());
            let mut level = 0.0;
            for &(t, d) in ev.iter() {
                level += d;
                match steps.last_mut() {
                    Some(last) if last.0 == t => last.1 = level,
                    _ => steps.push((t, level)),
                }
            }
            let peak = steps.iter().map(|s| s.1).fold(0.0, f64::max);
            ensure(peak <= CAPACITY * (1.0 + 1e-9), || {
                format!("timeline {r} reserves {peak} of {CAPACITY}")
            })?;
            let broker = self
                .registry
                .get(rid(r as u32))
                .expect("registered resource");
            for _ in 0..8 {
                let a = now + self.rng.random_range(0.0..HORIZON);
                let b = a + self.rng.random_range(1.0..400.0);
                let i = steps.partition_point(|s| s.0 <= a);
                let at_a = if i == 0 { 0.0 } else { steps[i - 1].1 };
                let within = steps[i..]
                    .iter()
                    .take_while(|s| s.0 < b)
                    .map(|s| s.1)
                    .fold(at_a, f64::max);
                let program = CAPACITY - broker.available_over(SimTime::new(a), SimTime::new(b));
                ensure((within - program).abs() <= 1e-6 * CAPACITY, || {
                    format!(
                        "timeline {r} over [{a}, {b}): the sweep finds {within} reserved, \
                         available_over implies {program}"
                    )
                })?;
            }
        }
        Ok(())
    }

    /// Cancels everything and checks that every timeline is empty ahead
    /// of the clock.
    fn tear_down(mut self) -> Checked<()> {
        let sessions: Vec<u64> = self.live.clone();
        for session in sessions {
            self.registry.cancel_all(SessionId(session));
            self.untrack(session);
        }
        let (from, to) = (
            SimTime::new(self.now),
            SimTime::new(self.now + 4.0 * HORIZON),
        );
        for r in 0..RESOURCES {
            let available = self
                .registry
                .get(rid(r))
                .expect("registered")
                .available_over(from, to);
            ensure((available - CAPACITY).abs() <= 1e-9 * CAPACITY, || {
                format!(
                    "timeline {r} still reserves {} after every cancel",
                    CAPACITY - available
                )
            })?;
        }
        Ok(())
    }
}

/// A malleable profile moves its volume by its deadline, never faster
/// than `max_rate`, never before `max(earliest, now)`.
fn check_profile(
    session: u64,
    t: &Terms,
    now: f64,
    segs: &[(ResourceId, f64, f64, f64)],
) -> Checked<()> {
    let moved: f64 = segs.iter().map(|s| (s.2 - s.1) * s.3).sum();
    let ordered = segs.windows(2).all(|w| w[0].2 <= w[1].1);
    let within = segs.first().is_some_and(|s| s.1 >= t.earliest.max(now))
        && segs.last().is_some_and(|s| s.2 <= t.deadline);
    let rates = segs
        .iter()
        .all(|s| s.3 > 0.0 && s.3 <= t.max_rate && s.1 < s.2);
    ensure(
        ordered && within && rates && (moved - t.volume).abs() <= 1e-9 * t.volume,
        || {
            format!(
                "malleable session {session} (volume {}, window [{}, {}), max rate {}) booked \
                 as {segs:?}",
                t.volume, t.earliest, t.deadline, t.max_rate
            )
        },
    )
}

/// Runs the workload for `seconds` of timed work.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Checked<Measured> {
    install_quiet_hook();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let started = Instant::now();
        state = Some(State::build(seed, traced)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut slicer = Slicer::default();
    let mut watch = Stopwatch::started();
    let (mut attempted, mut failed, mut rounds) = (0u64, 0u64, 0u64);
    slicer.tick(&watch, 0);
    while watch.secs() < seconds {
        for _ in 0..ROUND_OPS {
            let op = state.next_op();
            state.apply(op, &mut tally, Some((&watch, &mut slicer)))?;
            state.now += DT;
            slicer.tick(&watch, tally.ops);
        }
        state.compact(&mut tally);
        watch.pause();
        let (probe_attempted, probe_failed) = run_fault_probe()?;
        attempted += ROUND_OPS as u64 + probe_attempted;
        failed += probe_failed;
        rounds += 1;
        if rounds % AUDIT_EVERY == 0 {
            state.audit()?;
        }
        watch.resume();
    }
    slicer.finish(&watch, tally.ops);
    watch.pause();
    state.audit()?;
    let breakpoints: usize = (0..RESOURCES)
        .map(|r| {
            state
                .registry
                .get(rid(r))
                .expect("registered")
                .breakpoints()
        })
        .sum();
    let bookings: usize = state.records.values().map(|r| r.segs.len()).sum();
    state.tear_down()?;

    let mut measured = Measured::from_slices(&slicer, &slicer, tally.ops, median(&mut setups));
    measured.attempted = attempted;
    measured.failed = failed;
    measured.layers = layers(&tally, breakpoints, bookings);
    Ok(measured)
}

fn layers(tally: &Tally, breakpoints: usize, bookings: usize) -> Vec<Metric> {
    vec![
        metric(
            "advance.rigid_us_p50",
            "us",
            tally.rigid.quantile(0.5) / 1e3,
        ),
        metric(
            "advance.malleable_us_p50",
            "us",
            tally.malleable.quantile(0.5) / 1e3,
        ),
        metric(
            "advance.book_us_p99",
            "us",
            tally.books.quantile(0.99) / 1e3,
        ),
        metric(
            "advance.waterfill_share",
            "ratio",
            tally.waterfilled as f64 / tally.malleable_booked.max(1) as f64,
        ),
        metric(
            "advance.cancel_us_p50",
            "us",
            tally.cancel.quantile(0.5) / 1e3,
        ),
        metric("advance.compact_us_mean", "us", tally.compact.mean() / 1e3),
        metric("advance.breakpoints", "count", breakpoints as f64),
        metric("advance.live_bookings", "count", bookings as f64),
    ]
}
