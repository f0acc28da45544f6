//! `paper-contended`: the figure-9 world under the paper's §5 session
//! model, at an arrival rate where roughly 60 % of sessions are
//! admitted.
//!
//! One seeded stream of arrivals (normal and fat, short and long,
//! shifting service popularity) runs twice, on two identically built
//! worlds, chunk by chunk: pass one admits each arrival alone through
//! `Coordinator::establish_request` (basic and tradeoff planners), pass
//! two buffers arrivals into rounds of [`ROUND`] through a one-worker
//! `AdmissionQueue`. Departures call `Coordinator::terminate` in both.

use crate::measure::{ensure, median, metric, Checked, Hist, Measured, Metric, Slicer, Stopwatch};
use qosr_bench::oracle::best_embedding;
use qosr_broker::{
    AdmissionConfig, AdmissionQueue, EstablishOutcome, EstablishedSession, LocalBrokerConfig,
    ObservationPolicy, SessionRequest, SimTime,
};
use qosr_core::{AvailabilityView, Planner};
use qosr_model::SessionInstance;
use qosr_obs::{Histogram, SpanKind, TraceId, Tracer};
use qosr_sim::services::ServiceOptions;
use qosr_sim::PaperEnvironment;
use qosr_sim::WorkloadGenerator;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Arrivals per 60 TU (the paper's rate unit); about 60 % of sessions
/// are admitted at this rate.
pub const RATE_PER_60TU: f64 = 150.0;
/// Resource capacities are drawn from this range (the paper's)...
pub const CAPACITY: (f64, f64) = (1000.0, 4000.0);
/// ...under this fixed seed (`qosr serve --world paper`'s default), so
/// every run admits into the same world and `--seed` varies the traffic.
pub const WORLD_SEED: u64 = 42;
/// Service popularity is redrawn every this many TU (the simulator's
/// default `prob_shift_period`).
pub const SHIFT_PERIOD: f64 = 600.0;
/// Arrivals per batched admission round in pass two.
pub const ROUND: usize = 8;
/// Arrivals per chunk; both passes run a chunk before the next one.
pub const CHUNK: usize = 256;
/// Chunks run untimed as warm-up inside every set-up, to bring both
/// worlds to steady occupancy.
pub const WARMUP_CHUNKS: usize = 8;
/// Every this many pass-one arrivals is checked against the oracle.
pub const ORACLE_EVERY: usize = 16;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One sampled arrival, fully drawn up front.
#[derive(Clone, Copy)]
struct Arrival {
    t: f64,
    service: usize,
    domain: usize,
    scale: f64,
    duration: f64,
    planner: Planner,
}

/// The seeded arrival stream, drawn a chunk at a time.
struct Stream {
    gen: WorkloadGenerator,
    rng: StdRng,
    t: f64,
    next_shift: f64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            gen: WorkloadGenerator::new(RATE_PER_60TU),
            rng: StdRng::seed_from_u64(seed ^ 0xa11_7a15),
            t: 0.0,
            next_shift: SHIFT_PERIOD,
        }
    }

    fn chunk(&mut self) -> Vec<Arrival> {
        (0..CHUNK)
            .map(|_| {
                self.t += self.gen.next_interarrival(&mut self.rng);
                while self.t >= self.next_shift {
                    self.gen.shift_weights(&mut self.rng);
                    self.next_shift += SHIFT_PERIOD;
                }
                let r = self.gen.sample(&mut self.rng);
                let planner = if self.rng.random::<bool>() {
                    Planner::Basic
                } else {
                    Planner::Tradeoff
                };
                Arrival {
                    t: self.t,
                    service: r.service,
                    domain: r.domain,
                    scale: r.scale,
                    duration: r.duration,
                    planner,
                }
            })
            .collect()
    }
}

/// One world: the environment (shared with an admission queue in pass
/// two) and its live sessions, keyed by departure time.
struct World {
    env: PaperEnvironment,
    live: Live,
    tracer: Option<Arc<Tracer>>,
}

struct Live {
    departures: BTreeMap<(u64, u64), EstablishedSession>,
    seq: u64,
    rng: StdRng,
}

impl World {
    fn build(seed: u64, traced: bool) -> Self {
        let mut env = PaperEnvironment::build(
            &mut StdRng::seed_from_u64(WORLD_SEED),
            &ServiceOptions::default(),
            CAPACITY,
            LocalBrokerConfig::default(),
        );
        let tracer = traced.then(|| {
            let tracer = Arc::new(Tracer::new(16));
            tracer.set_enabled(true);
            env.coordinator.set_tracer(Arc::clone(&tracer));
            tracer
        });
        World {
            env,
            live: Live {
                departures: BTreeMap::new(),
                seq: 0,
                rng: StdRng::seed_from_u64(seed ^ 0x9a55_0001),
            },
            tracer,
        }
    }
}

fn request(env: &PaperEnvironment, a: &Arrival, trace: Option<u64>) -> Checked<SessionRequest> {
    let session = env
        .session(a.service, a.domain, a.scale)
        .map_err(|e| format!("session S{} D{}: {e}", a.service + 1, a.domain + 1))?;
    let request = SessionRequest::new(session).planner(a.planner);
    Ok(match trace {
        Some(id) => request.traced(TraceId(id)),
        None => request,
    })
}

impl Live {
    fn hold(&mut self, est: EstablishedSession, until: f64) {
        self.seq += 1;
        // Positive finite times order like their bit patterns.
        self.departures.insert((until.to_bits(), self.seq), est);
    }

    /// Terminates every session departing at or before `t`.
    fn depart_until(&mut self, env: &PaperEnvironment, t: f64, tally: &mut Tally) {
        while let Some(entry) = self.departures.first_entry() {
            let at = f64::from_bits(entry.key().0);
            if at > t {
                break;
            }
            let est = entry.remove();
            let started = Instant::now();
            env.coordinator.terminate(&est, SimTime::new(at));
            tally.terminate.record_dur(started.elapsed());
            tally.ops += 1;
        }
    }

    /// Terminates every live session and checks that each broker is back
    /// at full capacity.
    fn tear_down(&mut self, env: &PaperEnvironment) -> Checked<()> {
        self.depart_until(env, f64::INFINITY, &mut Tally::default());
        for proxy in env.coordinator.proxies() {
            for broker in proxy.brokers().iter() {
                ensure(broker.available() == broker.capacity(), || {
                    format!(
                        "after teardown resource {} has {} of {} available",
                        broker.resource(),
                        broker.available(),
                        broker.capacity()
                    )
                })?;
            }
        }
        Ok(())
    }
}

/// Checks that no broker's availability is negative.
fn audit(env: &PaperEnvironment) -> Checked<()> {
    for proxy in env.coordinator.proxies() {
        for broker in proxy.brokers().iter() {
            ensure(broker.available() >= 0.0, || {
                format!(
                    "resource {} over-committed: {} available",
                    broker.resource(),
                    broker.available()
                )
            })?;
        }
    }
    Ok(())
}

/// Counts and timings over a run.
#[derive(Default)]
struct Tally {
    slicer: Slicer,
    ops: u64,
    decisions: u64,
    admitted: u64,
    terminate: Hist,
    establish: Hist,
    round: Hist,
}

/// A pass-one establish kept for the oracle check: the request, the
/// snapshot taken just before it, and what came back.
struct Sample {
    session: SessionInstance,
    planner: Planner,
    view: AvailabilityView,
    /// `(rank, Ψ)` when admitted.
    outcome: Option<(u32, f64)>,
}

fn summary(outcome: &EstablishOutcome) -> Option<(u32, f64)> {
    outcome.session().map(|est| (est.plan.rank, est.plan.psi))
}

/// Pass one over a chunk: each arrival admitted alone. A decision's
/// latency runs from the start of its group of [`ROUND`] arrivals to its
/// outcome, the same clock pass two uses for its rounds.
fn pass_one(
    w: &mut World,
    chunk: &[Arrival],
    watch: &Stopwatch,
    tally: &mut Tally,
    samples: &mut Vec<Sample>,
    check_rng: &mut StdRng,
) -> Checked<()> {
    for (g, group) in chunk.chunks(ROUND).enumerate() {
        let secs = watch.secs();
        let group_started = Instant::now();
        for (i, a) in group.iter().enumerate() {
            w.live.depart_until(&w.env, a.t, tally);
            let trace = w.tracer.is_some().then_some(tally.decisions + 1);
            let request = request(&w.env, a, trace)?;
            let now = SimTime::new(a.t);
            let view = (g * ROUND + i).is_multiple_of(ORACLE_EVERY).then(|| {
                w.env
                    .coordinator
                    .epoch_snapshot(0, now, ObservationPolicy::Accurate, check_rng)
                    .into_view()
            });
            let started = Instant::now();
            let outcome = w
                .env
                .coordinator
                .establish_request(&request, now, &mut w.live.rng);
            tally.establish.record_dur(started.elapsed());
            tally
                .slicer
                .latency(secs, group_started.elapsed().as_nanos() as u64);
            if let Some(view) = view {
                samples.push(Sample {
                    session: request.session().clone(),
                    planner: a.planner,
                    view,
                    outcome: summary(&outcome),
                });
            }
            tally.ops += 1;
            tally.decisions += 1;
            if let Some(est) = outcome.into_session() {
                tally.admitted += 1;
                w.live.hold(est, a.t + a.duration);
            }
        }
        tally.slicer.tick(watch, tally.ops);
    }
    Ok(())
}

/// Pass two over a chunk: rounds of [`ROUND`] arrivals, admitted at the
/// last arrival's time.
fn pass_two(
    env: &PaperEnvironment,
    live: &mut Live,
    traced: bool,
    queue: &AdmissionQueue<'_>,
    chunk: &[Arrival],
    watch: &Stopwatch,
    tally: &mut Tally,
) -> Checked<()> {
    for round in chunk.chunks(ROUND) {
        let t = round.last().expect("non-empty round").t;
        live.depart_until(env, t, tally);
        let requests = round
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let trace = traced.then_some(tally.decisions + 1 + i as u64);
                request(env, a, trace)
            })
            .collect::<Checked<Vec<_>>>()?;
        let secs = watch.secs();
        let mut admitted = Vec::new();
        let started = Instant::now();
        queue.admit_with(&requests, SimTime::new(t), |i, outcome| {
            tally
                .slicer
                .latency(secs, started.elapsed().as_nanos() as u64);
            if let Some(est) = outcome.into_session() {
                admitted.push((est, round[i].duration));
            }
        });
        tally.round.record_dur(started.elapsed());
        tally.ops += round.len() as u64;
        tally.decisions += round.len() as u64;
        tally.admitted += admitted.len() as u64;
        for (est, duration) in admitted {
            live.hold(est, t + duration);
        }
        audit(env)?;
        tally.slicer.tick(watch, tally.ops);
    }
    Ok(())
}

/// Checks sampled pass-one establishes against the exhaustive oracle
/// (the §4.1.2 properties `tests/planner_oracle.rs` states).
fn check_samples(samples: &[Sample]) -> Checked<()> {
    for s in samples {
        let best = best_embedding(&s.session, &s.view);
        let ranking = s.session.service().sink_ranking();
        let best = best.map(|b| (ranking[b.sink_level], b.psi));
        match (s.planner, s.outcome, best) {
            (_, None, None) => {}
            (Planner::Basic, Some((rank, psi)), Some((best_rank, best_psi))) => {
                ensure(
                    rank == best_rank && (psi - best_psi).abs() <= 1e-9 * best_psi.max(1.0),
                    || {
                        format!(
                            "basic plan rank {rank} Ψ {psi} but the oracle's best is rank \
                             {best_rank} Ψ {best_psi}"
                        )
                    },
                )?;
            }
            (Planner::Tradeoff, Some((rank, _)), Some((best_rank, _))) => {
                ensure(rank <= best_rank, || {
                    format!("tradeoff plan rank {rank} outranks the oracle's {best_rank}")
                })?;
            }
            (Planner::Tradeoff, None, Some(_)) => {}
            (planner, outcome, best) => {
                return Err(format!(
                    "{planner:?} outcome {outcome:?} disagrees with the oracle's {best:?}"
                ))
            }
        }
    }
    Ok(())
}

fn p50_us(h: &Histogram) -> f64 {
    h.percentile(0.5).unwrap_or(0) as f64 / 1e3
}

/// Both passes over one shared stream.
struct Passes<'a> {
    one: World,
    env_two: &'a PaperEnvironment,
    live_two: Live,
    queue: AdmissionQueue<'a>,
    traced: bool,
    check_rng: StdRng,
}

impl Passes<'_> {
    fn run_chunk(
        &mut self,
        chunk: &[Arrival],
        watch: &Stopwatch,
        tally: &mut Tally,
        samples: &mut Vec<Sample>,
    ) -> Checked<()> {
        pass_one(
            &mut self.one,
            chunk,
            watch,
            tally,
            samples,
            &mut self.check_rng,
        )?;
        pass_two(
            self.env_two,
            &mut self.live_two,
            self.traced,
            &self.queue,
            chunk,
            watch,
            tally,
        )
    }

    fn tear_down(&mut self) -> Checked<()> {
        self.one.live.tear_down(&self.one.env)?;
        self.live_two.tear_down(self.env_two)
    }
}

/// Runs the workload for `seconds` of timed work.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Checked<Measured> {
    let config = AdmissionConfig {
        workers: 1,
        ..AdmissionConfig::default()
    };
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let one = World::build(seed, traced);
        let World {
            env: env_two,
            live: live_two,
            tracer: tracer_two,
        } = World::build(seed, traced);
        let mut passes = Passes {
            one,
            env_two: &env_two,
            live_two,
            queue: AdmissionQueue::new(&env_two.coordinator, config),
            traced,
            check_rng: StdRng::seed_from_u64(seed ^ 0xc4ec_0001),
        };
        let mut stream = Stream::new(seed);
        let (watch, mut tally) = (Stopwatch::default(), Tally::default());
        for _ in 0..WARMUP_CHUNKS {
            passes.run_chunk(&stream.chunk(), &watch, &mut tally, &mut Vec::new())?;
        }
        setups.push(started.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            passes.tear_down()?;
            continue;
        }

        let counters_before = env_two.coordinator.counters().snapshot();
        let mut watch = Stopwatch::started();
        let mut tally = Tally::default();
        let mut samples = Vec::new();
        tally.slicer.tick(&watch, 0);
        while watch.secs() < seconds {
            watch.pause();
            let chunk = stream.chunk();
            check_samples(&samples)?;
            samples.clear();
            watch.resume();
            passes.run_chunk(&chunk, &watch, &mut tally, &mut samples)?;
        }
        tally.slicer.finish(&watch, tally.ops);
        watch.pause();
        check_samples(&samples)?;
        let counters = env_two.coordinator.counters().snapshot();

        let mut measured =
            Measured::from_slices(&tally.slicer, &tally.slicer, tally.ops, median(&mut setups));
        measured.layers = layers(
            &tally,
            &counters_before,
            &counters,
            passes.one.tracer.as_deref(),
            tracer_two.as_deref(),
        );
        passes.tear_down()?;
        return Ok(measured);
    }
    unreachable!("the last set-up returns")
}

/// The per-layer figures of a run.
fn layers(
    tally: &Tally,
    before: &qosr_obs::CountersSnapshot,
    after: &qosr_obs::CountersSnapshot,
    one: Option<&Tracer>,
    two: Option<&Tracer>,
) -> Vec<Metric> {
    let mut out = vec![
        metric(
            "proxy.establish_us_p50",
            "us",
            tally.establish.quantile(0.5) / 1e3,
        ),
        metric(
            "proxy.establish_us_p99",
            "us",
            tally.establish.quantile(0.99) / 1e3,
        ),
        metric(
            "proxy.terminate_us_p50",
            "us",
            tally.terminate.quantile(0.5) / 1e3,
        ),
        metric(
            "admission.round_us_p50",
            "us",
            tally.round.quantile(0.5) / 1e3,
        ),
        metric(
            "admission.replans_per_kop",
            "1/kop",
            (after.replans - before.replans) as f64 * 1e3 / tally.ops.max(1) as f64,
        ),
        metric(
            "admission.admitted_share",
            "ratio",
            tally.admitted as f64 / tally.decisions.max(1) as f64,
        ),
    ];
    // Delta-aware prepares in batched rounds: repaired or rebuilt in full.
    let repairs = after.delta_repairs - before.delta_repairs;
    let prepares = repairs + after.delta_fallbacks - before.delta_fallbacks;
    let per_kop = |n: u64| n as f64 * 1e3 / tally.ops.max(1) as f64;
    out.extend([
        metric("core.repairs_per_kop", "1/kop", per_kop(repairs)),
        metric("core.prepares_per_kop", "1/kop", per_kop(prepares)),
        metric(
            "core.repair_share",
            "ratio",
            repairs as f64 / prepares.max(1) as f64,
        ),
    ]);
    if let (Some(one), Some(two)) = (one, two) {
        let merged = |kind: SpanKind| {
            let h = Histogram::new();
            h.merge(one.span_histogram(kind));
            h.merge(two.span_histogram(kind));
            h
        };
        out.extend([
            metric(
                "proxy.collect_us_p50",
                "us",
                p50_us(one.span_histogram(SpanKind::Collect)),
            ),
            metric("core.plan_us_p50", "us", p50_us(&merged(SpanKind::Plan))),
            metric(
                "broker.commit_us_p50",
                "us",
                p50_us(&merged(SpanKind::Commit)),
            ),
        ]);
    }
    out
}
