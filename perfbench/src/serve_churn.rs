//! `serve-churn`: `qosr serve` with default options, loaded over one TCP
//! connection by one sender and one receiver thread.
//!
//! Every committed session is terminated after a seeded hold, counted
//! in ops the sender issues after the commit arrives, so establishes
//! and releases interleave. Phase one is a closed loop holding
//! [`WINDOW`] requests in flight (throughput and CPU per op); phase two
//! is an open loop at [`PACED_RATE`] ops per second, each establish
//! timed from its due time (latency).

use crate::measure::{ensure, median, metric, Checked, Hist, Measured, Slicer, Stopwatch};
use qosr_bench::oracle::best_embedding;
use qosr_bench::synth::synthetic_chain;
use qosr_cli::serve::{start, ServeOptions, Server};
use qosr_cli::wire::{
    read_response_frame, write_request_frame, EstablishDef, RequestFrame, ResponseFrame,
    StatsFrame, MAX_FRAME_LEN,
};
use qosr_core::AvailabilityView;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests in flight in the closed-loop phase.
pub const WINDOW: usize = 64;
/// Share of the run given to the closed loop. Its throughput moves more
/// from run to run than the paced latency, so it gets more slices.
pub const CLOSED_SHARE: f64 = 0.7;
/// Offered load of the paced phase, ops per second.
pub const PACED_RATE: f64 = 8000.0;
/// Holds are uniform in `1..=HOLD_MAX` issued ops.
pub const HOLD_MAX: u32 = 256;
/// Closed-loop ops run as warm-up inside every set-up.
pub const WARMUP_OPS: u64 = 4_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What the sender tagged each in-flight request with.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Establish,
    Terminate(u64),
    Stats,
}

struct Sent {
    id: u64,
    kind: Kind,
    /// When the request was due (paced phase) or sent (closed loop).
    due: Instant,
}

#[derive(Clone, Copy)]
enum Mode {
    /// Keep [`WINDOW`] requests in flight until `until`, or until `ops`
    /// ops were issued.
    Closed {
        until: Option<Instant>,
        ops: Option<u64>,
    },
    /// Issue one op every `1 / rate` seconds until `until`.
    Paced { rate: f64, until: Instant },
    /// Terminate every live session.
    Drain,
}

/// The client side of one connection.
struct Client {
    reader: BufReader<TcpStream>,
    send: SendSide,
    traced: bool,
    expected_rank: u32,
    /// The `stats` answer that closed the previous phase.
    last_stats: Option<StatsFrame>,
}

/// The sender's state: the write half and the session bookkeeping.
struct SendSide {
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Ops issued so far (establishes and terminates).
    issued: u64,
    /// Live sessions keyed by the `issued` count their terminate is due at.
    live: BinaryHeap<Reverse<(u64, u64)>>,
    holds: Vec<u32>,
    hold_at: usize,
    /// Traced runs only: establishes ask the server for span
    /// attribution (paced phase)...
    attrib: bool,
    /// ...and frames are encoded to a buffer first so the codec can be
    /// timed on its own (closed-loop phase, on the plain frames).
    codec: bool,
}

/// What one phase measured.
#[derive(Default)]
struct PhaseOut {
    ops: u64,
    /// Slice boundaries (sender side) and, when paced, latencies
    /// (receiver side).
    slicer: Slicer,
    late: Hist,
    encode: Hist,
    decode: Hist,
    bytes: u64,
    attrib: Attrib,
    stats: Option<StatsFrame>,
}

/// Sums of the server's per-request span attribution (traced only).
#[derive(Default)]
struct Attrib {
    n: u64,
    client_ns: f64,
    total_ns: f64,
    queue_ns: f64,
    collect_ns: f64,
    plan_ns: f64,
    replan_ns: f64,
    commit_ns: f64,
}

impl Client {
    fn connect(server: &Server, seed: u64, expected_rank: u32, traced: bool) -> Checked<Self> {
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e12_7e00);
        let holds = (0..1 << 16)
            .map(|_| rng.random_range(1..=HOLD_MAX))
            .collect();
        Ok(Client {
            reader,
            send: SendSide {
                writer: BufWriter::new(stream),
                next_id: 1,
                issued: 0,
                live: BinaryHeap::new(),
                holds,
                hold_at: 0,
                attrib: false,
                codec: false,
            },
            traced,
            expected_rank,
            last_stats: None,
        })
    }

    /// Runs one phase: the calling thread sends, a scoped thread
    /// receives, and a trailing `stats` request (answered in order by
    /// the admission thread) closes it.
    fn phase(&mut self, mode: Mode) -> Checked<PhaseOut> {
        let inflight: Mutex<VecDeque<Sent>> = Mutex::new(VecDeque::new());
        let (tx, rx) = mpsc::channel::<Option<u64>>();
        let measure_latency = matches!(mode, Mode::Paced { .. });
        let started = Instant::now();
        self.send.codec = self.traced && matches!(mode, Mode::Closed { .. });
        self.send.attrib = self.traced && measure_latency;
        let Client {
            reader,
            send,
            expected_rank,
            ..
        } = self;
        let (expected_rank, codec) = (*expected_rank, send.codec);
        let (sent, received) = std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                receive(
                    reader,
                    &inflight,
                    tx,
                    expected_rank,
                    codec,
                    measure_latency.then_some(started),
                )
            });
            let sent = send_phase(send, mode, started, &inflight, &rx);
            if sent.is_err() {
                // Unblock the receiver: closing the socket makes its
                // read fail.
                let _ = send.writer.get_ref().shutdown(std::net::Shutdown::Both);
            }
            let received = receiver.join().expect("receiver thread panicked");
            (sent, received)
        });
        let mut sent = sent?;
        let mut received = received?;
        // Commits that landed after the sender stopped reading.
        while let Ok(answer) = rx.try_recv() {
            if let Some(session) = answer {
                send.schedule_terminate(session);
            }
        }
        received
            .slicer
            .adopt_marks(std::mem::take(&mut sent.slicer));
        received.late = std::mem::take(&mut sent.late);
        received.encode = std::mem::take(&mut sent.encode);
        received.bytes += sent.bytes;
        self.last_stats = received.stats.clone();
        ensure(received.ops == sent.ops, || {
            format!("{} requests sent but {} answered", sent.ops, received.ops)
        })?;
        Ok(received)
    }
}

impl SendSide {
    fn schedule_terminate(&mut self, session: u64) {
        let hold = u64::from(self.holds[self.hold_at % self.holds.len()]);
        self.hold_at += 1;
        self.live.push(Reverse((self.issued + hold, session)));
    }

    /// Encodes and sends one op: a due terminate if there is one (any
    /// live one when establishes are not allowed), else an establish.
    fn send_op(
        &mut self,
        inflight: &Mutex<VecDeque<Sent>>,
        due: Instant,
        allow_establish: bool,
        out: &mut PhaseOut,
    ) -> Checked<()> {
        let id = self.next_id;
        self.next_id += 1;
        let terminate = match self.live.peek() {
            Some(Reverse((at, _))) if *at <= self.issued || !allow_establish => self.live.pop(),
            _ => None,
        };
        let (frame, kind) = match terminate {
            Some(Reverse((_, session))) => (
                RequestFrame::Terminate { id, session },
                Kind::Terminate(session),
            ),
            None => {
                let mut def = EstablishDef::new(id);
                if self.attrib {
                    def.trace = Some(id);
                }
                (RequestFrame::Establish(def), Kind::Establish)
            }
        };
        inflight
            .lock()
            .expect("in-flight queue lock")
            .push_back(Sent { id, kind, due });
        self.write(&frame, out)?;
        self.issued += 1;
        out.ops += 1;
        Ok(())
    }

    fn write(&mut self, frame: &RequestFrame, out: &mut PhaseOut) -> Checked<()> {
        if self.codec {
            let mut buf = Vec::with_capacity(64);
            let t = Instant::now();
            write_request_frame(&mut buf, frame).map_err(|e| format!("encode: {e}"))?;
            out.encode.record_dur(t.elapsed());
            out.bytes += buf.len() as u64;
            self.writer
                .write_all(&buf)
                .map_err(|e| format!("send: {e}"))?;
        } else {
            write_request_frame(&mut self.writer, frame).map_err(|e| format!("send: {e}"))?;
        }
        Ok(())
    }
}

/// The sender's half of a phase.
fn send_phase(
    client: &mut SendSide,
    mode: Mode,
    t0: Instant,
    inflight: &Mutex<VecDeque<Sent>>,
    rx: &Receiver<Option<u64>>,
) -> Checked<PhaseOut> {
    let mut out = PhaseOut::default();
    let flush = |c: &mut SendSide| c.writer.flush().map_err(|e| format!("flush: {e}"));
    match mode {
        Mode::Closed { until, ops } => {
            let mut credits = WINDOW;
            let watch = Stopwatch::started();
            let completed = |out: &PhaseOut, credits: usize| out.ops - (WINDOW - credits) as u64;
            loop {
                out.slicer.tick(&watch, completed(&out, credits));
                while let Ok(answer) = rx.try_recv() {
                    credits += 1;
                    if let Some(session) = answer {
                        client.schedule_terminate(session);
                    }
                }
                if until.is_some_and(|u| Instant::now() >= u) || ops.is_some_and(|n| out.ops >= n) {
                    break;
                }
                if credits == 0 {
                    flush(client)?;
                    let answer = rx
                        .recv()
                        .map_err(|_| "receiver stopped early".to_string())?;
                    credits += 1;
                    if let Some(session) = answer {
                        client.schedule_terminate(session);
                    }
                    continue;
                }
                client.send_op(inflight, Instant::now(), true, &mut out)?;
                credits -= 1;
            }
            out.slicer.finish(&watch, completed(&out, credits));
        }
        Mode::Paced { rate, until } => {
            let watch = Stopwatch::started();
            for i in 0u64.. {
                out.slicer.tick(&watch, out.ops);
                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                if due >= until {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    flush(client)?;
                    std::thread::sleep(due - now);
                }
                while let Ok(answer) = rx.try_recv() {
                    if let Some(session) = answer {
                        client.schedule_terminate(session);
                    }
                }
                out.late
                    .record_dur(Instant::now().saturating_duration_since(due));
                client.send_op(inflight, due, true, &mut out)?;
            }
            out.slicer.finish(&watch, out.ops);
        }
        Mode::Drain => {
            while !client.live.is_empty() {
                client.send_op(inflight, Instant::now(), false, &mut out)?;
            }
        }
    }
    let id = client.next_id;
    client.next_id += 1;
    inflight
        .lock()
        .expect("in-flight queue lock")
        .push_back(Sent {
            id,
            kind: Kind::Stats,
            due: Instant::now(),
        });
    client.write(&RequestFrame::Stats { id }, &mut PhaseOut::default())?;
    flush(client)?;
    Ok(out)
}

/// Reads one response frame; when `codec` is given, reads the raw frame
/// first and times the decode alone.
fn read_one(
    reader: &mut BufReader<TcpStream>,
    codec: Option<(&mut Hist, &mut u64)>,
) -> Checked<ResponseFrame> {
    let frame = match codec {
        None => read_response_frame(reader),
        Some((decode, bytes)) => {
            let mut len = [0u8; 4];
            reader
                .read_exact(&mut len)
                .map_err(|e| format!("recv: {e}"))?;
            let body = u32::from_be_bytes(len) as usize;
            ensure(body <= MAX_FRAME_LEN, || {
                format!("response frame of {body} bytes")
            })?;
            let mut buf = len.to_vec();
            buf.resize(4 + body, 0);
            reader
                .read_exact(&mut buf[4..])
                .map_err(|e| format!("recv: {e}"))?;
            *bytes += buf.len() as u64;
            let t = Instant::now();
            let frame = read_response_frame(&mut buf.as_slice());
            decode.record_dur(t.elapsed());
            frame
        }
    };
    match frame {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// The receiver's half of a phase: matches every response to the
/// oldest in-flight request and checks it.
fn receive(
    reader: &mut BufReader<TcpStream>,
    inflight: &Mutex<VecDeque<Sent>>,
    tx: Sender<Option<u64>>,
    expected_rank: u32,
    codec: bool,
    latency_since: Option<Instant>,
) -> Checked<PhaseOut> {
    let mut out = PhaseOut::default();
    loop {
        let frame = if codec {
            read_one(reader, Some((&mut out.decode, &mut out.bytes)))?
        } else {
            read_one(reader, None)?
        };
        let now = Instant::now();
        let sent = inflight
            .lock()
            .expect("in-flight queue lock")
            .pop_front()
            .ok_or_else(|| format!("response with nothing in flight: {frame:?}"))?;
        match (frame, sent.kind) {
            (ResponseFrame::Outcome(o), Kind::Establish) => {
                ensure(o.id == sent.id, || {
                    format!("outcome for request {} answered request {}", o.id, sent.id)
                })?;
                ensure(
                    o.status == "committed" && o.rank == Some(expected_rank),
                    || {
                        format!(
                            "establish {} ended {} at rank {:?}; the oracle's best rank under \
                             full availability is {expected_rank}",
                            o.id, o.status, o.rank
                        )
                    },
                )?;
                let session = o.session.ok_or("committed outcome without a session")?;
                if let Some(t0) = latency_since {
                    let ns = (now - sent.due).as_nanos() as u64;
                    out.slicer.latency((sent.due - t0).as_secs_f64(), ns);
                    if let (Some(total), Some(queue), Some(collect), Some(plan), Some(commit)) =
                        (o.total_ns, o.queue_ns, o.collect_ns, o.plan_ns, o.commit_ns)
                    {
                        let a = &mut out.attrib;
                        a.n += 1;
                        a.client_ns += ns as f64;
                        a.total_ns += total as f64;
                        a.queue_ns += queue as f64;
                        a.collect_ns += collect as f64;
                        a.plan_ns += plan as f64;
                        a.replan_ns += o.replan_ns.unwrap_or(0) as f64;
                        a.commit_ns += commit as f64;
                    }
                }
                out.ops += 1;
                let _ = tx.send(Some(session));
            }
            (
                ResponseFrame::Terminated {
                    id,
                    session,
                    released,
                },
                Kind::Terminate(expected),
            ) => {
                ensure(
                    id == sent.id && session == expected && released > 0.0,
                    || {
                        format!(
                            "terminate {} of session {expected} answered as request {id}, session \
                         {session}, released {released}",
                            sent.id
                        )
                    },
                )?;
                out.ops += 1;
                let _ = tx.send(None);
            }
            (ResponseFrame::Stats(stats), Kind::Stats) => {
                ensure(stats.id == sent.id, || "stats answered out of order".into())?;
                out.stats = Some(stats);
                return Ok(out);
            }
            (frame, kind) => {
                return Err(format!(
                    "request {} ({kind:?}) answered with {frame:?}",
                    sent.id
                ))
            }
        }
    }
}

/// The oracle's rank for the bench world's one template under full
/// availability.
fn oracle_rank() -> Checked<u32> {
    let (template, space) = synthetic_chain(4, 4);
    let view = AvailabilityView::from_fn(space.ids(), |_| 1.0e12);
    let best = best_embedding(&template, &view).ok_or("the oracle finds no embedding")?;
    Ok(template.service().sink_ranking()[best.sink_level])
}

/// One set-up: input generation, server start, connection, warm-up.
fn set_up(seed: u64, expected_rank: u32, traced: bool) -> Checked<(Server, Client)> {
    let server = start(&ServeOptions::default()).map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect(&server, seed, expected_rank, traced)?;
    client.phase(Mode::Closed {
        until: None,
        ops: Some(WARMUP_OPS),
    })?;
    Ok((server, client))
}

/// Releases every live session and audits the server's world.
fn tear_down(server: Server, mut client: Client) -> Checked<()> {
    let out = client.phase(Mode::Drain)?;
    let stats = out.stats.ok_or("drain ended without stats")?;
    ensure(stats.live_sessions == 0, || {
        format!("{} sessions live after teardown", stats.live_sessions)
    })?;
    ensure(!stats.over_committed, || {
        "the server reports over-commitment".into()
    })?;
    ensure(stats.total_available == stats.total_capacity, || {
        format!(
            "after teardown {} of {} capacity is available",
            stats.total_available, stats.total_capacity
        )
    })?;
    drop(client);
    server.shutdown();
    Ok(())
}

/// Runs the workload for `seconds`: closed loop, then paced.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Checked<Measured> {
    let expected_rank = oracle_rank()?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (server, client) = set_up(seed, expected_rank, traced)?;
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            tear_down(server, client)?;
        } else {
            kept = Some((server, client));
        }
    }
    let (server, mut client) = kept.expect("at least one set-up");

    let stats_before = client
        .last_stats
        .clone()
        .ok_or("warm-up ended without stats")?;
    let closed = client.phase(Mode::Closed {
        until: Some(Instant::now() + Duration::from_secs_f64(seconds * CLOSED_SHARE)),
        ops: None,
    })?;
    let paced = client.phase(Mode::Paced {
        rate: PACED_RATE,
        until: Instant::now() + Duration::from_secs_f64(seconds * (1.0 - CLOSED_SHARE)),
    })?;
    let closed_stats = closed.stats.as_ref().ok_or("closed phase without stats")?;

    let mut layers = Vec::new();
    // Establishes per admission round over the closed-loop phase, from
    // the server's own `stats` frames.
    layers.push(metric(
        "serve.batch_mean",
        "req/round",
        (closed_stats.establishments - stats_before.establishments) as f64
            / (closed_stats.rounds - stats_before.rounds).max(1) as f64,
    ));
    if traced {
        // Codec figures come from the closed loop's plain frames, span
        // attribution from the paced phase's traced establishes.
        let a = &paced.attrib;
        let n = a.n.max(1) as f64;
        let us = |ns: f64| ns / n / 1e3;
        layers.extend([
            metric("wire.encode_ns", "ns", closed.encode.mean()),
            metric("wire.decode_ns", "ns", closed.decode.mean()),
            metric(
                "wire.bytes_per_op",
                "B",
                closed.bytes as f64 / closed.ops.max(1) as f64,
            ),
            metric("serve.queue_us", "us", us(a.queue_ns)),
            metric("serve.collect_us", "us", us(a.collect_ns)),
            metric("serve.plan_us", "us", us(a.plan_ns + a.replan_ns)),
            metric("serve.commit_us", "us", us(a.commit_ns)),
            metric("serve.outside_us", "us", us(a.client_ns - a.total_ns)),
            metric("load.late_us", "us", paced.late.mean() / 1e3),
        ]);
    }

    tear_down(server, client)?;
    let mut measured = Measured::from_slices(
        &closed.slicer,
        &paced.slicer,
        closed.ops,
        median(&mut setups),
    );
    measured.attempted = closed.ops + paced.ops;
    measured.layers = layers;
    Ok(measured)
}
