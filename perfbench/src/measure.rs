//! Measurement helpers shared by the workloads: a fixed-size latency
//! histogram, process CPU and memory readings from `/proc`, quartiles,
//! and the metric record every workload reports.

use std::time::{Duration, Instant};

/// Sub-buckets per power of two: 1/1024 relative resolution.
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
/// Samples of 2^36 ns (about 69 s) and above share the top bucket.
const MAX_BITS: u32 = 36;

/// A log-linear latency histogram of nanosecond samples.
///
/// Fixed memory (about 110 KiB whatever the sample count), so the
/// benchmark's own bookkeeping does not grow the process's peak RSS
/// with the run length. Quantiles interpolate within a bucket by rank,
/// so they read as continuous values rather than bucket bounds.
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; (MAX_BITS - SUB_BITS + 1) as usize * SUB],
            n: 0,
            sum: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        let v = v.min((1 << MAX_BITS) - 1);
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = exp - SUB_BITS;
        let mantissa = (v >> shift) as usize - SUB;
        (shift as usize + 1) * SUB + mantissa
    }

    /// `[lo, hi)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, i as f64 + 1.0);
        }
        let shift = (i / SUB - 1) as i32;
        let mantissa = (i % SUB + SUB) as f64;
        let scale = 2f64.powi(shift);
        (mantissa * scale, (mantissa + 1.0) * scale)
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
        self.sum += u128::from(ns);
    }

    /// Records a duration.
    pub fn record_dur(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean sample, ns (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile in ns (0 when empty), interpolated within its
    /// bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * (self.n - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = u64::from(c);
            if seen + c > target {
                let (lo, hi) = Self::bounds(i);
                let within = (target - seen) as f64 + 0.5;
                return lo + (hi - lo) * within / c as f64;
            }
            seen += c;
        }
        unreachable!("target rank is below the sample count")
    }
}

/// Process CPU time so far, `(user, system)` in microseconds, from
/// `/proc/self/stat` (all threads, live and exited).
pub fn cpu_us() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick_us = 1e6 / 100.0; // USER_HZ is 100 on Linux
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick field");
    (ticks(11) * tick_us, ticks(12) * tick_us)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kb / 1024.0
}

/// Wall and process CPU time accumulated over the timed sections of a
/// run only, so output checks between them are not charged to the
/// program. CPU comes from `/proc/self/stat`, read at each `resume`,
/// `pause` and `now`.
#[derive(Default)]
pub struct Stopwatch {
    wall: Duration,
    cpu_us: f64,
    sys_us: f64,
    since: Option<(Instant, f64, f64)>,
}

impl Stopwatch {
    /// A stopwatch already running.
    pub fn started() -> Self {
        let mut w = Stopwatch::default();
        w.resume();
        w
    }

    pub fn resume(&mut self) {
        debug_assert!(self.since.is_none(), "stopwatch already running");
        let (user, sys) = cpu_us();
        self.since = Some((Instant::now(), user + sys, sys));
    }

    pub fn pause(&mut self) {
        let (wall, cpu, sys) = self.now();
        self.since = None;
        (self.wall, self.cpu_us, self.sys_us) = (Duration::from_secs_f64(wall), cpu, sys);
    }

    /// `(wall seconds, CPU µs, system CPU µs)` timed so far.
    pub fn now(&self) -> (f64, f64, f64) {
        match self.since {
            None => (self.wall.as_secs_f64(), self.cpu_us, self.sys_us),
            Some((t, cpu0, sys0)) => {
                let (user, sys) = cpu_us();
                (
                    (self.wall + t.elapsed()).as_secs_f64(),
                    self.cpu_us + user + sys - cpu0,
                    self.sys_us + sys - sys0,
                )
            }
        }
    }

    /// Wall seconds timed so far (no `/proc` read).
    pub fn secs(&self) -> f64 {
        (self.wall + self.since.map_or(Duration::ZERO, |(t, _, _)| t.elapsed())).as_secs_f64()
    }
}

/// Length of one measurement slice, seconds of timed work.
pub const SLICE_S: f64 = 0.5;

/// The guest's steal time so far, summed over its CPUs, in scheduler
/// ticks: time the host ran something else while a vCPU had work. Read
/// from the first line of `/proc/stat`.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("aggregate cpu line");
    // "cpu user nice system idle iowait irq softirq steal ..."
    cpu.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// State at one slice boundary.
#[derive(Clone, Copy)]
struct Mark {
    secs: f64,
    ops: u64,
    cpu_us: f64,
    sys_us: f64,
    steal: u64,
}

/// Splits a timed phase into [`SLICE_S`] slices and reports medians over
/// its *quiet* slices: the half with the least steal time (ties
/// included). The host this runs on is shared, and steal moved whole
/// runs of the multi-threaded `serve-churn` by 20–30 %; a slice the host
/// took the CPUs away from measures the host, not the program.
#[derive(Default)]
pub struct Slicer {
    marks: Vec<Mark>,
    latency: Vec<Hist>,
}

impl Slicer {
    /// Records a boundary if `watch` has crossed the next one; cheap
    /// otherwise (one clock read).
    pub fn tick(&mut self, watch: &Stopwatch, ops: u64) {
        let next = self.marks.len() as f64 * SLICE_S;
        if self.marks.is_empty() || watch.secs() >= next {
            self.mark(watch, ops);
        }
    }

    /// Closes the phase at `ops` completed.
    pub fn finish(&mut self, watch: &Stopwatch, ops: u64) {
        self.mark(watch, ops);
    }

    fn mark(&mut self, watch: &Stopwatch, ops: u64) {
        let (secs, cpu_us, sys_us) = watch.now();
        self.marks.push(Mark {
            secs,
            ops,
            cpu_us,
            sys_us,
            steal: steal_ticks(),
        });
    }

    /// Records one decision latency at `secs` into the phase.
    pub fn latency(&mut self, secs: f64, ns: u64) {
        let i = (secs / SLICE_S) as usize;
        if self.latency.len() <= i {
            self.latency.resize_with(i + 1, Hist::default);
        }
        self.latency[i].record(ns);
    }

    /// Takes the slice boundaries `other` recorded (a phase whose
    /// latencies are recorded on another thread than its boundaries).
    pub fn adopt_marks(&mut self, other: Slicer) {
        self.marks = other.marks;
    }

    /// Indices of the whole slices (at least half a slice long) with the
    /// least steal: at or below the median steal over whole slices.
    fn quiet(&self) -> Vec<usize> {
        let whole: Vec<(usize, f64)> = self
            .marks
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[1].secs - w[0].secs >= SLICE_S / 2.0)
            .map(|(i, w)| (i, (w[1].steal - w[0].steal) as f64))
            .collect();
        assert!(!whole.is_empty(), "a timed phase needs at least one slice");
        let cut = median(&mut whole.iter().map(|w| w.1).collect::<Vec<_>>());
        whole
            .into_iter()
            .filter(|w| w.1 <= cut)
            .map(|w| w.0)
            .collect()
    }

    /// `(ops/s, CPU µs/op, system µs/op)`: medians over quiet slices.
    pub fn rates(&self) -> (f64, f64, f64) {
        let (mut tput, mut cpu, mut sys) = (Vec::new(), Vec::new(), Vec::new());
        for i in self.quiet() {
            let (a, b) = (self.marks[i], self.marks[i + 1]);
            let ops = (b.ops - a.ops).max(1) as f64;
            tput.push((b.ops - a.ops) as f64 / (b.secs - a.secs));
            cpu.push((b.cpu_us - a.cpu_us) / ops);
            sys.push((b.sys_us - a.sys_us) / ops);
        }
        (median(&mut tput), median(&mut cpu), median(&mut sys))
    }

    /// Median over quiet slices with at least 100 samples of each
    /// slice's `q`-quantile latency, µs.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut per: Vec<f64> = self
            .quiet()
            .into_iter()
            .filter_map(|i| self.latency.get(i))
            .filter(|h| h.count() >= 100)
            .map(|h| h.quantile(q) / 1e3)
            .collect();
        assert!(!per.is_empty(), "no quiet slice has enough latency samples");
        median(&mut per)
    }
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one measured pass of a workload produced.
pub struct Measured {
    /// Ops the workload issued, including failed ones.
    pub attempted: u64,
    /// Ops that failed (see each workload for what can fail).
    pub failed: u64,
    /// Slice medians of throughput, CPU and latency over the timed phase.
    pub throughput: f64,
    pub cpu_us_per_op: f64,
    pub sys_us_per_op: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Median set-up time over the run's repeated set-ups, s.
    pub setup_s: f64,
    /// Per-layer figures of this workload (filled in when traced).
    pub layers: Vec<Metric>,
}

impl Measured {
    /// Fills the timing fields from the timed phase's slices (throughput
    /// and CPU from one, latency from the other); `ops` were attempted.
    pub fn from_slices(
        throughput_cpu: &Slicer,
        latency: &Slicer,
        ops: u64,
        setup_s: f64,
    ) -> Measured {
        let (throughput, cpu_us_per_op, sys_us_per_op) = throughput_cpu.rates();
        Measured {
            attempted: ops,
            failed: 0,
            throughput,
            cpu_us_per_op,
            sys_us_per_op,
            p50_us: latency.latency_quantile(0.50),
            p99_us: latency.latency_quantile(0.99),
            setup_s,
            layers: Vec::new(),
        }
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric("throughput_ops", "1/s", self.throughput),
            metric("cpu_us_per_op", "us", self.cpu_us_per_op),
            metric("p50_us", "us", self.p50_us),
            metric("peak_rss_mb", "MB", peak_rss_mb()),
            metric("setup_s", "s", self.setup_s),
        ]
    }
}

/// A failed output check: the run reports `correct: false` and exits
/// non-zero.
pub type Checked<T> = Result<T, String>;

/// Fails with `msg` unless `cond` holds.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Checked<()> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_track_exact_ones() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            let exact = ((q * 99_999.0).floor() + 1.0) * 37.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 2e-3,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
