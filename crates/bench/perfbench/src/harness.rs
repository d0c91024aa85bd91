//! Shared measurement pieces: the repetition loop, medians, ns/iter
//! probes, peak memory, the output fingerprint, and the ledger.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use simcore::event::EventQueue;
use simcore::time::SimTime;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The ledger's attributed rows must cover at least this share of the
/// traced wall time; the rest is the `unattributed` row.
pub const LEDGER_TOLERANCE: f64 = 0.05;

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Seconds `f` takes.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Set-up timings: the set-up made before the first timed call, then
/// one more before every repetition, so their median (`setup_s`) samples
/// the same stretch of host time as the timed calls.
pub struct Setup(Vec<f64>);

impl Setup {
    /// Times the first set-up and returns its output.
    pub fn first<T>(setup: impl FnOnce() -> T) -> (T, Setup) {
        let (out, secs) = timed(setup);
        (out, Setup(vec![secs]))
    }

    /// Times the set-up again, discarding its output.
    pub fn again<T>(&mut self, setup: impl FnOnce() -> T) {
        let (out, secs) = timed(setup);
        black_box(out);
        self.0.push(secs);
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Calls `rep(i)` for i = 0, 1, … until `seconds` have passed and at
/// least `min_timed` calls after the first are made. Returns every output
/// in order, and the process's peak resident memory after the first call.
///
/// The first call warms caches and allocators, so callers check its
/// output but leave it out of their timings. The memory peak is read
/// there too: later calls only add allocator fragmentation, which drifts
/// with thread timing and with how many calls fit in the run. With
/// `traced`, odd-numbered calls are the traced ones and even-numbered
/// calls after the first untraced, so the trace overhead is measured
/// within the run.
pub fn repeat_for<T>(
    seconds: f64,
    traced: bool,
    min_timed: usize,
    mut rep: impl FnMut(usize, bool) -> T,
) -> (Vec<T>, f64) {
    let start = Instant::now();
    let mut outs = Vec::new();
    let mut warm_rss_mb = 0.0;
    while outs.len() < 1 + min_timed || start.elapsed().as_secs_f64() < seconds {
        let i = outs.len();
        outs.push(rep(i, traced && i % 2 == 1));
        if i == 0 {
            warm_rss_mb = peak_rss_mb();
        }
    }
    println!(
        "peak resident memory {warm_rss_mb:.2} MB after the warm-up call, {:.2} MB at the end",
        peak_rss_mb()
    );
    (outs, warm_rss_mb)
}

/// ns per call of `f`: median of three ~60 ms windows after a 20 ms
/// warm-up.
pub fn ns_per_iter(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut warm = 0u64;
    while t0.elapsed() < Duration::from_millis(20) {
        f();
        warm += 1;
    }
    let est = t0.elapsed().as_nanos() as f64 / warm.max(1) as f64;
    let iters = ((60.0e6 / est.max(1.0)) as u64).clamp(10, 100_000_000);
    let windows: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&windows)
}

/// Event-queue probe at a steady population: each iteration pops the
/// earliest event and pushes one a pseudo-random gap later (the hold
/// model a simulator's loop follows). Returns (EventQueue ns per
/// push+pop, EventQueue over std `BinaryHeap` on the same keys).
pub fn push_pop_probe(population: usize) -> (f64, f64) {
    let gap =
        |i: u64| SimTime::from_secs(((i.wrapping_mul(2_654_435_761) % 1000) + 1) as f64 * 1e-6);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(population + 1);
    for i in 0..population as u64 {
        q.push(gap(i), i);
    }
    let mut n = population as u64;
    let heap4 = ns_per_iter(|| {
        let (_, ev) = q.pop().expect("population stays constant");
        n += 1;
        q.push_after(gap(n), black_box(ev));
    });
    let mut b: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::with_capacity(population + 1);
    for i in 0..population as u64 {
        b.push(Reverse((gap(i), i, i)));
    }
    let mut seq = population as u64;
    let binary = ns_per_iter(|| {
        let Reverse((t, _, ev)) = b.pop().expect("population stays constant");
        seq += 1;
        let at = SimTime::from_secs(t.as_secs() + gap(seq).as_secs());
        b.push(Reverse((at, seq, black_box(ev))));
    });
    (heap4, heap4 / binary)
}

/// Peak resident memory of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// FNV-1a 64 over the fields fed to it, in the `fig-service-frontier`
/// idiom: floats by their bit patterns, counts as `u64`.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Checks that every repetition reproduced the first one's fingerprint.
pub fn check_fingerprints(what: &str, prints: &[u64], violations: &mut Vec<String>) {
    if let Some(&first) = prints.first() {
        if prints.iter().any(|&p| p != first) {
            violations.push(format!(
                "{what} fingerprint differs across repetitions: {prints:x?}"
            ));
        }
        println!(
            "fingerprint {first:016x} ({what}, {} repetitions agree)",
            prints.len()
        );
    }
}

struct Row {
    name: String,
    detail: String,
    secs: f64,
    nested: bool,
}

/// Where the traced run's wall time went, in the "latency components"
/// layout: one top-level row per span the benchmark measured around a
/// layer's call, nested rows splitting a span into count × cost
/// estimates from the probes plus its measured or remaining part, and an
/// explicit `unattributed` row for wall time outside every span.
pub struct Ledger {
    wall_s: f64,
    rows: Vec<Row>,
    open_span: f64,
    open_parts: f64,
}

impl Ledger {
    pub fn new(wall_s: f64) -> Self {
        Ledger {
            wall_s,
            rows: Vec::new(),
            open_span: 0.0,
            open_parts: 0.0,
        }
    }

    /// A measured top-level span: `count` calls taking `secs` in total.
    pub fn span(&mut self, name: &str, count: usize, secs: f64) {
        self.open_span = secs;
        self.open_parts = 0.0;
        self.rows.push(Row {
            name: name.to_string(),
            detail: format!("{count} × {:.3} ms", 1e3 * secs / count.max(1) as f64),
            secs,
            nested: false,
        });
    }

    /// A measured part of the last span.
    pub fn part_measured(&mut self, name: &str, secs: f64) {
        self.nest(name, "measured".to_string(), secs);
    }

    /// An estimated part of the last span: `count` operations at the
    /// probe's `cost_ns`, spread over `threads` threads.
    pub fn part_estimated(&mut self, name: &str, count: f64, cost_ns: f64, threads: usize) {
        let per = if threads > 1 {
            format!(" / {threads} threads")
        } else {
            String::new()
        };
        let secs = count * cost_ns * 1e-9 / threads as f64;
        let count = if count < 1e6 {
            format!("{count:.0}")
        } else {
            format!("{count:.3e}")
        };
        let cost = if cost_ns < 1e6 {
            format!("{cost_ns:.1} ns")
        } else {
            format!("{:.3} ms", cost_ns * 1e-6)
        };
        self.nest(name, format!("{count} × {cost}{per}"), secs);
    }

    /// The rest of the last span, after its parts.
    pub fn part_rest(&mut self, name: &str) {
        let secs = self.open_span - self.open_parts;
        self.nest(name, "span − parts".to_string(), secs);
    }

    fn nest(&mut self, name: &str, detail: String, secs: f64) {
        self.open_parts += secs;
        self.rows.push(Row {
            name: format!("  {name}"),
            detail,
            secs,
            nested: true,
        });
    }

    /// Prints the ledger and checks that the top-level rows plus the
    /// unattributed row sum to the wall time, with the unattributed share
    /// at most [`LEDGER_TOLERANCE`]. Returns the unattributed share in %.
    pub fn finish(self, violations: &mut Vec<String>) -> f64 {
        let attributed: f64 = self.rows.iter().filter(|r| !r.nested).map(|r| r.secs).sum();
        let unattributed = self.wall_s - attributed;
        let pct = |s: f64| 100.0 * s / self.wall_s;
        println!(
            "ledger: traced wall {:.3} s; spans must cover it to within {:.0} %",
            self.wall_s,
            100.0 * LEDGER_TOLERANCE
        );
        for r in &self.rows {
            println!(
                "  {:<58} {:>28} {:>10.4} s {:>6.1} %",
                r.name,
                r.detail,
                r.secs,
                pct(r.secs)
            );
        }
        println!(
            "  {:<58} {:>28} {:>10.4} s {:>6.1} %",
            "unattributed",
            "wall − spans",
            unattributed,
            pct(unattributed)
        );
        println!(
            "  {:<58} {:>28} {:>10.4} s  100.0 %",
            "total", "", self.wall_s
        );
        // Spans nest inside the wall, so only a shortfall can break the sum.
        if unattributed.abs() > LEDGER_TOLERANCE * self.wall_s {
            violations.push(format!(
                "ledger rows do not sum to the traced wall time: unattributed {:.2} % \
                 (tolerance {:.0} %)",
                pct(unattributed),
                100.0 * LEDGER_TOLERANCE
            ));
        }
        pct(unattributed)
    }
}

/// Work per second over several timed calls: total work over total
/// time. Host speed on a shared machine shifts in phases of a few
/// seconds, and this weighs each phase by the time spent in it, where a
/// median would jump between phases.
pub fn rate<'a, T: 'a>(
    reps: impl IntoIterator<Item = &'a T>,
    work_and_secs: impl Fn(&T) -> (f64, f64),
) -> f64 {
    let (work, secs) = reps
        .into_iter()
        .map(work_and_secs)
        .fold((0.0, 0.0), |(w, s), (dw, ds)| (w + dw, s + ds));
    work / secs
}

/// `100 × (untraced − traced) / untraced` for a higher-is-better rate.
pub fn trace_overhead_pct(untraced: f64, traced: f64) -> f64 {
    100.0 * (untraced - traced) / untraced
}
