//! `service-ramp`: `storesim::sharded::run_sharded` in the
//! `fig-service-scale` shape — 256 servers in 8 groups, 65 536 keys
//! stored 2-way, FIFO with cancellation, exponential 1 ms demand, 200 µs
//! propagation (the engine lookahead), one adaptive frontend lane, and
//! offered load ramping 0.05 → 0.6 across the §2.1 threshold. Host time
//! goes to the sharded engine's rounds, wires and heap, and to the
//! per-request lane decision.

use std::sync::Arc;

use redundancy::estimator::RateEstimator;
use redundancy::planner::ThresholdCache;
use simcore::dist::{DynDist, Exponential};
use simcore::rng::Rng;
use simcore::shard::EngineStats;
use storesim::hashring::HashRing;
use storesim::service::{Frontend, ServiceConfig};
use storesim::sharded::{run_sharded, ShardedOutcome};

use crate::harness::{self, Fnv, Ledger, Metrics, Setup};
use crate::{Args, Outcome};

const REQUESTS: usize = 400_000;
const WARMUP: usize = 20_000;
const SERVERS: usize = 256;
const GROUPS: usize = 8;
const KEYS: usize = 65_536;
const VNODES: usize = 16;
const WINDOW: usize = 8192;
/// Timed repetitions at least, after the warm-up: two traced and two
/// untraced in a traced run.
const MIN_TIMED: usize = 4;
/// `fig-service-scale`'s band on switch-off minus threshold.
const SWITCH_OFF_BAND: f64 = 0.05;

fn config(seed: u64) -> ServiceConfig {
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.6);
    cfg.servers = SERVERS;
    cfg.shards = KEYS;
    cfg.vnodes = VNODES;
    cfg.cancellation = true;
    cfg.propagation = 200.0e-6;
    cfg.requests = REQUESTS;
    cfg.warmup = WARMUP;
    cfg.seed = seed;
    if let Frontend::Adaptive { window, .. } = &mut cfg.frontend {
        *window = WINDOW;
    }
    cfg
}

/// The placement the engine precomputes: the ring and every key's
/// stored replicas.
fn build_placement(cfg: &ServiceConfig) -> usize {
    let ring = HashRing::new(cfg.servers, cfg.vnodes);
    (0..cfg.shards as u64)
        .map(|key| ring.replicas(key, cfg.stored_replicas)[0])
        .fold(0, |acc, s| acc ^ s)
}

/// One repetition: its spans and what it keeps of the outcome (the
/// per-request samples are dropped, so memory does not grow with the
/// number of repetitions).
struct Rep {
    run_s: f64,
    quantile_s: f64,
    check_s: f64,
    wall_s: f64,
    traced: bool,
    fingerprint: u64,
    engine: EngineStats,
    completed: usize,
    switch_off: f64,
    threshold: f64,
    copies_issued: u64,
    copies_cancelled: u64,
    /// Measured requests in the ramp buckets, and those replicated.
    bucketed: usize,
    k2: usize,
    samples: usize,
    mean: f64,
    p50: f64,
    p99: f64,
}

fn fingerprint(out: &ShardedOutcome) -> u64 {
    let res = &out.result;
    let mut fp = Fnv::new();
    fp.f64(res.response.mean())
        .f64(res.switch_off)
        .f64(res.live_threshold)
        .f64(res.mean_utilization)
        .u64(res.copies_issued)
        .u64(res.copies_cancelled)
        .u64(res.completed as u64)
        .u64(out.engine.events)
        .u64(out.engine.rounds);
    for b in &res.buckets {
        fp.u64(b.requests as u64)
            .u64(b.k2_requests as u64)
            .f64(b.mean_response)
            .f64(b.p99);
    }
    fp.finish()
}

fn rep(cfg: &ServiceConfig, threads: usize, traced: bool) -> Rep {
    let start = std::time::Instant::now();
    let (mut out, run_s) = harness::timed(|| run_sharded(cfg, GROUPS, threads));
    let ((mean, p50, p99), quantile_s) = harness::timed(|| {
        let r = &mut out.result.response;
        (r.mean(), r.quantile(0.5), r.quantile(0.99))
    });
    let (fingerprint, check_s) = harness::timed(|| fingerprint(&out));
    let res = &out.result;
    Rep {
        run_s,
        quantile_s,
        check_s,
        wall_s: start.elapsed().as_secs_f64(),
        traced,
        fingerprint,
        engine: out.engine,
        completed: res.completed,
        switch_off: res.switch_off,
        threshold: res.planner_threshold,
        copies_issued: res.copies_issued,
        copies_cancelled: res.copies_cancelled,
        bucketed: res.buckets.iter().map(|b| b.requests).sum(),
        k2: res.buckets.iter().map(|b| b.k2_requests).sum(),
        samples: res.response.len(),
        mean,
        p50,
        p99,
    }
}

pub fn run(args: &Args) -> Outcome {
    let threads = harness::nproc();
    let build = || {
        let cfg = config(args.seed);
        std::hint::black_box(build_placement(&cfg));
        cfg
    };
    let (cfg, mut setup) = Setup::first(build);
    println!(
        "service-ramp: {SERVERS} servers in {GROUPS} groups, {KEYS} keys stored 2-way, \
         {REQUESTS} requests (+{WARMUP} warm-up), load 0.05 → 0.6, engine threads {threads}"
    );
    let (reps, peak_rss_mb) =
        harness::repeat_for(args.seconds, args.trace, MIN_TIMED, |_, traced| {
            setup.again(build);
            rep(&cfg, threads, traced)
        });

    let mut violations = Vec::new();
    let prints: Vec<u64> = reps.iter().map(|r| r.fingerprint).collect();
    harness::check_fingerprints("service-ramp", &prints, &mut violations);
    let first = &reps[0];
    let failed = reps.iter().map(|r| REQUESTS - r.completed).sum::<usize>();
    if failed > 0 {
        violations.push(format!("{failed} requests not completed"));
    }
    let delta = first.switch_off - first.threshold;
    println!(
        "switch-off {:.5} vs threshold {:.5} ({delta:+.5}, band ±{SWITCH_OFF_BAND})",
        first.switch_off, first.threshold
    );
    if delta.is_nan() || delta.abs() > SWITCH_OFF_BAND {
        violations.push(format!(
            "switch-off {delta:+.5} from the threshold, outside ±{SWITCH_OFF_BAND}"
        ));
    }
    let timed = &reps[1..];
    println!(
        "{} timed repetitions after one warm-up, requests/s {:?}",
        timed.len(),
        timed
            .iter()
            .map(|r| ((REQUESTS + WARMUP) as f64 / r.run_s).round())
            .collect::<Vec<_>>()
    );
    println!(
        "sim_p50_ms {:.6} sim_p99_ms {:.6} (simulated response time, {} samples); \
         engine {} events in {} rounds",
        1e3 * first.p50,
        1e3 * first.p99,
        first.samples,
        first.engine.events,
        first.engine.rounds
    );

    let mut m = Metrics::new();
    if !args.trace {
        m.insert("ops_per_s", requests_per_s(timed));
        m.insert("setup_s", setup.median());
        m.insert("peak_rss_mb", peak_rss_mb);
        m.insert("latency_mean_ms", 1e3 * first.mean);
        m.insert("latency_p99_ms", 1e3 * first.p99);
    } else {
        traced_metrics(&cfg, timed, &mut m, &mut violations);
    }
    Outcome {
        attempted: (REQUESTS * reps.len()) as u64,
        failed: failed as u64,
        violations,
        metrics: m,
    }
}

/// Requests, warm-up included, per host second of `run_sharded`.
fn requests_per_s<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> f64 {
    harness::rate(reps, |r| ((REQUESTS + WARMUP) as f64, r.run_s))
}

fn traced_metrics(
    cfg: &ServiceConfig,
    reps: &[Rep],
    m: &mut Metrics,
    violations: &mut Vec<String>,
) {
    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
    let run_s = harness::median(&traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let res = &reps[0];
    let engine = &res.engine;
    let total_requests = (REQUESTS + WARMUP) as f64;

    // The same configuration at one thread: its time over the parallel
    // run's, and its output must be the parallel run's, bit for bit.
    let single = rep(cfg, 1, true);
    if single.fingerprint != reps[0].fingerprint {
        violations.push(format!(
            "1-thread fingerprint {:016x} differs from the {}-thread one {:016x}",
            single.fingerprint, engine.threads, reps[0].fingerprint
        ));
    }
    println!(
        "1-thread repeat: {:.3} s vs {:.3} s at {} threads, fingerprint {:016x}",
        single.run_s, run_s, engine.threads, single.fingerprint
    );

    let ring_s = 1e-9
        * harness::ns_per_iter(|| {
            std::hint::black_box(build_placement(cfg));
        });
    let (push_pop_ns, vs_binary) = harness::push_pop_probe(2 * SERVERS / GROUPS);
    let mut rng = Rng::seed_from(cfg.seed);
    let sample_ns = harness::ns_per_iter(|| {
        std::hint::black_box(cfg.service.sample(&mut rng));
    });
    let (ingest_ns, decide_ns) = decision_probes(cfg);

    m.insert("simcore.event.push_pop_ns", push_pop_ns);
    m.insert("simcore.heap.vs_binary_heap", vs_binary);
    m.insert("simcore.shard.events", engine.events as f64);
    m.insert("simcore.shard.rounds", engine.rounds as f64);
    m.insert(
        "simcore.shard.events_per_round",
        engine.events as f64 / engine.rounds.max(1) as f64,
    );
    m.insert(
        "simcore.shard.ns_per_event",
        1e9 * run_s / engine.events as f64,
    );
    m.insert("simcore.shard.speedup", single.run_s / run_s);
    m.insert("simcore.dist.sample_ns", sample_ns);
    m.insert(
        "simcore.stats.quantile_s",
        harness::median(&traced.iter().map(|r| r.quantile_s).collect::<Vec<_>>()),
    );
    m.insert("storesim.sharded.run_s", run_s);
    m.insert("storesim.hashring.build_s", ring_s);
    m.insert(
        "storesim.k2_fraction",
        res.k2 as f64 / res.bucketed.max(1) as f64,
    );
    m.insert(
        "storesim.copies_per_request",
        res.copies_issued as f64 / total_requests,
    );
    m.insert(
        "storesim.cancelled_ratio",
        res.copies_cancelled as f64 / res.copies_issued as f64,
    );
    m.insert(
        "storesim.useful_copy_ratio",
        total_requests / res.copies_issued as f64,
    );
    m.insert("core.estimator.ingest_ns", ingest_ns);
    m.insert("core.planner.decide_ns", decide_ns);
    // One lane with the global load model: per request, one rate-estimator
    // ingest and a compare against the cached threshold.
    m.insert(
        "core.decision_share",
        total_requests * ingest_ns * 1e-9 / run_s,
    );
    m.insert(
        "bench.trace_overhead_pct",
        harness::trace_overhead_pct(
            requests_per_s(untraced.iter().copied()),
            requests_per_s(traced.iter().copied()),
        ),
    );

    let n = traced.len() as f64;
    let mut ledger = Ledger::new(traced.iter().map(|r| r.wall_s).sum());
    ledger.span(
        "storesim.sharded.run_sharded",
        traced.len(),
        traced.iter().map(|r| r.run_s).sum(),
    );
    ledger.part_estimated(
        "storesim.hashring ring + placement table",
        n,
        ring_s * 1e9,
        1,
    );
    ledger.part_estimated(
        "core.estimator ingest (frontend lane)",
        n * total_requests,
        ingest_ns,
        1,
    );
    ledger.part_estimated(
        "simcore.dist demand samples",
        n * res.copies_issued as f64,
        sample_ns,
        engine.threads,
    );
    ledger.part_estimated(
        "simcore.event heap push+pop",
        n * engine.events as f64,
        push_pop_ns,
        engine.threads,
    );
    ledger.part_rest("simcore.shard rounds, wires and server logic (rest)");
    ledger.span(
        "simcore.stats quantiles",
        traced.len(),
        traced.iter().map(|r| r.quantile_s).sum(),
    );
    ledger.span(
        "bench fingerprint",
        traced.len(),
        traced.iter().map(|r| r.check_s).sum(),
    );
    m.insert("bench.ledger.unattributed_pct", ledger.finish(violations));
}

/// Replays a request stream of the workload's shape — Poisson arrivals
/// along the load ramp, at the cluster rate one frontend lane sees —
/// through the global-load estimator the lane uses, then the loads it
/// produced through `Planner::decide_for`. Returns (ingest ns, decide ns)
/// per request.
fn decision_probes(cfg: &ServiceConfig) -> (f64, f64) {
    let n = REQUESTS + WARMUP;
    let mean = cfg.service.mean();
    let mut rng = Rng::seed_from(cfg.seed).fork(7);
    let mut t = 0.0;
    let arrivals: Vec<f64> = (0..n)
        .map(|i| {
            let frac = i.saturating_sub(WARMUP) as f64 / REQUESTS as f64;
            let rho = cfg.load_start + (cfg.load_end - cfg.load_start) * frac;
            t += rng.exponential(cfg.servers as f64 * rho / mean);
            t
        })
        .collect();
    let mut est = RateEstimator::new(WINDOW);
    let mut loads = Vec::with_capacity(n);
    let (_, ingest_s) = harness::timed(|| {
        for &at in &arrivals {
            est.observe_arrival(at);
            loads.push(est.rate() * mean / cfg.servers as f64);
        }
    });
    let planner = cfg.planner();
    let mut cache = ThresholdCache::new();
    let (replicated, decide_s) = harness::timed(|| {
        loads
            .iter()
            .filter(|&&rho| planner.decide_for(&mut cache, &[rho]).replicate)
            .count()
    });
    std::hint::black_box(replicated);
    (1e9 * ingest_s / n as f64, 1e9 * decide_s / n as f64)
}
