//! `rt-live`: the wall-clock runtime `storesim::rt::run` in the smoke
//! shape (8 logical servers, exponential 5 µs demand, load ramp
//! 0.05 → 0.9) as a closed loop: a handful of requests stay in flight and
//! the next is dispatched as one finishes. Workers are `nproc − 1`, so
//! frontend plus workers fit the host. No event engine runs here; the
//! time goes to the mpsc hand-off, the cancel race and live planner
//! decisions.

use redundancy::cancel::CancelToken;
use redundancy::estimator::{EstimatorBank, MomentEstimator};
use redundancy::planner::{Planner, ThresholdCache, WorkloadProfile};
use simcore::rng::Rng;
use std::hint::black_box;
use storesim::rt::{self, RtConfig, RtResult};

use crate::harness::{self, Ledger, Metrics};
use crate::{Args, Outcome};

/// Measured requests per repetition (the smoke shape adds 10 % warm-up).
const REQUESTS: usize = 40_000;
/// Requests kept in flight: the closed loop's client count.
const INFLIGHT: usize = 4;

/// Timed repetitions at least, after the warm-up: two traced and two
/// untraced in a traced run.
const MIN_TIMED: usize = 4;
fn config(seed: u64) -> RtConfig {
    let mut cfg = RtConfig::smoke(REQUESTS, harness::nproc().saturating_sub(1).max(1));
    cfg.inflight = INFLIGHT;
    cfg.seed = seed;
    cfg
}

struct Rep {
    outer_s: f64,
    traced: bool,
    res: RtResult,
}

fn rep(cfg: &RtConfig, traced: bool) -> Rep {
    let (res, outer_s) = harness::timed(|| rt::run(cfg));
    Rep {
        outer_s,
        traced,
        res,
    }
}

pub fn run(args: &Args) -> Outcome {
    let (cfg, config_s) = harness::timed(|| config(args.seed));
    println!(
        "rt-live: {} logical servers, {} workers, closed loop with {INFLIGHT} in flight, \
         {} requests (+{} warm-up) per repetition, load {} → {}",
        cfg.servers, cfg.workers, cfg.requests, cfg.warmup, cfg.load_start, cfg.load_end
    );
    let (reps, peak_rss_mb) =
        harness::repeat_for(args.seconds, args.trace, MIN_TIMED, |_, traced| {
            rep(&cfg, traced)
        });

    let mut violations = Vec::new();
    let prints: Vec<u64> = reps.iter().map(|r| r.res.trace_fingerprint).collect();
    harness::check_fingerprints("rt-live decision trace", &prints, &mut violations);
    let mut failed = 0;
    for r in &reps {
        let res = &r.res;
        failed += res.requests - res.responses;
        let accounted = res.responses + res.late + res.purged + res.aborted;
        if res.issued_copies != accounted {
            violations.push(format!(
                "issued copies {} != responses + late + purged + aborted = {accounted}",
                res.issued_copies
            ));
        }
    }
    if failed > 0 {
        violations.push(format!("{failed} requests without a response"));
    }
    let timed = &reps[1..];
    let mean_us: Vec<f64> = timed.iter().map(|r| 1e6 * r.res.mean_latency_s).collect();
    let p99_us: Vec<f64> = timed.iter().map(|r| 1e6 * r.res.p99_latency_s).collect();
    let prestart: Vec<f64> = timed.iter().map(|r| r.outer_s - r.res.wall_secs).collect();
    println!(
        "{} timed repetitions after one warm-up, requests/s {:?}",
        timed.len(),
        timed
            .iter()
            .map(|r| (r.res.responses as f64 / r.res.wall_secs).round())
            .collect::<Vec<_>>()
    );
    println!(
        "rt_mean_latency_us {:.3} rt_p99_latency_us {:.3} (medians over repetitions of \
         {} responses each)",
        harness::median(&mean_us),
        harness::median(&p99_us),
        reps[0].res.responses
    );

    let mut m = Metrics::new();
    if !args.trace {
        m.insert("ops_per_s", responses_per_s(timed));
        m.insert("setup_s", config_s + harness::median(&prestart));
        m.insert("peak_rss_mb", peak_rss_mb);
        m.insert("latency_mean_ms", 1e-3 * harness::median(&mean_us));
        m.insert("latency_p99_ms", 1e-3 * harness::median(&p99_us));
    } else {
        traced_metrics(&cfg, timed, &mut m, &mut violations);
    }
    Outcome {
        attempted: reps.iter().map(|r| r.res.requests as u64).sum(),
        failed: failed as u64,
        violations,
        metrics: m,
    }
}

/// Responses per second of `wall_secs`.
fn responses_per_s<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> f64 {
    harness::rate(reps, |r| (r.res.responses as f64, r.res.wall_secs))
}

fn traced_metrics(cfg: &RtConfig, reps: &[Rep], m: &mut Metrics, violations: &mut Vec<String>) {
    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
    let med =
        |f: &dyn Fn(&Rep) -> f64| harness::median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let ratio =
        |f: &dyn Fn(&RtResult) -> usize| med(&|r| f(&r.res) as f64 / r.res.issued_copies as f64);

    let p = decision_probes(cfg);
    let res = &traced[0].res;
    let requests = res.requests as f64;
    let copies_per_request = res.issued_copies as f64 / requests;
    // Per request: the routed ingest and decision, one moment observation
    // per issued copy, and one cancel token issued, cloned and cancelled.
    let decision_ns = p.ingest_ns + p.decide_ns + copies_per_request * p.moment_ns + p.cancel_ns;
    let mean_demand = cfg.service.mean();
    // Completed copies ran their whole demand; purged ones none, aborted
    // ones part of it (not counted). Copies of one worker run one at a time.
    let executed = |r: &RtResult| (r.responses + r.late) as f64 * mean_demand / r.workers as f64;
    let wall = med(&|r| r.res.wall_secs);

    m.insert("core.estimator.ingest_ns", p.ingest_ns);
    m.insert("core.planner.decide_ns", p.decide_ns);
    m.insert("core.estimator.moment_observe_ns", p.moment_ns);
    m.insert("core.cancel.issue_ns", p.cancel_ns);
    m.insert("core.decision_share", requests * decision_ns * 1e-9 / wall);
    m.insert("storesim.rt.wall_s", wall);
    m.insert(
        "storesim.rt.prestart_s",
        med(&|r| r.outer_s - r.res.wall_secs),
    );
    m.insert("storesim.rt.useful_copy_ratio", ratio(&|r| r.responses));
    m.insert("storesim.rt.late_ratio", ratio(&|r| r.late));
    m.insert("storesim.rt.purged_ratio", ratio(&|r| r.purged));
    m.insert("storesim.rt.aborted_ratio", ratio(&|r| r.aborted));
    m.insert(
        "storesim.rt.handoff_us",
        med(&|r| {
            1e6 * (r.res.wall_secs - executed(&r.res) - requests * decision_ns * 1e-9) / requests
        }),
    );
    m.insert(
        "bench.trace_overhead_pct",
        harness::trace_overhead_pct(
            responses_per_s(untraced.iter().copied()),
            responses_per_s(traced.iter().copied()),
        ),
    );

    let n = traced.len() as f64;
    let mut ledger = Ledger::new(traced.iter().map(|r| r.outer_s).sum());
    ledger.span(
        "storesim.rt.run",
        traced.len(),
        traced.iter().map(|r| r.outer_s).sum(),
    );
    ledger.part_measured(
        "storesim.rt script, worker spawn and teardown (outside wall_secs)",
        traced.iter().map(|r| r.outer_s - r.res.wall_secs).sum(),
    );
    ledger.part_estimated(
        "core decision stack (frontend)",
        n * requests,
        decision_ns,
        1,
    );
    ledger.part_estimated(
        "copy execution (demand spun per worker)",
        traced
            .iter()
            .map(|r| (r.res.responses + r.res.late) as f64)
            .sum(),
        mean_demand * 1e9,
        res.workers,
    );
    ledger.part_rest("hand-off: mpsc, wake-ups, cancel race (rest)");
    m.insert("bench.ledger.unattributed_pct", ledger.finish(violations));
}

struct Probes {
    ingest_ns: f64,
    decide_ns: f64,
    moment_ns: f64,
    cancel_ns: f64,
}

/// Replays a request stream of the workload's shape — Poisson arrivals
/// along the ramp, each routed to two distinct logical servers — through
/// the frontend's `EstimatorBank`, the loads it produced through
/// `Planner::decide_for`, and exponential demands through
/// `MomentEstimator::observe`; and times the cancel-token lifecycle.
fn decision_probes(cfg: &RtConfig) -> Probes {
    let total = cfg.requests + cfg.warmup;
    let mean = cfg.service.mean();
    let mut rng = Rng::seed_from(cfg.seed).fork(7);
    let mut t = 0.0;
    let stream: Vec<(f64, [usize; 2], f64)> = (0..total)
        .map(|i| {
            let frac = i.saturating_sub(cfg.warmup) as f64 / cfg.requests as f64;
            let rho = cfg.load_start + (cfg.load_end - cfg.load_start) * frac;
            t += rng.exponential(cfg.servers as f64 * rho / mean);
            let pair = rng.distinct_indices(cfg.servers, 2);
            (t, [pair[0], pair[1]], cfg.service.sample(&mut rng))
        })
        .collect();
    let per = |secs: f64| 1e9 * secs / total as f64;

    let mut bank = EstimatorBank::new(cfg.servers, cfg.window);
    let mut loads = Vec::with_capacity(total);
    let (_, ingest_s) = harness::timed(|| {
        for &(at, [a, b], _) in &stream {
            bank.observe_arrival(a, at);
            bank.observe_arrival(b, at);
            loads.push([bank.utilization(a, mean, 2), bank.utilization(b, mean, 2)]);
        }
    });
    let planner = Planner::new(WorkloadProfile {
        mean_service: mean,
        scv: cfg.service.scv(),
        client_overhead: cfg.client_overhead,
    });
    let mut cache = ThresholdCache::new();
    let (_, decide_s) = harness::timed(|| {
        for l in &loads {
            black_box(planner.decide_for(&mut cache, l).replicate);
        }
    });
    let mut moments = MomentEstimator::new(cfg.moment_window);
    let (_, moment_s) = harness::timed(|| {
        for &(_, _, demand) in &stream {
            moments.observe(demand);
        }
    });
    black_box(moments.mean());
    let cancel_ns = harness::ns_per_iter(|| {
        let token = CancelToken::new();
        let copy = token.clone();
        token.cancel();
        black_box(copy.is_cancelled());
    });
    Probes {
        ingest_ns: per(ingest_s),
        decide_ns: per(decide_s),
        moment_ns: per(moment_s),
        cancel_ns,
    }
}
