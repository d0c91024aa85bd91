//! The repository benchmark: three workloads, each run from one command.
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path crates/bench/perfbench/Cargo.toml -- \
//!     --workload fabric-fct --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `fabric-fct` — `netsim::run_pair` on the k = 6 fat-tree at the
//!   Fig 14(a) peak (see [`fabric`]);
//! * `service-ramp` — `storesim::sharded::run_sharded` in the
//!   `fig-service-scale` shape (see [`service`]);
//! * `rt-live` — the wall-clock runtime `storesim::rt::run` as a closed
//!   loop with a small in-flight window (see [`rtlive`]).
//!
//! Each run builds the workload's inputs from `--seed`, repeats the timed
//! call for `--seconds` (setting up again before each call; `setup_s` is
//! the median), checks every repetition's output, and prints human lines
//! followed by one JSON object as the last line of standard output. With
//! `--trace 0` the JSON holds the end-to-end metrics; with `--trace 1` it
//! holds the per-layer metrics, and the run also prints a ledger. All
//! tracing lives here, outside the program: spans around the calls into
//! each crate's public functions, counts those functions return, and
//! probes that replay the workload's inputs through a layer's public
//! functions. A violated output check prints `"correct": false` and exits
//! with code 1; bad arguments exit with code 2.

#![forbid(unsafe_code)]

mod fabric;
mod harness;
mod rtlive;
mod service;

use harness::Metrics;

/// End-to-end metrics, reported by every workload with `--trace 0`:
/// `(name, unit)`. Time bases are listed in `crates/bench/perfbench/README.md`.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_mean_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// workload that never enters a layer reports that layer's spans, counts
/// and probes as 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("netsim.sim.run_s.baseline", "s"),
    ("netsim.sim.run_s.replicated", "s"),
    ("netsim.sim.ns_per_data_packet", "ns"),
    ("netsim.port.enqueue_dequeue_ns", "ns"),
    ("netsim.tcp.on_ack_ns", "ns"),
    ("netsim.topology.candidates_ns", "ns"),
    ("netsim.timeouts.baseline", "count"),
    ("netsim.timeouts.replicated", "count"),
    ("netsim.drops_high", "count"),
    ("netsim.drops_low", "count"),
    ("netsim.median_gain_pct", "%"),
    ("simcore.runner.pair_imbalance", "ratio"),
    ("simcore.event.push_pop_ns", "ns"),
    ("simcore.heap.vs_binary_heap", "ratio"),
    ("simcore.shard.events", "count"),
    ("simcore.shard.rounds", "count"),
    ("simcore.shard.events_per_round", "count"),
    ("simcore.shard.ns_per_event", "ns"),
    ("simcore.shard.speedup", "ratio"),
    ("simcore.dist.sample_ns", "ns"),
    ("simcore.stats.quantile_s", "s"),
    ("storesim.sharded.run_s", "s"),
    ("storesim.hashring.build_s", "s"),
    ("storesim.k2_fraction", "ratio"),
    ("storesim.copies_per_request", "ratio"),
    ("storesim.cancelled_ratio", "ratio"),
    ("storesim.useful_copy_ratio", "ratio"),
    ("core.estimator.ingest_ns", "ns"),
    ("core.planner.decide_ns", "ns"),
    ("core.decision_share", "ratio"),
    ("core.estimator.moment_observe_ns", "ns"),
    ("core.cancel.issue_ns", "ns"),
    ("storesim.rt.wall_s", "s"),
    ("storesim.rt.prestart_s", "s"),
    ("storesim.rt.useful_copy_ratio", "ratio"),
    ("storesim.rt.late_ratio", "ratio"),
    ("storesim.rt.purged_ratio", "ratio"),
    ("storesim.rt.aborted_ratio", "ratio"),
    ("storesim.rt.handoff_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.ledger.unattributed_pct", "%"),
];

/// The checked command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run reports.
pub struct Outcome {
    /// Units of work attempted (flows, requests).
    pub attempted: u64,
    /// Units of work that failed (incomplete flows, unanswered requests).
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// The metrics of the run's mode, by name.
    pub metrics: Metrics,
}

const USAGE: &str = "usage: perfbench --workload <fabric-fct|service-ramp|rt-live> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["fabric-fct", "service-ramp", "rt-live"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        harness::nproc()
    );
    let mut out = match args.workload.as_str() {
        "fabric-fct" => fabric::run(&args),
        "service-ramp" => service::run(&args),
        _ => rtlive::run(&args),
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match out.metrics.remove(name) {
            Some(v) => v,
            // A layer this workload never enters reads 0; an end-to-end
            // metric is always measured.
            None if args.trace => 0.0,
            None => {
                out.violations
                    .push(format!("end-to-end metric {name} missing"));
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            out.violations.push(format!("metric {name} is not finite"));
            0.0
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = out.metrics.keys().next() {
        out.violations
            .push(format!("metric {extra} is not declared"));
    }
    for v in &out.violations {
        println!("VIOLATION: {v}");
    }
    let correct = out.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
