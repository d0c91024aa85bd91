//! `fabric-fct`: `netsim::run_pair` on the paper's 54-host k = 6
//! fat-tree at 5 Gbps / 2 µs per hop and load 0.4 (the Fig 14(a) peak).
//! The baseline and first-8-packet-replicated runs share their flows and
//! run in parallel on the global runner. All host time goes to netsim's
//! per-packet loop over `simcore::event::EventQueue`.

use netsim::packet::{packets_for, Packet, PacketKind};
use netsim::port::{Port, DEFAULT_BUFFER_BYTES};
use netsim::sim::{self, FctStats, SimConfig};
use netsim::tcp::{TcpConfig, TcpSender};
use netsim::topology::FatTree;
use netsim::workload::{arrival_rate_for_load, generate_flows, FlowSizeDist, FlowSpec};
use netsim::{run_pair, NetConfig};
use simcore::rng::Rng;
use simcore::runner::Runner;
use simcore::stats::SampleSet;
use std::hint::black_box;
use std::time::Instant;

use crate::harness::{self, Fnv, Ledger, Metrics, Setup};
use crate::{Args, Outcome};

/// Flows per set; each repetition simulates one set twice (both runs).
const FLOWS: usize = 6_250;
/// Independent flow sets per run, seeded from `--seed`. Simulated FCTs
/// are pooled over the sets: one set's heavy-tailed sizes swing the
/// realized load, and pooling evens that out between seeds.
const FLOW_SETS: usize = 16;
const LINK_RATE: f64 = 625.0e6;
const PER_HOP_DELAY: f64 = 2.0e-6;
const LOAD: f64 = 0.4;
const REPLICATE_FIRST: u32 = 8;
const K: usize = 6;

/// The seed of flow set `set` of run seed `seed` (distinct for every pair).
fn set_seed(seed: u64, set: usize) -> u64 {
    seed.wrapping_mul(FLOW_SETS as u64).wrapping_add(set as u64)
}

fn net_config() -> NetConfig {
    NetConfig {
        link_rate_bytes_per_sec: LINK_RATE,
        per_hop_delay: PER_HOP_DELAY,
        load: LOAD,
        flows: FLOWS,
        replicate_first: REPLICATE_FIRST,
    }
}

/// The per-run configuration `run_pair` derives from [`net_config`].
fn sim_config(replicate: bool, seed: u64) -> SimConfig {
    SimConfig {
        k: K,
        link_rate_bytes_per_sec: LINK_RATE,
        per_hop_delay: PER_HOP_DELAY,
        buffer_bytes: DEFAULT_BUFFER_BYTES,
        replicate_first: if replicate { REPLICATE_FIRST } else { 0 },
        tcp: TcpConfig::default(),
        load: LOAD,
        flows: FLOWS,
        seed,
    }
}

/// The workload's inputs, rebuilt through netsim's public functions the
/// way `sim::run` builds them, with the counts the ledger needs.
struct Inputs {
    topo: FatTree,
    flows: Vec<FlowSpec>,
    /// Σ `packets_for(bytes)`: data packets of one run without replicas.
    data_packets: u64,
    /// Σ packets × links on the flow's path: port visits of those data
    /// packets (their ACKs take as many on the way back).
    data_hops: u64,
}

fn build_inputs(seed: u64) -> Inputs {
    let topo = FatTree::new(K);
    let dist = FlowSizeDist::default();
    let lambda = arrival_rate_for_load(LOAD, topo.hosts(), LINK_RATE, &dist);
    let flows = generate_flows(
        FLOWS,
        lambda,
        topo.hosts(),
        &dist,
        &mut Rng::seed_from(seed).fork(1),
    );
    let mut data_packets = 0u64;
    let mut data_hops = 0u64;
    for f in &flows {
        let pkts = u64::from(packets_for(f.bytes));
        data_packets += pkts;
        data_hops += pkts * path_links(&topo, f.src, f.dst);
    }
    Inputs {
        topo,
        flows,
        data_packets,
        data_hops,
    }
}

/// Links from `src` to `dst` (every ECMP choice has the same length).
fn path_links(topo: &FatTree, src: u32, dst: u32) -> u64 {
    let mut node = src;
    let mut links = 0;
    while node != dst {
        node = topo.link(topo.candidates(node, dst)[0]).to;
        links += 1;
    }
    links
}

/// One repetition's results.
struct Rep {
    /// Index of the flow set simulated.
    set: usize,
    /// Host seconds of the paired call.
    pair_s: f64,
    /// Spans of the two `sim::run` calls (traced repetitions only).
    runs_s: Option<(f64, f64)>,
    quantile_s: f64,
    check_s: f64,
    wall_s: f64,
    fingerprint: u64,
    /// Baseline and replicated statistics, kept for the first repetition
    /// of each set only, so memory does not grow with the repetitions.
    stats: Option<(FctStats, FctStats)>,
    base_median: f64,
    repl_median: f64,
}

fn fingerprint(s: &mut FctStats, fp: &mut Fnv) {
    fp.u64(s.small.len() as u64)
        .u64(s.large.len() as u64)
        .u64(s.all.len() as u64)
        .f64(s.small.mean())
        .f64(s.all.mean())
        .f64(s.small_median())
        .f64(s.small_p99())
        .u64(s.timeouts)
        .u64(s.drops_high)
        .u64(s.drops_low)
        .u64(s.incomplete as u64);
}

fn rep(seed: u64, set: usize, traced: bool, keep: bool) -> Rep {
    let seed = set_seed(seed, set);
    let start = Instant::now();
    let (mut base, mut repl, runs_s) = if traced {
        let (b, r) = Runner::global().pair(
            || harness::timed(|| sim::run(&sim_config(false, seed))),
            || harness::timed(|| sim::run(&sim_config(true, seed))),
        );
        (b.0, r.0, Some((b.1, r.1)))
    } else {
        let pair = run_pair(&net_config(), seed);
        (pair.baseline, pair.replicated, None)
    };
    let pair_s = start.elapsed().as_secs_f64();
    let ((base_median, repl_median), quantile_s) =
        harness::timed(|| (base.small_median(), repl.small_median()));
    let (fingerprint, check_s) = harness::timed(|| {
        let mut fp = Fnv::new();
        self::fingerprint(&mut base, &mut fp);
        self::fingerprint(&mut repl, &mut fp);
        fp.finish()
    });
    Rep {
        set,
        pair_s,
        runs_s,
        quantile_s,
        check_s,
        wall_s: start.elapsed().as_secs_f64(),
        fingerprint,
        stats: keep.then_some((base, repl)),
        base_median,
        repl_median,
    }
}

pub fn run(args: &Args) -> Outcome {
    let seed = args.seed;
    let build = || {
        (0..FLOW_SETS)
            .map(|j| build_inputs(set_seed(seed, j)))
            .collect::<Vec<_>>()
    };
    let (inputs, mut setup) = Setup::first(build);
    println!(
        "fabric-fct: k = {K} fat-tree ({} hosts), {FLOW_SETS} flow sets × {FLOWS} flows × 2 runs, \
         load {LOAD}, {} data packets, {} data-packet hops per run over all sets, runner threads {}",
        inputs[0].topo.hosts(),
        inputs.iter().map(|i| i.data_packets).sum::<u64>(),
        inputs.iter().map(|i| i.data_hops).sum::<u64>(),
        Runner::global().threads()
    );
    // Repetition 0 (the warm-up) and 1 simulate set 0; then the sets
    // follow in turn, so every set runs at least once untimed or timed.
    let mut seen = [false; FLOW_SETS];
    let (reps, peak_rss_mb) =
        harness::repeat_for(args.seconds, args.trace, FLOW_SETS, |i, traced| {
            let set = i.saturating_sub(1) % FLOW_SETS;
            let keep = !std::mem::replace(&mut seen[set], true);
            setup.again(build);
            rep(seed, set, traced, keep)
        });

    let mut violations = Vec::new();
    let mut set_prints = Fnv::new();
    let mut incomplete = [0usize; FLOW_SETS];
    let mut pooled_base = SampleSet::new();
    let mut pooled_repl = SampleSet::new();
    for (j, set_incomplete) in incomplete.iter_mut().enumerate() {
        let of_set: Vec<&Rep> = reps.iter().filter(|r| r.set == j).collect();
        let prints: Vec<u64> = of_set.iter().map(|r| r.fingerprint).collect();
        if prints.iter().any(|&p| p != prints[0]) {
            violations.push(format!(
                "flow set {j}: fingerprint differs across repetitions: {prints:x?}"
            ));
        }
        set_prints.u64(prints[0]);
        let r = of_set[0];
        let (base, repl) = r
            .stats
            .as_ref()
            .expect("first repetition of a set keeps its statistics");
        *set_incomplete = base.incomplete + repl.incomplete;
        if r.repl_median >= r.base_median {
            violations.push(format!(
                "flow set {j}: replicated small-flow median {} s is not below the baseline's {} s",
                r.repl_median, r.base_median
            ));
        }
        pooled_base.merge(&base.small);
        pooled_repl.merge(&repl.small);
    }
    println!("fingerprint {:016x} (fabric-fct, over the {FLOW_SETS} flow sets; repetitions of a set agree)", set_prints.finish());
    let failed: usize = reps.iter().map(|r| incomplete[r.set]).sum();
    if failed > 0 {
        violations.push(format!("{failed} incomplete flows over all repetitions"));
    }
    // Sets differ in size, so the rate is taken over data packets and
    // converted to flows at the mean packets per flow of the run's sets.
    let timed = &reps[1..];
    let packets_per_flow =
        inputs.iter().map(|i| i.data_packets).sum::<u64>() as f64 / (FLOW_SETS * FLOWS) as f64;
    let ops = 2.0 * packet_rate(&inputs, timed.iter()) / packets_per_flow;
    println!(
        "{} timed repetitions after one warm-up, flows/s {:?}",
        timed.len(),
        timed
            .iter()
            .map(|r| (2.0 * FLOWS as f64 / r.pair_s).round())
            .collect::<Vec<_>>()
    );
    let (p50, p99) = (pooled_repl.quantile(0.5), pooled_repl.quantile(0.99));
    println!(
        "sim_p50_ms {:.6} sim_p99_ms {:.6} (replicated small-flow FCT pooled over the flow sets, \
         {} samples); baseline p50 {:.6} ms",
        1e3 * p50,
        1e3 * p99,
        pooled_repl.len(),
        1e3 * pooled_base.quantile(0.5)
    );

    let mut m = Metrics::new();
    if !args.trace {
        m.insert("ops_per_s", ops);
        m.insert("setup_s", setup.median());
        m.insert("peak_rss_mb", peak_rss_mb);
        m.insert("latency_mean_ms", 1e3 * pooled_repl.mean());
        m.insert("latency_p99_ms", 1e3 * p99);
    } else {
        let gain = 100.0 * (1.0 - p50 / pooled_base.quantile(0.5));
        traced_metrics(&inputs, &reps, gain, &mut m, &mut violations);
    }
    Outcome {
        attempted: (2 * FLOWS * reps.len()) as u64,
        failed: failed as u64,
        violations,
        metrics: m,
    }
}

/// Data packets of one run per host second of the pair calls.
fn packet_rate<'a>(inputs: &[Inputs], reps: impl Iterator<Item = &'a Rep>) -> f64 {
    harness::rate(reps, |r| (inputs[r.set].data_packets as f64, r.pair_s))
}

/// `all` is every repetition, the warm-up first.
fn traced_metrics(
    inputs: &[Inputs],
    all: &[Rep],
    gain_pct: f64,
    m: &mut Metrics,
    violations: &mut Vec<String>,
) {
    let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) =
        all[1..].iter().partition(|r| r.runs_s.is_some());
    let spans: Vec<(f64, f64)> = traced.iter().filter_map(|r| r.runs_s).collect();
    let base: Vec<f64> = spans.iter().map(|s| s.0).collect();
    let repl: Vec<f64> = spans.iter().map(|s| s.1).collect();
    let slower: Vec<f64> = spans.iter().map(|s| s.0.max(s.1)).collect();
    let imbalance: Vec<f64> = spans
        .iter()
        .map(|s| (s.0 - s.1).abs() / s.0.max(s.1))
        .collect();
    let ns_per_packet: Vec<f64> = traced
        .iter()
        .zip(&slower)
        .map(|(r, s)| 1e9 * s / inputs[r.set].data_packets as f64)
        .collect();
    // Counts summed over the flow sets, each simulated once.
    let total = |f: &dyn Fn(&FctStats, &FctStats) -> u64| {
        all.iter()
            .filter_map(|r| r.stats.as_ref())
            .map(|(b, r)| f(b, r))
            .sum::<u64>() as f64
    };

    let p = probes(&inputs[0]);
    let (push_pop_ns, vs_binary) = harness::push_pop_probe(2 * inputs[0].topo.links());

    m.insert("netsim.sim.run_s.baseline", harness::median(&base));
    m.insert("netsim.sim.run_s.replicated", harness::median(&repl));
    m.insert(
        "netsim.sim.ns_per_data_packet",
        harness::median(&ns_per_packet),
    );
    m.insert("netsim.port.enqueue_dequeue_ns", p.port_ns);
    m.insert("netsim.tcp.on_ack_ns", p.on_ack_ns);
    m.insert("netsim.topology.candidates_ns", p.candidates_ns);
    m.insert("netsim.timeouts.baseline", total(&|b, _| b.timeouts));
    m.insert("netsim.timeouts.replicated", total(&|_, r| r.timeouts));
    m.insert(
        "netsim.drops_high",
        total(&|b, r| b.drops_high + r.drops_high),
    );
    m.insert("netsim.drops_low", total(&|_, r| r.drops_low));
    m.insert("netsim.median_gain_pct", gain_pct);
    m.insert("simcore.runner.pair_imbalance", harness::median(&imbalance));
    m.insert("simcore.event.push_pop_ns", push_pop_ns);
    m.insert("simcore.heap.vs_binary_heap", vs_binary);
    m.insert(
        "simcore.stats.quantile_s",
        harness::median(&traced.iter().map(|r| r.quantile_s).collect::<Vec<_>>()),
    );
    m.insert(
        "bench.trace_overhead_pct",
        harness::trace_overhead_pct(
            packet_rate(inputs, untraced.iter().copied()),
            packet_rate(inputs, traced.iter().copied()),
        ),
    );

    // Counts for the ledger, for the slower run of each traced pair: every
    // data packet and its ACK visit one port per link of the path (an
    // enqueue, a dequeue, a topology lookup, and two events: transmission
    // done and arrival), and every ACK reaches the sender's TCP. Replicas,
    // retransmissions and timers are not counted, so the estimates are
    // lower bounds.
    let n = traced.len();
    let port_visits: f64 = traced
        .iter()
        .map(|r| 2.0 * inputs[r.set].data_hops as f64)
        .sum();
    let acks: f64 = traced
        .iter()
        .map(|r| inputs[r.set].data_packets as f64)
        .sum();
    let pair_s: f64 = traced.iter().map(|r| r.pair_s).sum();
    let mut ledger = Ledger::new(traced.iter().map(|r| r.wall_s).sum());
    ledger.span("simcore.runner.pair (baseline ‖ replicated)", n, pair_s);
    ledger.part_measured(
        "simcore.runner spawn/join, wait for the slower run",
        pair_s - slower.iter().sum::<f64>(),
    );
    ledger.part_estimated(
        "simcore.event push+pop (2 per port visit)",
        2.0 * port_visits,
        push_pop_ns,
        1,
    );
    ledger.part_estimated("netsim.port enqueue+dequeue", port_visits, p.port_ns, 1);
    ledger.part_estimated(
        "netsim.topology candidates",
        port_visits,
        p.candidates_ns,
        1,
    );
    ledger.part_estimated("netsim.tcp on_ack", acks, p.on_ack_ns, 1);
    ledger.part_rest("netsim.sim.run rest (replicas, timers, engine logic)");
    ledger.span(
        "simcore.stats quantiles",
        n,
        traced.iter().map(|r| r.quantile_s).sum(),
    );
    ledger.span(
        "bench fingerprint",
        n,
        traced.iter().map(|r| r.check_s).sum(),
    );
    m.insert("bench.ledger.unattributed_pct", ledger.finish(violations));
}

struct Probes {
    port_ns: f64,
    on_ack_ns: f64,
    candidates_ns: f64,
}

/// Replays the workload's inputs through netsim's public per-packet
/// functions.
fn probes(inputs: &Inputs) -> Probes {
    // A port at the workload's link rate holding a few packets; each
    // iteration enqueues one full data packet and dequeues one.
    let mut port = Port::new(LINK_RATE, PER_HOP_DELAY, DEFAULT_BUFFER_BYTES);
    let pkt = |seq: u32| Packet {
        flow: seq,
        kind: PacketKind::Data {
            seq,
            replica: false,
        },
        bytes: 1500,
        dst: 0,
    };
    for s in 0..8 {
        port.enqueue(pkt(s));
    }
    let mut s = 8u32;
    let port_ns = harness::ns_per_iter(|| {
        s = s.wrapping_add(1);
        port.enqueue(black_box(pkt(s)));
        black_box(port.dequeue());
    });

    // Every flow of the workload acked packet by packet from its start.
    let sizes: Vec<u32> = inputs.flows.iter().map(|f| packets_for(f.bytes)).collect();
    let total: u64 = sizes.iter().map(|&p| u64::from(p)).sum();
    let (_, secs) = harness::timed(|| {
        for &pkts in &sizes {
            let mut tx = TcpSender::new(pkts, TcpConfig::default());
            black_box(tx.on_start(0.0));
            for cum in 1..=pkts {
                black_box(tx.on_ack(f64::from(cum) * 1e-5, cum));
            }
        }
    });
    let on_ack_ns = 1e9 * secs / total as f64;

    // Every flow's path walked hop by hop through the routing table.
    let pairs: Vec<(u32, u32)> = inputs.flows.iter().map(|f| (f.src, f.dst)).collect();
    let mut lookups = 0u64;
    let (_, secs) = harness::timed(|| {
        for _ in 0..20 {
            for &(src, dst) in &pairs {
                let mut node = src;
                while node != dst {
                    let c = black_box(inputs.topo.candidates(node, dst));
                    node = inputs.topo.link(c[c.len() - 1]).to;
                    lookups += 1;
                }
            }
        }
    });
    Probes {
        port_ns,
        on_ack_ns,
        candidates_ns: 1e9 * secs / lookups as f64,
    }
}
