//! The fabric event loop: hosts, switches, TCP flows, and replication.
//!
//! One simulation = one fat-tree + one generated flow set, run twice by the
//! experiments (with and without replication) on identical flows so the
//! comparison is paired.
//!
//! ## Replication mechanics (§2.4)
//!
//! When `replicate_first > 0`, every *switch* that has more than one
//! equal-cost egress candidate for an original data packet with
//! `seq < replicate_first` emits a **low-priority copy on the next ECMP
//! candidate**. Replicas are forwarded like normal packets (at their own
//! alternate ECMP choice downstream) but are never themselves re-replicated
//! and never generate copies of ACKs. The receiving host dedups below TCP:
//! whichever copy arrives first delivers the payload; later copies vanish
//! silently ([`crate::tcp::TcpReceiver::on_data`] returns `None`).
//!
//! Because replicas ride a strictly lower priority class with their own
//! drop-tail allocation, the original traffic's queues and drops are
//! *identical* to the baseline modulo TCP feedback effects — the paper's
//! "can never delay the original traffic" property.
//!
//! ## Timers and arrivals
//!
//! The future-event list holds only live work: packets on the wire, one
//! transmission per busy port, one retransmission-timer carrier per flow,
//! and the next flow arrival.
//!
//! TCP re-arms its timer on every advancing ACK. Instead of pushing a new
//! `Rto` each time and leaving the superseded ones to pop as no-ops, each
//! flow keeps a [`Timer`] slot: the current deadline, the *ticket* (the
//! sequence number [`EventQueue::reserve_seq`] hands out where the eager
//! push used to be), and the one in-heap *carrier* event. Arming only
//! pushes when there is no carrier or the new deadline is earlier than the
//! carrier's. A carrier that pops at the current arming's key fires the
//! timer; one that pops early re-pushes itself at `(deadline, ticket)`; a
//! superseded carrier, or one of a completed flow, is dropped.
//!
//! Flow arrivals are chained the same way: the starts reserve sequence
//! numbers `0..n` up front, only the first is pushed, and each start
//! pushes the next (flows come sorted by start time).
//!
//! Every event that does work therefore pops at the same `(time, seq)` key
//! as it would have had it been pushed eagerly, so the pop order of the
//! live events, and with it the output, is unchanged; only the number of
//! dead entries popped and the heap's size differ.

use crate::packet::{data_packet_bytes, packets_for, Packet, PacketKind, ACK_BYTES};
use crate::port::Port;
use crate::tcp::{TcpActions, TcpConfig, TcpReceiver, TcpSender};
use crate::topology::{FatTree, LinkId, NodeId};
use crate::workload::{arrival_rate_for_load, generate_flows, FlowSizeDist, FlowSpec};
use simcore::event::EventQueue;
use simcore::rng::Rng;
use simcore::stats::SampleSet;
use simcore::time::SimTime;

/// Everything one fabric run needs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Fat-tree arity (6 = the paper's 54-host fabric).
    pub k: usize,
    /// Link rate in bytes/second (all links; full bisection).
    pub link_rate_bytes_per_sec: f64,
    /// Per-hop propagation delay, seconds.
    pub per_hop_delay: f64,
    /// Per-class port buffer, bytes (the paper's 225 KB).
    pub buffer_bytes: u32,
    /// Replicate the first J packets of each flow (0 disables).
    pub replicate_first: u32,
    /// Transport constants.
    pub tcp: TcpConfig,
    /// Offered load as a fraction of aggregate host-link capacity.
    pub load: f64,
    /// Flows to generate.
    pub flows: usize,
    /// RNG seed (drives arrivals, sizes, and ECMP salts identically across
    /// the replicated/baseline pair).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            k: 6,
            link_rate_bytes_per_sec: 625.0e6, // 5 Gbps
            per_hop_delay: 2.0e-6,
            buffer_bytes: crate::port::DEFAULT_BUFFER_BYTES,
            replicate_first: 0,
            tcp: TcpConfig::default(),
            load: 0.4,
            flows: 20_000,
            seed: 0xFA7,
        }
    }
}

/// Flow-completion-time statistics for one run.
#[derive(Debug)]
pub struct FctStats {
    /// FCTs of measured flows smaller than 10 KB.
    pub small: SampleSet,
    /// FCTs of measured flows of at least 1 MB.
    pub large: SampleSet,
    /// FCTs of all measured flows.
    pub all: SampleSet,
    /// Total RTO events across all flows.
    pub timeouts: u64,
    /// Original-class packets dropped at ports.
    pub drops_high: u64,
    /// Replica-class packets dropped at ports.
    pub drops_low: u64,
    /// Flows that failed to complete before the safety cutoff.
    pub incomplete: usize,
    /// Events popped from the future-event list.
    pub events: u64,
    /// Largest number of events pending at once.
    pub peak_pending: usize,
}

impl FctStats {
    /// Median FCT of small flows, seconds.
    pub fn small_median(&mut self) -> f64 {
        self.small.quantile(0.5)
    }

    /// 99th percentile FCT of small flows, seconds.
    pub fn small_p99(&mut self) -> f64 {
        self.small.quantile(0.99)
    }
}

/// Output alias used by the experiments layer.
pub type SimOutput = FctStats;

#[derive(Clone, Copy, Debug)]
enum Ev {
    FlowStart(u32),
    Recv { node: NodeId, pkt: Packet },
    PortDone(LinkId),
    /// A flow's timer carrier, pushed under sequence number `seq`.
    Rto { flow: u32, seq: u64 },
}

/// One flow's retransmission timer (see the module doc).
#[derive(Clone, Copy, Debug, Default)]
struct Timer {
    /// Expiry of the current arming.
    deadline: SimTime,
    /// Sequence number reserved when the current arming was made.
    ticket: u64,
    /// The sender's `timer_epoch` at that arming.
    epoch: u64,
    /// `(time, seq)` of the flow's one live carrier event, if any.
    carrier: Option<(SimTime, u64)>,
}

struct Engine<'a> {
    cfg: &'a SimConfig,
    topo: FatTree,
    ports: Vec<Port>,
    in_flight: Vec<Option<Packet>>,
    senders: Vec<TcpSender>,
    receivers: Vec<TcpReceiver>,
    specs: Vec<FlowSpec>,
    fct: Vec<Option<f64>>,
    timers: Vec<Timer>,
    q: EventQueue<Ev>,
    ecmp_salt: u64,
}

impl Engine<'_> {
    /// Per-switch, per-flow ECMP choice among `n` candidates.
    fn ecmp_index(&self, flow: u32, is_ack: bool, node: NodeId, n: usize) -> usize {
        let h = mix64(
            self.ecmp_salt
                ^ (flow as u64)
                ^ ((is_ack as u64) << 40)
                ^ ((node as u64) << 42),
        );
        (h % n as u64) as usize
    }

    fn kick(&mut self, l: LinkId) {
        let now = self.q.now();
        let port = &mut self.ports[l as usize];
        if port.busy {
            return;
        }
        if let Some(pkt) = port.dequeue() {
            port.busy = true;
            let tx = port.tx_time(pkt.bytes);
            self.in_flight[l as usize] = Some(pkt);
            self.q.push(now + SimTime::from_secs(tx), Ev::PortDone(l));
        }
    }

    fn enqueue_on(&mut self, l: LinkId, pkt: Packet) {
        // Drops are counted inside the port.
        let _ = self.ports[l as usize].enqueue(pkt);
        self.kick(l);
    }

    /// Emits a data packet from the flow's source host.
    fn send_data(&mut self, flow: u32, seq: u32) {
        let spec = self.specs[flow as usize];
        let pkt = Packet {
            flow,
            kind: PacketKind::Data {
                seq,
                replica: false,
            },
            bytes: data_packet_bytes(spec.bytes, seq),
            dst: spec.dst,
        };
        let up = self.topo.candidates(spec.src, spec.dst)[0];
        self.enqueue_on(up, pkt);
    }

    /// Emits an ACK from the flow's destination host back to the source.
    fn send_ack(&mut self, flow: u32, cum: u32) {
        let spec = self.specs[flow as usize];
        let pkt = Packet {
            flow,
            kind: PacketKind::Ack { cum },
            bytes: ACK_BYTES,
            dst: spec.src,
        };
        let up = self.topo.candidates(spec.dst, spec.src)[0];
        self.enqueue_on(up, pkt);
    }

    fn apply(&mut self, flow: u32, actions: TcpActions) {
        let now = self.q.now();
        for seq in &actions.send {
            self.send_data(flow, *seq);
        }
        if let Some(delay) = actions.arm_timer {
            self.arm(flow, now + SimTime::from_secs(delay));
        }
        if actions.completed {
            let start = self.specs[flow as usize].start;
            self.fct[flow as usize] = Some(now.as_secs() - start);
        }
    }

    /// (Re)arms `flow`'s timer to expire at `at`, pushing a carrier only if
    /// none is pending or the pending one is later than `at`.
    fn arm(&mut self, flow: u32, at: SimTime) {
        let ticket = self.q.reserve_seq();
        let epoch = self.senders[flow as usize].timer_epoch;
        let t = &mut self.timers[flow as usize];
        t.deadline = at;
        t.ticket = ticket;
        t.epoch = epoch;
        if t.carrier.is_none_or(|(carrier_at, _)| at < carrier_at) {
            t.carrier = Some((at, ticket));
            self.q
                .push_reserved(at, ticket, Ev::Rto { flow, seq: ticket });
        }
    }

    /// A carrier pushed under `seq` popped: fire, carry on, or drop.
    fn on_carrier(&mut self, flow: u32, seq: u64) {
        let t = &mut self.timers[flow as usize];
        if t.carrier.map(|(_, s)| s) != Some(seq) {
            return; // superseded by an earlier carrier
        }
        t.carrier = None;
        if self.senders[flow as usize].completed {
            return;
        }
        if seq != t.ticket {
            // Re-armed later since this carrier was pushed.
            let (at, ticket) = (t.deadline, t.ticket);
            t.carrier = Some((at, ticket));
            self.q
                .push_reserved(at, ticket, Ev::Rto { flow, seq: ticket });
            return;
        }
        let epoch = t.epoch;
        let now = self.q.now().as_secs();
        let actions = self.senders[flow as usize].on_timeout(now, epoch);
        self.apply(flow, actions);
    }

    fn on_recv(&mut self, node: NodeId, pkt: Packet) {
        if node == pkt.dst {
            match pkt.kind {
                PacketKind::Data { seq, replica } => {
                    if let Some(cum) = self.receivers[pkt.flow as usize].on_data(seq, replica) {
                        self.send_ack(pkt.flow, cum);
                    }
                }
                PacketKind::Ack { cum } => {
                    let now = self.q.now().as_secs();
                    let actions = self.senders[pkt.flow as usize].on_ack(now, cum);
                    self.apply(pkt.flow, actions);
                }
            }
            return;
        }
        // Switch: route by ECMP; maybe replicate.
        let cands = self.topo.candidates(node, pkt.dst);
        let n = cands.len();
        assert!(n >= 1, "switch {node} has no route to {}", pkt.dst);
        let (is_ack, seq, is_replica) = match pkt.kind {
            PacketKind::Ack { .. } => (true, 0, false),
            PacketKind::Data { seq, replica } => (false, seq, replica),
        };
        let idx = self.ecmp_index(pkt.flow, is_ack, node, n);
        let primary = cands[idx];
        let alternate = cands[(idx + 1) % n];
        if is_replica {
            // Replicas keep to the road less traveled where one exists.
            let l = if n > 1 { alternate } else { primary };
            self.enqueue_on(l, pkt);
            return;
        }
        self.enqueue_on(primary, pkt);
        if !is_ack && n > 1 && seq < self.cfg.replicate_first {
            let mut copy = pkt;
            copy.kind = PacketKind::Data { seq, replica: true };
            self.enqueue_on(alternate, copy);
        }
    }
}

/// SplitMix64 finalizer — the per-switch ECMP hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one fabric simulation and returns flow-completion statistics over
/// the measured window (the middle 90 % of flows, excluding warm-up and
/// cool-down edges).
pub fn run(cfg: &SimConfig) -> FctStats {
    let topo = FatTree::new(cfg.k);
    let hosts = topo.hosts();
    let mut rng = Rng::seed_from(cfg.seed);
    let dist = FlowSizeDist::default();
    let lambda = arrival_rate_for_load(cfg.load, hosts, cfg.link_rate_bytes_per_sec, &dist);
    let specs = generate_flows(cfg.flows, lambda, hosts, &dist, &mut rng.fork(1));
    let ecmp_salt = rng.fork(2).next_u64();

    let ports: Vec<Port> = (0..topo.links())
        .map(|_| {
            Port::new(
                cfg.link_rate_bytes_per_sec,
                cfg.per_hop_delay,
                cfg.buffer_bytes,
            )
        })
        .collect();
    let senders: Vec<TcpSender> = specs
        .iter()
        .map(|s| TcpSender::new(packets_for(s.bytes), cfg.tcp))
        .collect();
    let receivers: Vec<TcpReceiver> = specs
        .iter()
        .map(|s| TcpReceiver::new(packets_for(s.bytes)))
        .collect();

    let n_links = topo.links();
    // Pending events are, per link, the transmission in progress and the
    // packets propagating on it; per flow, at most one timer carrier (a
    // superseded one lingers only until it pops); and the next flow start.
    // Pre-size for that so the heap does not reallocate mid-run: k = 6 with
    // 6 250 flows at load 0.4 peaks near 3 400 events, under half of this.
    let queue_cap = 4 * n_links + specs.len() + 1;
    let mut eng = Engine {
        cfg,
        topo,
        ports,
        in_flight: vec![None; n_links],
        fct: vec![None; specs.len()],
        timers: vec![Timer::default(); specs.len()],
        senders,
        receivers,
        specs,
        q: EventQueue::with_capacity(queue_cap),
        ecmp_salt,
    };

    // Flow `i` starts under sequence number `i`; each start pushes the next.
    for _ in 0..eng.specs.len() {
        eng.q.reserve_seq();
    }
    if let Some(first) = eng.specs.first() {
        eng.q
            .push_reserved(SimTime::from_secs(first.start), 0, Ev::FlowStart(0));
    }

    // Safety cutoffs: a stuck simulation is a bug, but an experiment sweep
    // should degrade (report incompletes) rather than hang.
    let max_events: u64 = 300_000_000;
    let mut peak_pending = eng.q.len();
    while let Some((_, ev)) = eng.q.pop() {
        match ev {
            Ev::FlowStart(f) => {
                let next = f as usize + 1;
                if let Some(spec) = eng.specs.get(next) {
                    eng.q.push_reserved(
                        SimTime::from_secs(spec.start),
                        next as u64,
                        Ev::FlowStart(next as u32),
                    );
                }
                let now = eng.q.now().as_secs();
                let actions = eng.senders[f as usize].on_start(now);
                eng.apply(f, actions);
            }
            Ev::Recv { node, pkt } => eng.on_recv(node, pkt),
            Ev::PortDone(l) => {
                let pkt = eng.in_flight[l as usize]
                    .take()
                    .expect("PortDone without a packet in flight");
                let port = &mut eng.ports[l as usize];
                port.busy = false;
                let to = eng.topo.link(l).to;
                let prop = port.propagation;
                eng.q
                    .push_after(SimTime::from_secs(prop), Ev::Recv { node: to, pkt });
                eng.kick(l);
            }
            Ev::Rto { flow, seq } => eng.on_carrier(flow, seq),
        }
        peak_pending = peak_pending.max(eng.q.len());
        if eng.q.events_processed() > max_events {
            break;
        }
    }

    // Measured window: drop the first 5% (cold network) and last 5%
    // (draining network) of flows.
    let lo = eng.specs.len() / 20;
    let hi = eng.specs.len() - eng.specs.len() / 20;
    let mut small = SampleSet::new();
    let mut large = SampleSet::new();
    let mut all = SampleSet::new();
    let mut incomplete = 0;
    for i in lo..hi {
        match eng.fct[i] {
            Some(fct) => {
                all.push(fct);
                if eng.specs[i].bytes < 10_000 {
                    small.push(fct);
                } else if eng.specs[i].bytes >= 1_000_000 {
                    large.push(fct);
                }
            }
            None => incomplete += 1,
        }
    }
    let timeouts = eng.senders.iter().map(|s| s.timeouts).sum();
    let drops_high = eng.ports.iter().map(|p| p.dropped_hi).sum();
    let drops_low = eng.ports.iter().map(|p| p.dropped_lo).sum();
    FctStats {
        small,
        large,
        all,
        timeouts,
        drops_high,
        drops_low,
        incomplete,
        events: eng.q.events_processed(),
        peak_pending,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(load: f64, replicate: bool) -> SimConfig {
        SimConfig {
            flows: 4_000,
            load,
            replicate_first: if replicate { 8 } else { 0 },
            ..SimConfig::default()
        }
    }

    #[test]
    fn low_load_flows_all_complete_fast() {
        let mut out = run(&quick_cfg(0.1, false));
        assert_eq!(out.incomplete, 0, "every flow must finish at 10% load");
        // Small flows: a couple of ~50 us RTTs.
        let med = out.small_median();
        assert!(
            med > 20e-6 && med < 2e-3,
            "median small FCT {med} implausible"
        );
    }

    #[test]
    fn fct_has_physical_floor() {
        let mut out = run(&quick_cfg(0.05, false));
        let min = out.all.quantile(0.0);
        // At least one RTT-ish: 2 hops of prop + serialization each way.
        assert!(min > 8.0e-6, "FCT {min} beats physics");
    }

    #[test]
    fn replication_does_not_hurt_small_flows_at_moderate_load() {
        let mut base = run(&quick_cfg(0.4, false));
        let mut repl = run(&quick_cfg(0.4, true));
        assert!(
            repl.small_median() <= base.small_median() * 1.02,
            "replication should not worsen the median: {} vs {}",
            repl.small_median(),
            base.small_median()
        );
    }

    #[test]
    fn replication_improves_median_at_moderate_load() {
        // The paper's headline: tens of percent improvement near 40% load.
        let mut base = run(&quick_cfg(0.4, false));
        let mut repl = run(&quick_cfg(0.4, true));
        let gain = 1.0 - repl.small_median() / base.small_median();
        assert!(
            gain > 0.05,
            "expected a real median win at 40% load, got {:.1}%",
            gain * 100.0
        );
    }

    #[test]
    fn originals_never_dropped_because_of_replicas() {
        // Same seed, same flows: the high-class drop count with replication
        // must not exceed baseline by more than TCP feedback jitter.
        let base = run(&quick_cfg(0.6, false));
        let repl = run(&quick_cfg(0.6, true));
        assert!(
            repl.drops_high <= base.drops_high.max(10) * 3,
            "replica traffic should not displace originals: {} vs {}",
            repl.drops_high,
            base.drops_high
        );
    }

    #[test]
    fn higher_load_means_higher_fct() {
        let mut lo = run(&quick_cfg(0.1, false));
        let mut hi = run(&quick_cfg(0.6, false));
        assert!(hi.small_median() > lo.small_median());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = run(&quick_cfg(0.3, true));
        let mut b = run(&quick_cfg(0.3, true));
        assert_eq!(a.small_median(), b.small_median());
        assert_eq!(a.timeouts, b.timeouts);
    }

    /// FNV-1a-64 over a run's output: the sorted sample bits of `small`,
    /// `large` and `all`, then the timeout, drop and incomplete counts.
    fn output_hash(out: &mut FctStats) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for set in [&mut out.small, &mut out.large, &mut out.all] {
            let s = set.sorted_slice();
            eat(s.len() as u64);
            for x in s {
                eat(x.to_bits());
            }
        }
        eat(out.timeouts);
        eat(out.drops_high);
        eat(out.drops_low);
        eat(out.incomplete as u64);
        h
    }

    /// Output pinned across commits. The hashes were captured before the
    /// timers became lazy and flow arrivals chained; those changes must not
    /// move a bit. The second config drops and times out, so RTO backoff
    /// and re-arms to an earlier deadline are covered. The event counters
    /// are pinned too: `events` counts only live work plus dropped
    /// carriers, and `peak_pending` stays near links + active flows.
    #[test]
    fn output_pinned_across_commits() {
        let mut moderate = run(&SimConfig {
            flows: 2_000,
            load: 0.4,
            replicate_first: 8,
            ..SimConfig::default()
        });
        assert_eq!(output_hash(&mut moderate), 0x670a_cfdf_b4a8_aadf);
        assert_eq!((moderate.events, moderate.peak_pending), (1_514_065, 2_341));

        let mut lossy = run(&SimConfig {
            flows: 2_000,
            load: 0.7,
            buffer_bytes: 30_000,
            ..SimConfig::default()
        });
        assert!(lossy.timeouts > 0, "the lossy config must time out");
        assert_eq!(output_hash(&mut lossy), 0x2d4a_5882_6916_2dd7);
        assert_eq!((lossy.events, lossy.peak_pending), (1_357_792, 2_329));
    }
}
