//! The adaptive frontend's per-request policy, written once.
//!
//! [`FrontendCore`] holds one adaptive frontend's decision state: the
//! arrival-rate [`EstimatorBank`] (one entry per server, or a single one
//! for the whole stream), the [`PeerLoads`] heard from peer lanes, the optional
//! [`MomentEstimator`] with its trust gate and recalibration cadence, the
//! [`ThresholdCache`], and the configured and recalibrated [`Planner`]s.
//! Callers run [`decide`](FrontendCore::decide) once per request and
//! [`observe_demand`](FrontendCore::observe_demand) once per reported copy
//! demand. The sharded simulator builds one core per lane
//! ([`for_service`](FrontendCore::for_service)); the wall-clock runtime
//! ([`crate::rt`]) builds one per-server core with one lane. Nothing here
//! allocates per request.

use crate::service::{Frontend, LoadModel, MomentSource, ServiceConfig};
use redundancy::estimator::{
    EstimatorBank, LoadSummary, MomentEstimator, MomentSnapshot, PeerLoads,
};
use redundancy::planner::{Planner, ThresholdCache};

/// One adaptive frontend's estimator-plus-planner state (module docs).
#[derive(Clone, Debug)]
pub struct FrontendCore {
    /// One rate estimator per server ([`LoadModel::PerServer`]) or one
    /// for the whole stream ([`LoadModel::Global`]).
    rates: EstimatorBank,
    per_server: bool,
    peers: PeerLoads,
    moments: Option<MomentEstimator>,
    min_samples: usize,
    recalibrate: u64,
    cache: ThresholdCache,
    /// Built from the configured service law.
    planner: Planner,
    /// Re-derived from the measured moments.
    live_planner: Planner,
    live_threshold: f64,
    /// The load a candidate reads while its estimator is cold.
    cold_load: f64,
    observed: u64,
    recalibrations: u64,
}

impl FrontendCore {
    /// A core for one of `lanes` lanes over `servers` servers. A lane sees
    /// a `1/lanes` thinning of the stream, so its rate and moment windows
    /// shrink to `window / lanes` (at least 2) and its trust gate to
    /// `min_samples / lanes` (rounded up); at one lane nothing changes.
    ///
    /// # Panics
    /// Panics on estimated moments with `min_samples` outside `[2, window]`
    /// or a `recalibrate` cadence of 0.
    pub fn new(
        load_model: LoadModel,
        window: usize,
        moments: &MomentSource,
        servers: usize,
        lanes: usize,
        planner: Planner,
        cold_load: f64,
    ) -> Self {
        let lane_window = |w: usize| (w / lanes).max(2);
        let per_server = load_model == LoadModel::PerServer;
        let width = if per_server { servers } else { 1 };
        let (moments, min_samples, recalibrate) = match *moments {
            MomentSource::Clairvoyant => (None, 0, 1),
            MomentSource::Estimated {
                window,
                min_samples,
                recalibrate,
            } => {
                assert!(
                    min_samples >= 2 && min_samples <= window,
                    "min_samples must be in [2, window]"
                );
                assert!(recalibrate >= 1, "recalibrate cadence must be >= 1");
                let est = MomentEstimator::new(lane_window(window));
                (Some(est), min_samples.div_ceil(lanes), recalibrate as u64)
            }
        };
        FrontendCore {
            rates: EstimatorBank::new(width, lane_window(window)),
            per_server,
            peers: PeerLoads::new(lanes, width),
            moments,
            min_samples,
            recalibrate,
            cache: ThresholdCache::new(),
            planner,
            live_planner: planner,
            live_threshold: planner.threshold_load(),
            cold_load,
            observed: 0,
            recalibrations: 0,
        }
    }

    /// The core of one of `cfg.frontend_lanes` lanes (`None` for a fixed
    /// policy); cold candidates read the ramp's starting load.
    pub fn for_service(cfg: &ServiceConfig) -> Option<Self> {
        match &cfg.frontend {
            Frontend::Fixed(_) => None,
            Frontend::Adaptive {
                window,
                moments,
                load_model,
            } => Some(Self::new(
                *load_model,
                *window,
                moments,
                cfg.servers,
                cfg.frontend_lanes,
                cfg.planner(),
                cfg.load_start,
            )),
        }
    }

    /// The service mean loads are priced with: the measured window mean
    /// once `min_samples` demands are held, the configured mean before.
    fn live_mean(&self) -> f64 {
        match &self.moments {
            Some(me) if me.len() >= self.min_samples => me.mean(),
            _ => self.planner.profile().mean_service,
        }
    }

    /// Replicate or not, for a request arriving at `t` whose stored
    /// replicas are `candidates`, with `live` servers in the fleet.
    /// Global model: the [`cluster_load`](Self::cluster_load) over `live`
    /// servers against the live threshold. Per-server model: each
    /// candidate's rate times the live mean over `candidates.len()` (a
    /// k = 1 read spreads across them), the busiest one against the
    /// recalibrated planner.
    pub fn decide(&mut self, t: f64, candidates: &[u16], live: usize) -> bool {
        if !self.per_server {
            self.rates.observe_arrival(0, t);
            // Divide by the *live* fleet, not the configured one: in
            // elastic mode the threshold tracks current capacity.
            let rho = self.cluster_load(1, live).unwrap_or(self.cold_load);
            return rho < self.live_threshold;
        }
        let mean = self.live_mean();
        let mut rho_max = 0.0f64;
        for &s in candidates {
            let s = s as usize;
            self.rates.observe_arrival(s, t);
            let rho = if self.rates.get(s).is_warm() {
                self.peers.total_rate(s, self.rates.rate(s)) * mean / candidates.len() as f64
            } else {
                self.cold_load
            };
            rho_max = rho_max.max(rho);
        }
        let d = self.live_planner.decide_for(&mut self.cache, &[rho_max]);
        self.live_threshold = d.threshold_load;
        d.replicate
    }

    /// Ingests one copy's service demand; every `recalibrate` observations
    /// once the trust gate is met, re-derives the live threshold and
    /// planner from the measured (mean, SCV).
    pub fn observe_demand(&mut self, demand: f64) {
        if let Some(me) = self.moments.as_mut() {
            me.observe(demand);
            self.observed += 1;
            if me.len() >= self.min_samples && self.observed.is_multiple_of(self.recalibrate) {
                let overhead = self.planner.profile().client_overhead;
                self.live_threshold = self.cache.threshold(me.mean(), me.scv(), overhead);
                self.live_planner = self.planner.recalibrated(me.mean(), me.scv());
                self.recalibrations += 1;
            }
        }
    }

    /// The cluster-wide load over `servers` servers: the arrival rate
    /// (own estimate plus peer summaries) times the live mean, `None` while
    /// every own estimator is cold. A per-server bank sees each request at
    /// all `split` candidates, so its rate sum is divided by `split`.
    pub fn cluster_load(&self, split: usize, servers: usize) -> Option<f64> {
        let bank = &self.rates;
        let split = if self.per_server { split } else { 1 };
        (0..bank.len()).any(|s| bank.get(s).is_warm()).then(|| {
            let rate = (0..bank.len())
                .map(|s| self.peers.total_rate(s, bank.rate(s)))
                .sum::<f64>()
                / split as f64;
            rate * self.live_mean() / servers as f64
        })
    }

    /// This core's own rates, for broadcast to peer lanes.
    pub fn summary(&self) -> LoadSummary {
        self.rates.summary()
    }

    /// Files `peer`'s latest rate summary.
    pub fn apply_peer(&mut self, peer: usize, rates: LoadSummary) {
        self.peers.apply(peer, rates);
    }

    /// Follows a fleet resize from `live` to `servers`: a per-server bank
    /// grows over new indices and resets departed ones, so a re-added
    /// server warms up fresh; survivors are untouched.
    pub fn resize(&mut self, live: usize, servers: usize) {
        if self.per_server {
            self.rates.grow_to(servers);
            for idx in servers..live {
                self.rates.reset(idx);
            }
            self.peers.grow_to(servers);
        }
    }

    /// The threshold of the latest decision or recalibration; before the
    /// first, the configured planner's.
    pub fn live_threshold(&self) -> f64 {
        self.live_threshold
    }

    /// Recalibrations so far.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }

    /// The service moments pooled across `cores` (Chan's combine, in
    /// order), once together they hold as many samples as their summed
    /// trust gates (at one lane: that lane's `len >= min_samples`); NaN
    /// before that and with clairvoyant moments.
    pub fn pooled_moments<'a>(cores: impl IntoIterator<Item = &'a FrontendCore>) -> (f64, f64) {
        let (mut pool, mut gate) = (None::<MomentSnapshot>, 0);
        for core in cores {
            gate += core.min_samples;
            if let Some(snap) = core.moments.as_ref().map(MomentEstimator::snapshot) {
                pool = Some(pool.map_or(snap, |p| p.merge(snap)));
            }
        }
        match pool {
            Some(snap) if snap.count as usize >= gate => (snap.mean, snap.scv()),
            _ => (f64::NAN, f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redundancy::planner::WorkloadProfile;

    fn per_server(min_samples: usize, recalibrate: usize) -> FrontendCore {
        let planner = Planner::new(WorkloadProfile {
            mean_service: 1.0,
            scv: 1.0,
            client_overhead: 0.0,
        });
        let moments = MomentSource::Estimated {
            window: 64,
            min_samples,
            recalibrate,
        };
        FrontendCore::new(LoadModel::PerServer, 8, &moments, 4, 1, planner, 0.05)
    }

    #[test]
    fn recalibrates_on_the_cadence_only_once_the_gate_is_met() {
        let mut core = per_server(16, 4);
        // The cadence fires at 4, 8 and 12 observations, all below the gate.
        for i in 0..15 {
            core.observe_demand(1.0 + (i % 3) as f64);
        }
        assert_eq!(core.recalibrations(), 0);
        core.observe_demand(1.0);
        assert_eq!(core.recalibrations(), 1);
    }

    #[test]
    fn cold_candidates_read_the_cold_load() {
        let mut core = per_server(16, 4);
        assert_eq!(core.cluster_load(2, 4), None);
        // 0.05 sits far below the exponential threshold (~1/3).
        assert!(core.decide(0.0, &[0, 1], 4));
        assert_eq!(core.cluster_load(2, 4), None);
    }
}
