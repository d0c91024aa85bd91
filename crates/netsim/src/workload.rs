//! Datacenter flow workload: Poisson arrivals, skewed empirical sizes.
//!
//! The paper: "Flow arrivals are Poisson, and flow sizes are distributed
//! according to a standard data center workload [Benson et al., IMC 2010],
//! with flow sizes varying from 1 KB to 3 MB and with more than 80 % of
//! the flows being less than 10 KB" — while "the majority of the traffic
//! volume … comes from a small number of large elephant flows".
//!
//! [`FlowSizeDist`] is a piecewise log-linear fit to that description: the
//! CDF is linear in log-size between anchor points, which is how such
//! traces are usually redistributed. The anchors below give 82 % of flows
//! under 10 KB while elephants (≥ 1 MB, ~1.6 % of flows) carry roughly half
//! the bytes.

use simcore::rng::Rng;

/// Piecewise log-linear flow-size distribution on [1 KB, 3 MB].
#[derive(Clone, Debug)]
pub struct FlowSizeDist {
    /// `(size_bytes, cumulative_probability)` anchors, strictly increasing
    /// in both coordinates, first probability 0, last 1.
    anchors: Vec<(f64, f64)>,
}

impl Default for FlowSizeDist {
    fn default() -> Self {
        FlowSizeDist::new(vec![
            (1.0e3, 0.00),
            (2.0e3, 0.30),
            (4.0e3, 0.53),
            (7.0e3, 0.72),
            (10.0e3, 0.82),
            (20.0e3, 0.875),
            (50.0e3, 0.92),
            (100.0e3, 0.95),
            (300.0e3, 0.973),
            (1.0e6, 0.984),
            (3.0e6, 1.00),
        ])
    }
}

impl FlowSizeDist {
    /// Builds from explicit anchors.
    ///
    /// # Panics
    /// Panics unless sizes and probabilities are strictly increasing, the
    /// first probability is 0 and the last is 1.
    pub fn new(anchors: Vec<(f64, f64)>) -> Self {
        assert!(anchors.len() >= 2);
        assert_eq!(anchors.first().unwrap().1, 0.0);
        assert_eq!(anchors.last().unwrap().1, 1.0);
        for w in anchors.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1, "anchors must increase");
        }
        FlowSizeDist { anchors }
    }

    /// Draws one flow size in bytes (inverse-CDF, log-linear interpolation).
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        let i = self
            .anchors
            .partition_point(|&(_, p)| p <= u)
            .clamp(1, self.anchors.len() - 1);
        let (s0, p0) = self.anchors[i - 1];
        let (s1, p1) = self.anchors[i];
        let frac = (u - p0) / (p1 - p0);
        let ln = s0.ln() + frac * (s1.ln() - s0.ln());
        ln.exp().round().max(1.0) as u64
    }

    /// Mean flow size in bytes (numerically, from the closed-form segment
    /// means of the log-linear CDF).
    pub fn mean_bytes(&self) -> f64 {
        // Within a segment, size = s0 * (s1/s0)^((u-p0)/(p1-p0)) for
        // uniform u: mean contribution = (p1-p0) * (s1-s0)/ln(s1/s0)
        // (log-mean of the endpoints).
        self.anchors
            .windows(2)
            .map(|w| {
                let (s0, p0) = w[0];
                let (s1, p1) = w[1];
                (p1 - p0) * (s1 - s0) / (s1 / s0).ln()
            })
            .sum()
    }

    /// Fraction of flows strictly smaller than `bytes`.
    pub fn fraction_below(&self, bytes: f64) -> f64 {
        if bytes <= self.anchors[0].0 {
            return 0.0;
        }
        if bytes >= self.anchors.last().unwrap().0 {
            return 1.0;
        }
        let i = self
            .anchors
            .partition_point(|&(s, _)| s < bytes)
            .clamp(1, self.anchors.len() - 1);
        let (s0, p0) = self.anchors[i - 1];
        let (s1, p1) = self.anchors[i];
        p0 + (p1 - p0) * (bytes.ln() - s0.ln()) / (s1.ln() - s0.ln())
    }
}

/// A generated flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Arrival time, seconds.
    pub start: f64,
    /// Source host.
    pub src: u32,
    /// Destination host (≠ src).
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
}

/// Generates `n` Poisson flow arrivals at total rate `lambda`, with
/// uniformly random distinct (src, dst) pairs over `hosts` and sizes from
/// `dist`. The flows are returned in start-time order.
pub fn generate_flows(
    n: usize,
    lambda: f64,
    hosts: usize,
    dist: &FlowSizeDist,
    rng: &mut Rng,
) -> Vec<FlowSpec> {
    assert!(hosts >= 2 && lambda > 0.0);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exponential(lambda);
            let src = rng.index(hosts) as u32;
            let mut dst = rng.index(hosts - 1) as u32;
            if dst >= src {
                dst += 1;
            }
            FlowSpec {
                start: t,
                src,
                dst,
                bytes: dist.sample(rng),
            }
        })
        .collect()
}

/// Arrival rate (flows/second, whole fabric) that offers `load` fraction of
/// every host's access-link capacity on average.
pub fn arrival_rate_for_load(
    load: f64,
    hosts: usize,
    link_rate_bytes_per_sec: f64,
    dist: &FlowSizeDist,
) -> f64 {
    assert!(load > 0.0);
    load * hosts as f64 * link_rate_bytes_per_sec / dist.mean_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_constraints() {
        let d = FlowSizeDist::default();
        // >80% of flows below 10 KB.
        assert!(d.fraction_below(10.0e3) >= 0.80);
        // Sizes span 1 KB .. 3 MB.
        let mut rng = Rng::seed_from(1);
        for _ in 0..100_000 {
            let s = d.sample(&mut rng);
            assert!((1000..=3_000_000).contains(&s), "size {s} out of range");
        }
    }

    #[test]
    fn elephants_carry_most_bytes() {
        let d = FlowSizeDist::default();
        let mut rng = Rng::seed_from(2);
        let mut total = 0u64;
        let mut elephant = 0u64;
        for _ in 0..200_000 {
            let s = d.sample(&mut rng);
            total += s;
            if s >= 1_000_000 {
                elephant += s;
            }
        }
        let frac = elephant as f64 / total as f64;
        assert!(
            frac > 0.35,
            "elephants should dominate bytes, got {frac:.2}"
        );
    }

    #[test]
    fn mean_matches_samples() {
        let d = FlowSizeDist::default();
        let mut rng = Rng::seed_from(3);
        let n = 400_000;
        let avg = (0..n).map(|_| d.sample(&mut rng)).sum::<u64>() as f64 / n as f64;
        let mean = d.mean_bytes();
        assert!(
            (avg - mean).abs() / mean < 0.03,
            "sampled {avg} vs analytic {mean}"
        );
    }

    #[test]
    fn flow_generation_is_poisson_and_valid() {
        let d = FlowSizeDist::default();
        let mut rng = Rng::seed_from(4);
        let flows = generate_flows(50_000, 1000.0, 54, &d, &mut rng);
        // Interarrival mean ~ 1/lambda.
        let span = flows.last().unwrap().start - flows[0].start;
        let mean_gap = span / (flows.len() - 1) as f64;
        assert!((mean_gap - 1e-3).abs() < 5e-5, "gap {mean_gap}");
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(f.src < 54 && f.dst < 54);
        }
    }

    #[test]
    fn load_calibration() {
        let d = FlowSizeDist::default();
        // At load 0.4 on 54 hosts with 625 MB/s links, offered bytes/s
        // should equal 0.4 * 54 * 625e6.
        let lambda = arrival_rate_for_load(0.4, 54, 625e6, &d);
        let offered = lambda * d.mean_bytes();
        assert!((offered - 0.4 * 54.0 * 625e6).abs() / offered < 1e-9);
    }

    #[test]
    #[should_panic(expected = "increase")]
    fn bad_anchors_panic() {
        let _ = FlowSizeDist::new(vec![(1e3, 0.0), (1e3, 1.0)]);
    }
}
