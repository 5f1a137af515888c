//! The benchmark's own load generator: a seeded random stream, Poisson arrival
//! schedules, Zipf popularity, and the protocol lines of the `serve-*` mixes.
//!
//! Everything here is a pure function of the seed, so a run's inputs can be
//! regenerated exactly from the `--seed` it was given.

use urs_core::ServerLifecycle;
use urs_dist::HyperExponential;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.unit()
    }

    /// Uniform integer in `low..=high`.
    pub fn int(&mut self, low: usize, high: usize) -> usize {
        low + (self.next_u64() % (high - low + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.int(0, i));
        }
    }
}

/// Send times (seconds from the start of the phase) of a Poisson stream with
/// exactly `count` arrivals in `seconds`: the arrival times of a Poisson process
/// conditioned on its count are sorted uniform draws.  Fixing the count keeps
/// every seed's phase the same size.
pub fn poisson_arrivals(rng: &mut Rng, count: usize, seconds: f64) -> Vec<f64> {
    let mut times: Vec<f64> = (0..count).map(|_| rng.uniform(0.0, seconds)).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Zipf popularity over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The three lifecycle forms of the protocol, each with a few parameter values
/// so solves spread over several QBD skeletons without outgrowing the skeleton
/// cache.
fn lifecycle(rng: &mut Rng) -> (String, f64) {
    match rng.int(0, 2) {
        0 => {
            let availability =
                ServerLifecycle::paper_fitted().expect("paper lifecycle is valid").availability();
            ("\"paper\"".to_string(), availability)
        }
        1 => {
            let xi = [0.05, 0.1, 0.15, 0.2][rng.int(0, 3)];
            let eta = 2.0;
            let availability =
                ServerLifecycle::exponential(xi, eta).expect("valid rates").availability();
            (format!("{{\"breakdown_rate\":{xi},\"repair_rate\":{eta}}}"), availability)
        }
        _ => {
            let scv = [2.0, 4.6][rng.int(0, 1)];
            let operative =
                HyperExponential::with_mean_and_scv(34.62, scv).expect("scv >= 1 by construction");
            let availability = ServerLifecycle::with_exponential_repair(operative, 0.2)
                .expect("valid repair rate")
                .availability();
            (
                format!("{{\"operative_mean\":34.62,\"operative_scv\":{scv},\"repair_rate\":0.2}}"),
                availability,
            )
        }
    }
}

/// A configuration of `servers` servers at utilisation drawn from 0.3..0.95; λ
/// is continuous, so no two generated configurations coincide.
fn config(rng: &mut Rng, servers: usize) -> String {
    let (lifecycle, availability) = lifecycle(rng);
    let rho = rng.uniform(0.3, 0.95);
    let lambda = rho * servers as f64 * availability;
    format!(
        "{{\"servers\":{servers},\"arrival_rate\":{lambda},\"service_rate\":1.0,\
         \"lifecycle\":{lifecycle}}}"
    )
}

/// One query of the `serve-fresh` mix (shares in percent): solve 79.8,
/// cost_sweep 8, provisioning 6, percentiles 4, sla_sweep 2, mix_search 0.2.
pub fn fresh_query(rng: &mut Rng) -> String {
    let u = rng.unit() * 100.0;
    if u < 8.0 {
        let min = rng.int(3, 7);
        format!(
            "{{\"type\":\"cost_sweep\",\"config\":{},\"holding_cost\":4.0,\"server_cost\":1.0,\
             \"min_servers\":{min},\"max_servers\":{}}}",
            config(rng, min),
            min + 3
        )
    } else if u < 14.0 {
        let min = rng.int(3, 7);
        format!(
            "{{\"type\":\"provisioning\",\"config\":{},\"min_servers\":{min},\"max_servers\":{}}}",
            config(rng, min),
            min + 3
        )
    } else if u < 18.0 {
        let servers = rng.int(3, 6);
        format!(
            "{{\"type\":\"percentiles\",\"config\":{},\"fractions\":[0.5,0.95,0.99]}}",
            config(rng, servers)
        )
    } else if u < 20.0 {
        let servers = rng.int(3, 5);
        format!(
            "{{\"type\":\"sla_sweep\",\"config\":{},\"server_counts\":[{servers},{}],\
             \"fractions\":[0.9]}}",
            config(rng, servers),
            servers + 1
        )
    } else if u < 20.2 {
        let lambda = rng.uniform(1.0, 2.0);
        format!(
            "{{\"type\":\"mix_search\",\"arrival_rate\":{lambda},\"holding_cost\":4.0,\
             \"classes\":[{{\"service_rate\":1.0,\"cost\":1.0,\"lifecycle\":\"paper\"}},\
             {{\"service_rate\":1.5,\"cost\":1.2,\"lifecycle\":{{\"breakdown_rate\":0.1,\
             \"repair_rate\":2.0}}}}],\"min_servers\":2,\"max_servers\":4}}"
        )
    } else {
        let servers = rng.int(3, 10);
        format!("{{\"type\":\"solve\",\"config\":{}}}", config(rng, servers))
    }
}

/// The protocol type of a generated line (the value of its `"type"` member).
pub fn query_type(line: &str) -> &str {
    line.strip_prefix("{\"type\":\"").and_then(|rest| rest.split('"').next()).unwrap_or("unknown")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_repeat_under_a_fixed_seed_and_spread_evenly() {
        let a = poisson_arrivals(&mut Rng::new(7), 5000, 50.0);
        assert_eq!(a, poisson_arrivals(&mut Rng::new(7), 5000, 50.0));
        assert_ne!(a, poisson_arrivals(&mut Rng::new(8), 5000, 50.0));
        assert_eq!(a.len(), 5000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..50.0).contains(&t)));
        // Exponential gaps: the mean gap is 1/rate and about 1/e of gaps exceed it.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > mean).count() as f64 / gaps.len() as f64;
        assert!((long - (-1f64).exp()).abs() < 0.03, "share of long gaps {long}");
    }

    #[test]
    fn zipf_draws_repeat_under_a_fixed_seed_and_favour_low_ranks() {
        let zipf = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..5000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&k| k < 1000));
        let top = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        // P(rank 0) = 1 / H_1000 ≈ 0.134.
        assert!((top - 0.134).abs() < 0.02, "rank-0 share {top}");
    }

    #[test]
    fn generated_lines_repeat_under_a_fixed_seed_and_parse() {
        let lines = |seed| {
            let mut rng = Rng::new(seed);
            (0..500).map(|_| fresh_query(&mut rng)).collect::<Vec<_>>()
        };
        let a = lines(11);
        assert_eq!(a, lines(11));
        for line in &a {
            urs_core::Query::parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let solves = a.iter().filter(|l| query_type(l) == "solve").count();
        assert!((350..450).contains(&solves), "{solves} solves of 500");
    }
}
