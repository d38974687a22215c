//! Sampling distributions for the simulator.
//!
//! Outage processes in the world model need: exponential inter-arrival times
//! (Poisson arrivals), log-normal and Pareto durations (short reboots plus a
//! heavy tail of long outages), and finite mixtures of those. We implement
//! the samplers directly from `rand`'s uniform source rather than pulling in
//! `rand_distr`, keeping the dependency set to the approved list; each
//! sampler is a few lines of inverse-CDF or Box–Muller math and is unit- and
//! property-tested below.

use crate::time::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A continuous distribution over non-negative durations (seconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DurationDist {
    /// Every sample equals the given number of seconds.
    Constant(f64),
    /// Uniform over `[lo, hi]` seconds.
    Uniform {
        /// Lower bound, seconds.
        lo: f64,
        /// Upper bound, seconds.
        hi: f64,
    },
    /// Exponential with the given mean (seconds).
    Exponential {
        /// Mean of the distribution, seconds.
        mean: f64,
    },
    /// Log-normal with location `mu` and scale `sigma` of the underlying
    /// normal (natural-log parameterization; the median is `exp(mu)`).
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Pareto with scale `xm` (minimum value, seconds) and shape `alpha`.
    Pareto {
        /// Minimum value (scale), seconds.
        xm: f64,
        /// Tail index; smaller is heavier.
        alpha: f64,
    },
    /// Finite mixture: each component is picked with the paired weight.
    Mixture(Vec<(f64, DurationDist)>),
}

impl DurationDist {
    /// Draws one sample, clamped to be non-negative.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let v = match self {
            DurationDist::Constant(c) => *c,
            DurationDist::Uniform { lo, hi } => {
                if hi > lo {
                    rng.gen_range(*lo..*hi)
                } else {
                    *lo
                }
            }
            DurationDist::Exponential { mean } => {
                // Inverse CDF: -mean * ln(1-U); 1-U avoids ln(0).
                let u: f64 = rng.gen::<f64>();
                -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
            }
            DurationDist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            DurationDist::Pareto { xm, alpha } => {
                let u: f64 = rng.gen::<f64>();
                xm / (1.0 - u).max(f64::MIN_POSITIVE).powf(1.0 / alpha)
            }
            DurationDist::Mixture(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| *w).sum();
                let mut pick = rng.gen::<f64>() * total;
                for (w, d) in parts {
                    if pick < *w {
                        return d.sample(rng).max(0.0);
                    }
                    pick -= w;
                }
                // Floating-point slack: fall through to the last component.
                parts.last().map(|(_, d)| d.sample(rng)).unwrap_or(0.0)
            }
        };
        v.max(0.0)
    }

    /// Draws one sample as a [`SimDuration`] (whole seconds, rounded).
    pub fn sample_duration<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        SimDuration::from_secs(self.sample(rng).round() as i64)
    }

    /// Analytic mean where tractable; `None` for heavy tails with α ≤ 1.
    pub fn mean(&self) -> Option<f64> {
        match self {
            DurationDist::Constant(c) => Some(*c),
            DurationDist::Uniform { lo, hi } => Some((lo + hi) / 2.0),
            DurationDist::Exponential { mean } => Some(*mean),
            DurationDist::LogNormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
            DurationDist::Pareto { xm, alpha } => {
                (*alpha > 1.0).then(|| alpha * xm / (alpha - 1.0))
            }
            DurationDist::Mixture(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| *w).sum();
                let mut acc = 0.0;
                for (w, d) in parts {
                    acc += w / total * d.mean()?;
                }
                Some(acc)
            }
        }
    }
}

/// One draw from N(0,1) via Box–Muller (the cos branch).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples an exponential inter-arrival gap for a Poisson process with the
/// given mean rate (events per second). Returns `None` when the rate is
/// non-positive, i.e. the process never fires.
pub fn poisson_gap<R: Rng + ?Sized>(rng: &mut R, rate_per_sec: f64) -> Option<SimDuration> {
    if rate_per_sec <= 0.0 {
        return None;
    }
    let d = DurationDist::Exponential {
        mean: 1.0 / rate_per_sec,
    };
    Some(d.sample_duration(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(0xD15)
    }

    fn sample_mean(d: &DurationDist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = DurationDist::Constant(300.0);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 300.0);
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let d = DurationDist::Uniform { lo: 10.0, hi: 20.0 };
        let mut r = rng();
        for _ in 0..1000 {
            let v = d.sample(&mut r);
            assert!((10.0..20.0).contains(&v));
        }
    }

    #[test]
    fn degenerate_uniform() {
        let d = DurationDist::Uniform { lo: 5.0, hi: 5.0 };
        assert_eq!(d.sample(&mut rng()), 5.0);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = DurationDist::Exponential { mean: 120.0 };
        let m = sample_mean(&d, 50_000);
        assert!((m - 120.0).abs() < 5.0, "mean {m}");
    }

    #[test]
    fn lognormal_mean_converges() {
        let d = DurationDist::LogNormal {
            mu: 4.0,
            sigma: 0.5,
        };
        let expected = d.mean().unwrap();
        let m = sample_mean(&d, 100_000);
        assert!(
            (m - expected).abs() / expected < 0.05,
            "mean {m} vs {expected}"
        );
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let d = DurationDist::Pareto {
            xm: 60.0,
            alpha: 1.5,
        };
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) >= 60.0);
        }
    }

    #[test]
    fn pareto_mean_none_for_heavy_tail() {
        assert!(DurationDist::Pareto {
            xm: 1.0,
            alpha: 0.9
        }
        .mean()
        .is_none());
        assert!(DurationDist::Pareto {
            xm: 1.0,
            alpha: 2.0
        }
        .mean()
        .is_some());
    }

    #[test]
    fn mixture_weights_respected() {
        let d = DurationDist::Mixture(vec![
            (0.75, DurationDist::Constant(1.0)),
            (0.25, DurationDist::Constant(100.0)),
        ]);
        let mut r = rng();
        let n = 40_000;
        let hits = (0..n).filter(|_| d.sample(&mut r) > 50.0).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "mixture fraction {frac}");
        let mean = d.mean().unwrap();
        assert!((mean - (0.75 + 25.0)).abs() < 1e-9);
    }

    #[test]
    fn samples_never_negative() {
        let dists = [
            DurationDist::Constant(-5.0),
            DurationDist::LogNormal {
                mu: -3.0,
                sigma: 2.0,
            },
            DurationDist::Exponential { mean: 1.0 },
        ];
        let mut r = rng();
        for d in &dists {
            for _ in 0..200 {
                assert!(d.sample(&mut r) >= 0.0);
            }
        }
    }

    #[test]
    fn poisson_gap_mean() {
        let mut r = rng();
        let rate = 1.0 / 3600.0; // one per hour
        let n = 20_000;
        let total: i64 = (0..n)
            .map(|_| poisson_gap(&mut r, rate).unwrap().secs())
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3600.0).abs() < 100.0, "mean gap {mean}");
        assert!(poisson_gap(&mut r, 0.0).is_none());
        assert!(poisson_gap(&mut r, -1.0).is_none());
    }
}
