//! Seeded randomized query workloads with zipf-skewed probe ids.
//!
//! A [`Workload`] is a pure function `(seed, index) → Request`: request
//! `i` is derived from `splitmix64(seed, i)` alone, so any number of
//! worker threads can partition the index space (`i % threads == worker`)
//! and every partitioning replays the exact same request sequence. Probe
//! picks are zipf(s=1.0)-skewed over the probe list — a heavy head of hot
//! probes and a long cold tail, the shape that actually exercises an LRU —
//! while AS/country picks are uniform over the observed universes.

use crate::proto::Request;
use dynaddr_types::{Asn, ProbeId};

// The workload's callers, `perfbench/harness` among them, import the
// mixer from here.
pub use dynaddr_types::rng::splitmix64;

/// A deterministic query workload over a fixed operand universe.
pub struct Workload {
    seed: u64,
    probes: Vec<u32>,
    /// Zipf cumulative weights over `probes` (same length), normalized to
    /// end at 1.0.
    cum: Vec<f64>,
    asns: Vec<u32>,
    countries: Vec<String>,
    /// Whether ProbeTruth requests are worth issuing (a truth.store is
    /// loaded on the answering side). When false that mix share falls
    /// back to ProbeRecords so local and remote workloads stay aligned.
    truth_available: bool,
}

impl Workload {
    /// Builds the workload universe. `probes`/`asns`/`countries` must be
    /// identical on every side that replays the workload (derive them from
    /// the same [`crate::index::StatsIndex`]).
    pub fn new(
        seed: u64,
        probes: Vec<u32>,
        asns: Vec<u32>,
        countries: Vec<String>,
        truth_available: bool,
    ) -> Workload {
        // Zipf s=1.0 over list position: rank r gets weight 1/(r+1).
        let mut cum = Vec::with_capacity(probes.len());
        let mut total = 0.0f64;
        for r in 0..probes.len() {
            total += 1.0 / (r as f64 + 1.0);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Workload {
            seed,
            probes,
            cum,
            asns,
            countries,
            truth_available,
        }
    }

    /// A zipf-skewed probe pick from a uniform `u64` draw.
    fn zipf_probe(&self, draw: u64) -> u32 {
        // 53 uniform bits → [0, 1); binary search the cumulative weights.
        let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
        let i = self
            .cum
            .partition_point(|&c| c <= u)
            .min(self.probes.len() - 1);
        self.probes[i]
    }

    /// The `i`-th request of the workload. Pure in `(seed, i)`.
    pub fn request(&self, i: u64) -> Request {
        if self.probes.is_empty() {
            return Request::Ping;
        }
        let r0 = splitmix64(self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let r1 = splitmix64(r0);
        let pick = r0 % 100;
        if pick < 55 {
            Request::ProbeSeries(ProbeId(self.zipf_probe(r1)))
        } else if pick < 80 {
            Request::ProbeRecords(ProbeId(self.zipf_probe(r1)))
        } else if pick < 88 && !self.asns.is_empty() {
            Request::AsSummary(Asn(self.asns[(r1 % self.asns.len() as u64) as usize]))
        } else if pick < 94 && !self.countries.is_empty() {
            Request::CountrySummary(
                self.countries[(r1 % self.countries.len() as u64) as usize].clone(),
            )
        } else if pick < 97 {
            Request::TopMovers(1 + (r1 % 25) as u32)
        } else if self.truth_available {
            Request::ProbeTruth(ProbeId(self.zipf_probe(r1)))
        } else {
            Request::ProbeRecords(ProbeId(self.zipf_probe(r1)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Workload {
        Workload::new(
            42,
            (0..100).collect(),
            vec![64500, 64501],
            vec!["DE".into(), "US".into()],
            true,
        )
    }

    #[test]
    fn requests_are_pure_in_seed_and_index() {
        let a = sample();
        let b = sample();
        for i in 0..500 {
            assert_eq!(a.request(i), b.request(i));
        }
        let c = Workload::new(
            43,
            (0..100).collect(),
            vec![64500, 64501],
            vec!["DE".into(), "US".into()],
            true,
        );
        assert!(
            (0..500).any(|i| a.request(i) != c.request(i)),
            "seed must matter"
        );
    }

    #[test]
    fn zipf_head_is_hot() {
        let w = sample();
        let mut head = 0usize;
        let mut total = 0usize;
        for i in 0..20_000 {
            if let Request::ProbeSeries(p) | Request::ProbeRecords(p) = w.request(i) {
                total += 1;
                if p.0 < 10 {
                    head += 1;
                }
            }
        }
        // Under zipf(1.0) over 100 ranks the top-10 mass is ~56%; uniform
        // would be 10%. Assert it is clearly skewed.
        assert!(total > 10_000);
        assert!(
            head as f64 / total as f64 > 0.4,
            "top-10 probes got only {head}/{total} of probe picks"
        );
    }

    #[test]
    fn empty_universe_degrades_to_ping() {
        let w = Workload::new(1, Vec::new(), Vec::new(), Vec::new(), false);
        assert_eq!(w.request(0), Request::Ping);
    }
}
