//! Seeded request sequences for the query workloads.
//!
//! Request `i` of connection `c` is a pure function of `(seed, c, i)` and
//! the operand universe, so a run can be replayed exactly: by the load
//! generator against `queryd`, by the in-process replica in the traced
//! run, and by the oracle check. The mix is 55/25/8/6/3/3 across
//! ProbeSeries, ProbeRecords, AsSummary, CountrySummary, TopMovers and
//! ProbeTruth; probe picks are zipf(1.0) over a seeded permutation of the
//! probe ids (`Skew::Zipf`) or uniform (`Skew::Uniform`).
//!
//! Under zipf(1.0) over ~10k probes the hottest probe draws ~10% of all
//! probe picks, so one permutation makes a run's cost hinge on a handful
//! of probes: two seeds differed by 25% in throughput and 14% in `queryd`
//! peak memory. The permutation is therefore redrawn every [`PHASE`]
//! requests (from the seed and the phase number, shared by all
//! connections), and a run of a few seconds averages over many hot sets.

use dynaddr_query::workload::splitmix64;
use dynaddr_query::{proto, Request, StatsIndex};
use dynaddr_types::{Asn, ProbeId};
use std::collections::HashSet;

/// How probe operands are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// zipf(1.0) over a seeded permutation of the probe ids.
    Zipf,
    /// Every probe equally likely.
    Uniform,
}

/// The operands requests are drawn from.
#[derive(Debug, Clone)]
pub struct Universe {
    /// Probe ids, ascending.
    pub probes: Vec<u32>,
    /// AS numbers with at least one mapped probe.
    pub asns: Vec<u32>,
    /// Country codes with at least one registered probe.
    pub countries: Vec<String>,
}

/// Requests per connection between redraws of the zipf permutation.
pub const PHASE: u64 = 8192;

/// A request generator over one universe.
pub struct Traffic {
    seed: u64,
    skew: Skew,
    /// Zipf cumulative weights over popularity ranks, ending at 1.0.
    cum: Vec<f64>,
    universe: Universe,
}

impl Traffic {
    /// A generator for `seed`.
    pub fn new(seed: u64, skew: Skew, universe: Universe) -> Traffic {
        assert!(!universe.probes.is_empty(), "a query workload needs probes");
        let mut cum = Vec::with_capacity(universe.probes.len());
        let mut total = 0.0f64;
        for r in 0..universe.probes.len() {
            total += 1.0 / (r as f64 + 1.0);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Traffic {
            seed,
            skew,
            cum,
            universe,
        }
    }

    /// Probe ids in popularity order (rank 0 hottest) during `phase`.
    pub fn ranking(&self, phase: u64) -> Vec<u32> {
        let mut ranked = self.universe.probes.clone();
        let mut state = splitmix64(self.seed ^ splitmix64(0x005E_ED0F_9E41 ^ phase));
        for i in (1..ranked.len()).rev() {
            state = splitmix64(state);
            ranked.swap(i, (state % (i as u64 + 1)) as usize);
        }
        ranked
    }

    fn probe(&self, ranked: &[u32], draw: u64) -> ProbeId {
        let n = ranked.len();
        ProbeId(match self.skew {
            Skew::Uniform => ranked[(draw % n as u64) as usize],
            Skew::Zipf => {
                let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
                ranked[self.cum.partition_point(|&c| c <= u).min(n - 1)]
            }
        })
    }

    /// Request `i` of connection `conn`, given the phase's ranking.
    fn request(&self, ranked: &[u32], conn: u64, i: u64) -> Request {
        let r0 = splitmix64(self.seed ^ splitmix64(conn.wrapping_add(1) << 40 ^ i));
        let r1 = splitmix64(r0);
        let u = &self.universe;
        match r0 % 100 {
            0..=54 => Request::ProbeSeries(self.probe(ranked, r1)),
            55..=79 => Request::ProbeRecords(self.probe(ranked, r1)),
            80..=87 if !u.asns.is_empty() => {
                Request::AsSummary(Asn(u.asns[(r1 % u.asns.len() as u64) as usize]))
            }
            88..=93 if !u.countries.is_empty() => Request::CountrySummary(
                u.countries[(r1 % u.countries.len() as u64) as usize].clone(),
            ),
            94..=96 => Request::TopMovers(1 + (r1 % 25) as u32),
            97..=99 => Request::ProbeTruth(self.probe(ranked, r1)),
            _ => Request::ProbeRecords(self.probe(ranked, r1)),
        }
    }

    /// The first `count` requests of connection `conn`.
    pub fn sequence(&self, conn: u64, count: usize) -> Vec<Request> {
        let mut out = Vec::with_capacity(count);
        let mut ranked = Vec::new();
        for i in 0..count as u64 {
            if i % PHASE == 0 && (i == 0 || self.skew == Skew::Zipf) {
                ranked = self.ranking(i / PHASE);
            }
            out.push(self.request(&ranked, conn, i));
        }
        out
    }
}

impl Universe {
    /// The operands of a store's secondary indexes (the same for the
    /// engine, its replica and the oracle).
    pub fn of(stats: &StatsIndex) -> Universe {
        Universe {
            probes: stats.probes(),
            asns: stats.asns(),
            countries: stats.countries(),
        }
    }
}

/// `ProbeRecords` for every probe: one pass decodes every segment of every
/// table, which fills a cache large enough to hold the store.
pub fn records_sweep(probes: &[u32]) -> Vec<Request> {
    probes
        .iter()
        .map(|&p| Request::ProbeRecords(ProbeId(p)))
        .collect()
}

/// The probe a request names, if any.
pub fn probe_of(req: &Request) -> Option<u32> {
    match req {
        Request::ProbeSeries(p)
        | Request::ProbeRecords(p)
        | Request::ProbeTruth(p)
        | Request::DaemonProbe(p) => Some(p.0),
        _ => None,
    }
}

/// Length-prefixed wire frames for `reqs`, laid end to end, plus the start
/// offset of each frame (and a final end offset). Encoding happens once,
/// before any timing, so the generator's loop does no formatting.
pub fn encode_frames(reqs: &[Request]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut offsets = Vec::with_capacity(reqs.len() + 1);
    for r in reqs {
        offsets.push(buf.len());
        let body = proto::to_bytes(r);
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
    }
    offsets.push(buf.len());
    (buf, offsets)
}

/// Share of probe-naming requests whose probe was already named by an
/// earlier request, walking the connections' sequences round-robin up to
/// `done[c]` requests each (the order they were issued in, near enough).
pub fn repeat_share(seqs: &[Vec<Request>], done: &[usize]) -> f64 {
    let mut seen = HashSet::new();
    let (mut named, mut repeats) = (0u64, 0u64);
    let longest = done.iter().copied().max().unwrap_or(0);
    for i in 0..longest {
        for (c, seq) in seqs.iter().enumerate() {
            if i >= done[c] {
                continue;
            }
            if let Some(p) = probe_of(&seq[i]) {
                named += 1;
                if !seen.insert(p) {
                    repeats += 1;
                }
            }
        }
    }
    if named == 0 {
        0.0
    } else {
        repeats as f64 / named as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        Universe {
            probes: (1000..3000).collect(),
            asns: vec![64500, 64501, 64502],
            countries: vec!["DE".into(), "NL".into(), "US".into()],
        }
    }

    #[test]
    fn a_seed_fixes_the_request_sequence() {
        for skew in [Skew::Zipf, Skew::Uniform] {
            let a = Traffic::new(7, skew, universe());
            let b = Traffic::new(7, skew, universe());
            for conn in 0..2 {
                assert_eq!(a.sequence(conn, 2000), b.sequence(conn, 2000));
            }
            assert_eq!(
                encode_frames(&a.sequence(1, 500)),
                encode_frames(&b.sequence(1, 500))
            );
        }
    }

    #[test]
    fn a_different_seed_changes_the_sequence_and_the_hot_set() {
        let a = Traffic::new(7, Skew::Zipf, universe());
        let b = Traffic::new(8, Skew::Zipf, universe());
        let (sa, sb) = (a.sequence(0, 2000), b.sequence(0, 2000));
        let differing = sa.iter().zip(&sb).filter(|(x, y)| x != y).count();
        assert!(
            differing > 1500,
            "only {differing} of 2000 requests changed"
        );
        assert_ne!(
            a.ranking(0)[..10],
            b.ranking(0)[..10],
            "the seed must pick the hot probes"
        );
    }

    #[test]
    fn the_hot_set_changes_every_phase_for_every_connection_alike() {
        let t = Traffic::new(7, Skew::Zipf, universe());
        assert_eq!(t.ranking(3), t.ranking(3));
        assert_ne!(t.ranking(0)[..10], t.ranking(1)[..10]);
        let n = 3 * PHASE as usize;
        let hottest = |seq: &[Request], phase: usize| {
            let mut counts = std::collections::HashMap::new();
            for r in &seq[phase * PHASE as usize..(phase + 1) * PHASE as usize] {
                if let Some(p) = probe_of(r) {
                    *counts.entry(p).or_insert(0) += 1;
                }
            }
            counts
                .into_iter()
                .max_by_key(|&(p, c)| (c, p))
                .map(|(p, _)| p)
        };
        let (c0, c1) = (t.sequence(0, n), t.sequence(1, n));
        for phase in 0..3 {
            assert_eq!(hottest(&c0, phase), Some(t.ranking(phase as u64)[0]));
            assert_eq!(hottest(&c1, phase), Some(t.ranking(phase as u64)[0]));
        }
    }

    #[test]
    fn connections_get_distinct_streams() {
        let t = Traffic::new(3, Skew::Uniform, universe());
        assert_ne!(t.sequence(0, 100), t.sequence(1, 100));
    }

    #[test]
    fn mix_matches_the_documented_shares() {
        let t = Traffic::new(11, Skew::Zipf, universe());
        let n = 100_000usize;
        let mut counts = [0usize; 6];
        for r in t.sequence(0, n) {
            counts[match r {
                Request::ProbeSeries(_) => 0,
                Request::ProbeRecords(_) => 1,
                Request::AsSummary(_) => 2,
                Request::CountrySummary(_) => 3,
                Request::TopMovers(_) => 4,
                Request::ProbeTruth(_) => 5,
                other => panic!("unexpected request {other:?}"),
            }] += 1;
        }
        for (got, want) in counts.iter().zip([55.0, 25.0, 8.0, 6.0, 3.0, 3.0]) {
            let pct = *got as f64 * 100.0 / n as f64;
            assert!((pct - want).abs() < 0.6, "share {pct:.2}% vs {want}%");
        }
    }

    #[test]
    fn zipf_repeats_far_more_than_uniform() {
        let hot = Traffic::new(5, Skew::Zipf, universe());
        let cold = Traffic::new(5, Skew::Uniform, universe());
        let n = 4000;
        let hs = [hot.sequence(0, n), hot.sequence(1, n)];
        let cs = [cold.sequence(0, n), cold.sequence(1, n)];
        let (h, c) = (repeat_share(&hs, &[n, n]), repeat_share(&cs, &[n, n]));
        assert!(h > 0.8 && c < h, "zipf repeat share {h:.3}, uniform {c:.3}");
        assert_eq!(repeat_share(&hs, &[0, 0]), 0.0);
    }

    #[test]
    fn frames_are_length_prefixed_requests() {
        let reqs = vec![Request::Ping, Request::TopMovers(3)];
        let (buf, offs) = encode_frames(&reqs);
        assert_eq!(offs.len(), 3);
        for (i, r) in reqs.iter().enumerate() {
            let frame = &buf[offs[i]..offs[i + 1]];
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len, frame.len() - 4);
            assert_eq!(&proto::from_bytes::<Request>(&frame[4..]).unwrap(), r);
        }
    }
}
