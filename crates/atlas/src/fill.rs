//! Procedural generation of *filler* probes — the populations Table 2
//! filters away before analysis.
//!
//! These probes do not need event-level fidelity; they need connection logs
//! whose *shape* triggers the right filter:
//!
//! * **never-changed** — one IPv4 address all year;
//! * **dual-stack** — connections alternating between IPv4 and IPv6 peers;
//! * **IPv6-only** — only IPv6 peers;
//! * **tagged** — carry `multihomed`/`datacentre`/`core` tags; a fraction
//!   also behave multihomed;
//! * **alternating** — untagged but multihomed-behaving: connections
//!   alternate between one fixed address and a changing one;
//! * **testing-static** — first connection from 193.0.0.78, then one stable
//!   address (no analyzable changes remain once the testing entry is
//!   removed).

use crate::config::WorldConfig;
use crate::logs::{
    testing_address, AtlasDataset, ConnectionLogEntry, PeerAddr, ProbeMeta, SosUptimeRecord,
};
use dynaddr_types::rng::SeedTree;
use dynaddr_types::time::DAY;
use dynaddr_types::{Country, ProbeId, ProbeTag, ProbeVersion, SimDuration, SimTime};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Populations at or below this many probes generate serially: executor
/// dispatch and per-task buffers cost more than the generation itself
/// (BENCH_pipeline.json showed `sim_filler` at 0.78× under threads at the
/// 0.05-scale snapshot world, whose ~400 filler probes take only ~3 ms).
const FILLER_SERIAL_CUTOFF: usize = 512;
/// Probes per parallel task above the cutoff — large enough to amortize
/// task setup, small enough to keep the executor's chunks balanced.
const FILLER_JOB_CHUNK: usize = 64;

/// Countries filler probes are registered in, with a European bias matching
/// the real RIPE Atlas deployment.
const FILLER_COUNTRIES: &[&str] = &[
    "DE", "DE", "DE", "FR", "FR", "GB", "NL", "NL", "BE", "AT", "CH", "SE", "CZ", "PL", "IT", "ES",
    "RU", "US", "US", "CA", "JP", "IN", "SG", "ZA", "BR", "AU", "NZ",
];

/// Which filler population a probe belongs to.
#[derive(Debug, Clone, Copy)]
enum FillerKind {
    NeverChanged,
    DualStack,
    Ipv6Only,
    Tagged { alternating: bool },
    Alternating,
    TestingStatic,
}

/// Generates the filler population, handing each chunk of probes to
/// `emit` with its run id: `first_run`, `first_run + 1`, and so on.
///
/// Each probe is generated independently from its own `("filler", id)` RNG
/// stream, so the chunks run on the `dynaddr-exec` executor and their rows
/// are identical at any worker count. Ids are assigned in category order
/// (never-changed, dual-stack, IPv6-only, tagged, alternating,
/// testing-static), ascending from `next_id`, and each chunk holds its
/// probes' rows in id order.
pub(crate) fn generate_filler(
    config: &WorldConfig,
    next_id: u32,
    first_run: u64,
    emit: &(dyn Fn(u64, AtlasDataset) + Sync),
) {
    let jobs = filler_jobs(config, next_id);
    let seeds = SeedTree::new(config.seed);
    // One task per probe made executor dispatch the dominant cost at bench
    // scale: small populations generate as one chunk on the calling
    // thread, large ones in chunks of FILLER_JOB_CHUNK probes.
    let size = if jobs.len() <= FILLER_SERIAL_CUTOFF {
        jobs.len().max(1)
    } else {
        FILLER_JOB_CHUNK
    };
    let chunks: Vec<(u64, &[(u32, FillerKind)])> = jobs
        .chunks(size)
        .enumerate()
        .map(|(i, chunk)| (first_run + i as u64, chunk))
        .collect();
    dynaddr_exec::par_map(&chunks, |&(run, chunk)| {
        emit(run, generate_jobs(&seeds, chunk))
    });
}

/// Plans the filler population: one `(id, kind)` job per probe, ids
/// ascending in category order starting at `next_id`.
fn filler_jobs(config: &WorldConfig, next_id: u32) -> Vec<(u32, FillerKind)> {
    let f = &config.filler;
    let mut jobs: Vec<(u32, FillerKind)> = Vec::new();
    let mut id = next_id;
    let mut plan = |count: usize, kind: &mut dyn FnMut(usize) -> FillerKind| {
        for i in 0..count {
            jobs.push((id, kind(i)));
            id += 1;
        }
    };
    plan(f.never_changed, &mut |_| FillerKind::NeverChanged);
    plan(f.dual_stack, &mut |_| FillerKind::DualStack);
    plan(f.ipv6_only, &mut |_| FillerKind::Ipv6Only);
    let tagged_alternating = (f.tagged as f64 * f.tagged_alternating_frac).round() as usize;
    plan(f.tagged, &mut |i| FillerKind::Tagged {
        alternating: i < tagged_alternating,
    });
    plan(f.alternating, &mut |_| FillerKind::Alternating);
    plan(f.testing_static, &mut |_| FillerKind::TestingStatic);
    jobs
}

/// Generates a slice of jobs, appending records in job order.
fn generate_jobs(seeds: &SeedTree, jobs: &[(u32, FillerKind)]) -> AtlasDataset {
    let mut piece = AtlasDataset::default();
    for &(id, kind) in jobs {
        let mut gen = FillerGen {
            rng: seeds.rng_for_id("filler", u64::from(id)),
            piece,
        };
        gen.generate(ProbeId(id), kind);
        piece = gen.piece;
    }
    piece
}

struct FillerGen {
    rng: ChaCha12Rng,
    piece: AtlasDataset,
}

impl FillerGen {
    fn generate(&mut self, id: ProbeId, kind: FillerKind) {
        match kind {
            FillerKind::NeverChanged => self.never_changed(id),
            FillerKind::DualStack => self.dual_stack(id),
            FillerKind::Ipv6Only => self.ipv6_only(id),
            FillerKind::Tagged { alternating } => self.tagged(id, alternating),
            FillerKind::Alternating => self.alternating(id),
            FillerKind::TestingStatic => self.testing_static(id),
        }
    }

    fn new_probe(&mut self, id: ProbeId, tags: Vec<ProbeTag>) -> SimTime {
        let country = Country::new(FILLER_COUNTRIES[self.rng.gen_range(0..FILLER_COUNTRIES.len())])
            .expect("static codes are valid");
        let version = if self.rng.gen::<f64>() < 0.8 {
            ProbeVersion::V3
        } else if self.rng.gen::<f64>() < 0.5 {
            ProbeVersion::V2
        } else {
            ProbeVersion::V1
        };
        self.piece.meta.push(ProbeMeta {
            probe: id,
            version,
            country,
            tags,
        });
        SimTime(-self.rng.gen_range(1..(60 * DAY)))
    }

    fn rand_v4(&mut self) -> Ipv4Addr {
        // Random address avoiding reserved low/high space and the simulator's
        // scripted pools (which live in 2.0.0.0/8–100.0.0.0/8 ranges chosen
        // by the world builder; collisions would be harmless anyway).
        Ipv4Addr::new(
            self.rng.gen_range(130..190),
            self.rng.gen_range(0..=255),
            self.rng.gen_range(0..=255),
            self.rng.gen_range(1..=254),
        )
    }

    fn rand_v6(&mut self) -> Ipv6Addr {
        Ipv6Addr::new(
            0x2001,
            0x0db8,
            self.rng.gen(),
            self.rng.gen(),
            self.rng.gen(),
            self.rng.gen(),
            self.rng.gen(),
            self.rng.gen(),
        )
    }

    /// Emits a connection sequence: `peers[i]` held for a stretch, breaks in
    /// between. Also emits matching SOS-uptime records (no reboots).
    fn emit_sequence(&mut self, id: ProbeId, join: SimTime, peers: &[PeerAddr]) {
        let boot = join - SimDuration::from_days(1);
        let mut t = join;
        let mut i = 0usize;
        while t < SimTime::YEAR_END && i < peers.len() {
            let hold = self.rng.gen_range((2 * DAY)..(10 * DAY));
            let end = (t + SimDuration::from_secs(hold)).min(SimTime::YEAR_END);
            self.piece.connections.push(ConnectionLogEntry {
                probe: id,
                start: t,
                end,
                peer: peers[i],
            });
            if t >= SimTime::YEAR_START {
                self.piece.uptime.push(SosUptimeRecord {
                    probe: id,
                    timestamp: t,
                    uptime_secs: (t - boot).secs().max(0) as u64,
                });
            }
            t = end + SimDuration::from_secs(self.rng.gen_range(60..600));
            i += 1;
        }
    }

    /// Enough connection segments to span the year at 2–10 days each.
    fn segments(&mut self) -> usize {
        self.rng.gen_range(90..140)
    }

    fn never_changed(&mut self, id: ProbeId) {
        let join = self.new_probe(id, vec![ProbeTag::Home]);
        let addr = PeerAddr::V4(self.rand_v4());
        let peers = vec![addr; self.segments()];
        self.emit_sequence(id, join, &peers);
    }

    fn dual_stack(&mut self, id: ProbeId) {
        let join = self.new_probe(id, vec![ProbeTag::Home]);
        let v4 = self.rand_v4();
        let v6 = self.rand_v6();
        let n = self.segments();
        let mut peers = Vec::with_capacity(n);
        let mut cur_v4 = v4;
        for _ in 0..n {
            if self.rng.gen::<f64>() < 0.5 {
                peers.push(PeerAddr::V4(cur_v4));
            } else {
                peers.push(PeerAddr::V6(v6));
            }
            // The IPv4 address drifts occasionally; unobservable through the
            // alternation, which is the point of the dual-stack filter.
            if self.rng.gen::<f64>() < 0.1 {
                cur_v4 = self.rand_v4();
            }
        }
        self.emit_sequence(id, join, &peers);
    }

    fn ipv6_only(&mut self, id: ProbeId) {
        let join = self.new_probe(id, vec![ProbeTag::Home]);
        let v6 = PeerAddr::V6(self.rand_v6());
        let peers = vec![v6; self.segments()];
        self.emit_sequence(id, join, &peers);
    }

    fn tagged(&mut self, id: ProbeId, behaves_multihomed: bool) {
        let tag = match self.rng.gen_range(0..3) {
            0 => ProbeTag::Multihomed,
            1 => ProbeTag::Datacentre,
            _ => ProbeTag::Core,
        };
        let join = self.new_probe(id, vec![tag]);
        if behaves_multihomed {
            self.alternating_sequence(id, join);
        } else {
            let addr = PeerAddr::V4(self.rand_v4());
            let peers = vec![addr; self.segments()];
            self.emit_sequence(id, join, &peers);
        }
    }

    fn alternating(&mut self, id: ProbeId) {
        let join = self.new_probe(id, vec![ProbeTag::Home]);
        self.alternating_sequence(id, join);
    }

    /// Connections alternate between one fixed address and a changing one —
    /// the behavioural multihoming signature of §3.2.
    fn alternating_sequence(&mut self, id: ProbeId, join: SimTime) {
        let fixed = PeerAddr::V4(self.rand_v4());
        let n = self.segments();
        let mut peers = Vec::with_capacity(n);
        let mut other = self.rand_v4();
        for k in 0..n {
            if k % 2 == 0 {
                peers.push(fixed);
            } else {
                if self.rng.gen::<f64>() < 0.3 {
                    other = self.rand_v4();
                }
                peers.push(PeerAddr::V4(other));
            }
        }
        self.emit_sequence(id, join, &peers);
    }

    fn testing_static(&mut self, id: ProbeId) {
        let _ = self.new_probe(id, vec![ProbeTag::Home]);
        // First connection from the RIPE NCC testing bench, briefly into the
        // year, then one stable address at the host.
        let handover = SimTime(self.rng.gen_range(0..(20 * DAY)));
        self.piece.connections.push(ConnectionLogEntry {
            probe: id,
            start: handover - SimDuration::from_days(2),
            end: handover,
            peer: PeerAddr::V4(testing_address()),
        });
        let addr = PeerAddr::V4(self.rand_v4());
        let peers = vec![addr; self.segments()];
        let settle = SimDuration::from_secs(self.rng.gen_range(600..7200));
        self.emit_sequence(id, handover + settle, &peers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FillerSpec;
    use crate::sim::simulate;

    fn filler_only_world() -> WorldConfig {
        let mut w = WorldConfig::empty(5);
        w.filler = FillerSpec {
            never_changed: 10,
            dual_stack: 8,
            ipv6_only: 4,
            tagged: 5,
            tagged_alternating_frac: 0.4,
            alternating: 6,
            testing_static: 3,
        };
        w
    }

    /// A world without ISPs simulates to its filler probes alone.
    fn run_filler(w: &WorldConfig) -> AtlasDataset {
        simulate(w).dataset
    }

    #[test]
    fn counts_match_spec() {
        let w = filler_only_world();
        let out = run_filler(&w);
        assert_eq!(out.meta.len(), 10 + 8 + 4 + 5 + 6 + 3);
    }

    #[test]
    fn never_changed_have_single_address() {
        let w = filler_only_world();
        let out = run_filler(&w);
        // First 10 probes are never-changed.
        for m in out.meta.iter().take(10) {
            let peers: std::collections::HashSet<_> =
                out.connections_of(m.probe).iter().map(|c| c.peer).collect();
            assert_eq!(peers.len(), 1, "{} should hold one address", m.probe);
        }
    }

    #[test]
    fn dual_stack_mixes_families() {
        let w = filler_only_world();
        let out = run_filler(&w);
        for m in out.meta.iter().skip(10).take(8) {
            let conns = out.connections_of(m.probe);
            let v4 = conns.iter().filter(|c| c.peer.is_v4()).count();
            let v6 = conns.len() - v4;
            assert!(v4 > 0 && v6 > 0, "{} should mix families", m.probe);
        }
    }

    #[test]
    fn ipv6_only_probes_have_no_v4() {
        let w = filler_only_world();
        let out = run_filler(&w);
        for m in out.meta.iter().skip(18).take(4) {
            assert!(out.connections_of(m.probe).iter().all(|c| !c.peer.is_v4()));
        }
    }

    #[test]
    fn tagged_probes_carry_disqualifying_tags() {
        let w = filler_only_world();
        let out = run_filler(&w);
        for m in out.meta.iter().skip(22).take(5) {
            assert!(m.tags.iter().any(|t| t.disqualifies()), "{:?}", m);
        }
    }

    #[test]
    fn alternating_probes_pin_one_address() {
        let w = filler_only_world();
        let out = run_filler(&w);
        for m in out.meta.iter().skip(27).take(6) {
            let conns = out.connections_of(m.probe);
            // Even-indexed connections share one fixed address.
            let fixed = conns[0].peer;
            for (k, c) in conns.iter().enumerate() {
                if k % 2 == 0 {
                    assert_eq!(c.peer, fixed);
                }
            }
        }
    }

    #[test]
    fn testing_static_probes_start_at_ripe() {
        let w = filler_only_world();
        let out = run_filler(&w);
        for m in out.meta.iter().skip(33).take(3) {
            let conns = out.connections_of(m.probe);
            assert_eq!(conns[0].peer, PeerAddr::V4(testing_address()));
            let rest: std::collections::HashSet<_> = conns.iter().skip(1).map(|c| c.peer).collect();
            assert_eq!(rest.len(), 1, "only one address after the handover");
        }
    }

    #[test]
    fn filler_composes_with_simulation() {
        let mut w = filler_only_world();
        let mut isp = crate::config::IspSpec::new("Net", 64500, "DE", 3);
        isp.prefixes = vec!["10.0.0.0/20".parse().unwrap()];
        w.isps.push(isp);
        let out = simulate(&w).dataset;
        assert_eq!(out.meta.len(), 3 + 36);
        // Filler ids must not collide with analyzable ids.
        let mut ids: Vec<u32> = out.meta.iter().map(|m| m.probe.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.meta.len());
    }
}
