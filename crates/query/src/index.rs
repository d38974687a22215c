//! Secondary indexes built in one pass at engine open.
//!
//! The store file is keyed by probe id; AS and country queries need the
//! reverse maps. [`StatsBuilder`] folds the meta table and the connection
//! table — in file order, batch by batch, so the engine can feed it
//! straight from decoded segments without materializing the whole table —
//! into one [`ProbeStat`] per probe, then [`StatsBuilder::finish`] freezes
//! the per-AS / per-country groupings and the global mover ranking. The
//! same builder consumes a batch-loaded [`AtlasDataset`]
//! ([`StatsIndex::from_dataset`]), which is what lets the tests assert the
//! streamed build and the in-memory build agree exactly.
//!
//! `changes` here is the *raw* count of adjacent v4 address transitions in
//! the connection log — testing-address entries included, no probe
//! filtering — a serving-layer activity measure, deliberately simpler than
//! the paper pipeline's filtered event extraction (which
//! [`crate::engine::series_reply`] exposes per probe).

use crate::proto::{AsSummaryReply, CountrySummaryReply, MoverReply};
use dynaddr_atlas::{AtlasDataset, ConnectionLogEntry, ProbeMeta};
use dynaddr_ip2as::MonthlySnapshots;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Movers listed inside an AS/country summary.
const SUMMARY_MOVERS: usize = 5;

/// Per-probe activity statistics, the row type of [`StatsIndex`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeStat {
    /// The probe.
    pub probe: u32,
    /// AS of its first observed v4 address (0 = none mapped).
    pub asn: u32,
    /// Registered country code ("" without a meta row).
    pub country: String,
    /// Connection-log rows.
    pub connections: u64,
    /// Of those, IPv6 rows.
    pub v6_connections: u64,
    /// Raw adjacent v4 address transitions.
    pub changes: u64,
    /// Summed v4 connection time, seconds (negative spans clamped to 0).
    pub online_secs: u64,
}

#[derive(Default)]
struct Accum {
    stat: ProbeStat,
    last_v4: Option<Ipv4Addr>,
    has_asn: bool,
}

/// Incremental builder: meta rows, then connection rows in file order.
pub struct StatsBuilder<'s> {
    snaps: &'s MonthlySnapshots,
    probes: BTreeMap<u32, Accum>,
}

impl<'s> StatsBuilder<'s> {
    /// Starts an empty fold; `snaps` resolves first-address AS mappings.
    pub fn new(snaps: &'s MonthlySnapshots) -> StatsBuilder<'s> {
        StatsBuilder {
            snaps,
            probes: BTreeMap::new(),
        }
    }

    fn accum(&mut self, probe: u32) -> &mut Accum {
        let a = self.probes.entry(probe).or_default();
        a.stat.probe = probe;
        a
    }

    /// Folds a batch of meta rows (any order).
    pub fn add_meta(&mut self, rows: &[ProbeMeta]) {
        for m in rows {
            self.accum(m.probe.0).stat.country = m.country.to_string();
        }
    }

    /// Folds a batch of connection rows. Batches must arrive in file
    /// order (normalized files sort by probe then start time) so the
    /// adjacent-transition count carries correctly across batch seams.
    pub fn add_connections(&mut self, rows: &[ConnectionLogEntry]) {
        for e in rows {
            let snaps = self.snaps;
            let a = self.accum(e.probe.0);
            a.stat.connections += 1;
            match e.peer.v4() {
                None => a.stat.v6_connections += 1,
                Some(addr) => {
                    if !a.has_asn {
                        a.has_asn = true;
                        a.stat.asn = snaps.asn_at(e.start, addr).0;
                    }
                    a.stat.online_secs += (e.end.0 - e.start.0).max(0) as u64;
                    if a.last_v4.is_some_and(|prev| prev != addr) {
                        a.stat.changes += 1;
                    }
                    a.last_v4 = Some(addr);
                }
            }
        }
    }

    /// Freezes the fold into a queryable index.
    pub fn finish(self) -> StatsIndex {
        let stats: Vec<ProbeStat> = self.probes.into_values().map(|a| a.stat).collect();
        let mut by_as: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut by_country: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, s) in stats.iter().enumerate() {
            if s.asn != 0 {
                by_as.entry(s.asn).or_default().push(i);
            }
            if !s.country.is_empty() {
                by_country.entry(s.country.clone()).or_default().push(i);
            }
        }
        let mut movers: Vec<usize> = (0..stats.len()).collect();
        movers.sort_by(|&a, &b| {
            stats[b]
                .changes
                .cmp(&stats[a].changes)
                .then(stats[a].probe.cmp(&stats[b].probe))
        });
        StatsIndex {
            stats,
            by_as,
            by_country,
            movers,
        }
    }
}

/// Frozen secondary indexes: probe stats plus AS/country groupings and the
/// global mover ranking. Built once at open, read-only afterwards — shared
/// freely across query threads.
pub struct StatsIndex {
    /// One row per probe, sorted by probe id.
    stats: Vec<ProbeStat>,
    by_as: BTreeMap<u32, Vec<usize>>,
    by_country: BTreeMap<String, Vec<usize>>,
    /// All probe indices, sorted by (changes desc, probe asc).
    movers: Vec<usize>,
}

impl StatsIndex {
    /// Builds the index from a batch-loaded dataset — the reference
    /// construction the streamed (segment-fed) build must match.
    pub fn from_dataset(ds: &AtlasDataset, snaps: &MonthlySnapshots) -> StatsIndex {
        let mut b = StatsBuilder::new(snaps);
        b.add_meta(&ds.meta);
        b.add_connections(&ds.connections);
        b.finish()
    }

    /// Per-probe rows, sorted by probe id.
    pub fn stats(&self) -> &[ProbeStat] {
        &self.stats
    }

    /// One probe's row.
    pub fn stat_of(&self, probe: u32) -> Option<&ProbeStat> {
        self.stats
            .binary_search_by_key(&probe, |s| s.probe)
            .ok()
            .map(|i| &self.stats[i])
    }

    /// Every probe id, ascending — the workload universe.
    pub fn probes(&self) -> Vec<u32> {
        self.stats.iter().map(|s| s.probe).collect()
    }

    /// Every mapped AS, ascending.
    pub fn asns(&self) -> Vec<u32> {
        self.by_as.keys().copied().collect()
    }

    /// Every registered country code, ascending.
    pub fn countries(&self) -> Vec<String> {
        self.by_country.keys().cloned().collect()
    }

    fn mover_of(&self, s: &ProbeStat) -> MoverReply {
        MoverReply {
            probe: s.probe,
            changes: s.changes,
            asn: s.asn,
            country: s.country.clone(),
        }
    }

    fn group_movers(&self, members: &[usize]) -> Vec<MoverReply> {
        let mut idx = members.to_vec();
        idx.sort_by(|&a, &b| {
            self.stats[b]
                .changes
                .cmp(&self.stats[a].changes)
                .then(self.stats[a].probe.cmp(&self.stats[b].probe))
        });
        idx.truncate(SUMMARY_MOVERS);
        idx.into_iter()
            .map(|i| self.mover_of(&self.stats[i]))
            .collect()
    }

    /// Aggregate over one AS; `None` for an AS no probe mapped to.
    pub fn as_summary(&self, asn: u32) -> Option<AsSummaryReply> {
        let members = self.by_as.get(&asn)?;
        let mut reply = AsSummaryReply {
            asn,
            probes: members.len() as u64,
            connections: 0,
            v6_connections: 0,
            changes: 0,
            online_secs: 0,
            countries: Vec::new(),
            top_movers: self.group_movers(members),
        };
        let mut countries: BTreeMap<&str, u64> = BTreeMap::new();
        for &i in members {
            let s = &self.stats[i];
            reply.connections += s.connections;
            reply.v6_connections += s.v6_connections;
            reply.changes += s.changes;
            reply.online_secs += s.online_secs;
            if !s.country.is_empty() {
                *countries.entry(&s.country).or_default() += 1;
            }
        }
        reply.countries = countries
            .into_iter()
            .map(|(c, n)| (c.to_string(), n))
            .collect();
        Some(reply)
    }

    /// Aggregate over one country; `None` for a code no probe registered.
    pub fn country_summary(&self, cc: &str) -> Option<CountrySummaryReply> {
        let members = self.by_country.get(cc)?;
        let mut reply = CountrySummaryReply {
            country: cc.to_string(),
            probes: members.len() as u64,
            connections: 0,
            v6_connections: 0,
            changes: 0,
            online_secs: 0,
            asns: Vec::new(),
            top_movers: self.group_movers(members),
        };
        let mut asns: BTreeMap<u32, u64> = BTreeMap::new();
        for &i in members {
            let s = &self.stats[i];
            reply.connections += s.connections;
            reply.v6_connections += s.v6_connections;
            reply.changes += s.changes;
            reply.online_secs += s.online_secs;
            if s.asn != 0 {
                *asns.entry(s.asn).or_default() += 1;
            }
        }
        reply.asns = asns.into_iter().collect();
        Some(reply)
    }

    /// The `n` highest-churn probes, globally.
    pub fn top_movers(&self, n: u32) -> Vec<MoverReply> {
        self.movers
            .iter()
            .take(n as usize)
            .map(|&i| self.mover_of(&self.stats[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::PeerAddr;
    use dynaddr_ip2as::RouteTable;
    use dynaddr_types::{Country, Prefix, ProbeId, ProbeVersion, SimTime};

    fn snaps() -> MonthlySnapshots {
        let mut t = RouteTable::new();
        t.announce(
            Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8).unwrap(),
            dynaddr_types::Asn(64500),
        );
        MonthlySnapshots::uniform(t)
    }

    fn conn(probe: u32, start: i64, end: i64, last: u8) -> ConnectionLogEntry {
        ConnectionLogEntry {
            probe: ProbeId(probe),
            start: SimTime(start),
            end: SimTime(end),
            peer: PeerAddr::V4(Ipv4Addr::new(10, 0, 0, last)),
        }
    }

    fn meta(probe: u32, cc: &str) -> ProbeMeta {
        ProbeMeta {
            probe: ProbeId(probe),
            version: ProbeVersion::V3,
            country: Country::new(cc).unwrap(),
            tags: vec![],
        }
    }

    #[test]
    fn batched_fold_matches_single_batch() {
        let snaps = snaps();
        let rows = vec![
            conn(1, 0, 10, 1),
            conn(1, 20, 30, 2),
            conn(1, 40, 50, 2),
            conn(2, 0, 5, 9),
            conn(2, 6, 7, 8),
        ];
        let metas = vec![meta(1, "DE"), meta(2, "US")];
        let mut one = StatsBuilder::new(&snaps);
        one.add_meta(&metas);
        one.add_connections(&rows);
        let one = one.finish();
        let mut split = StatsBuilder::new(&snaps);
        split.add_meta(&metas[..1]);
        split.add_meta(&metas[1..]);
        for chunk in rows.chunks(2) {
            split.add_connections(chunk);
        }
        let split = split.finish();
        assert_eq!(one.stats(), split.stats());
        let s1 = one.stat_of(1).unwrap();
        assert_eq!((s1.changes, s1.connections, s1.online_secs), (1, 3, 30));
        assert_eq!(s1.asn, 64500);
        assert_eq!(one.stat_of(2).unwrap().changes, 1);
    }

    #[test]
    fn summaries_group_and_rank() {
        let snaps = snaps();
        let mut b = StatsBuilder::new(&snaps);
        b.add_meta(&[meta(1, "DE"), meta(2, "DE"), meta(3, "US")]);
        b.add_connections(&[
            conn(1, 0, 10, 1),
            conn(1, 11, 20, 2),
            conn(1, 21, 30, 3),
            conn(2, 0, 10, 1),
            conn(3, 0, 10, 1),
            conn(3, 11, 20, 2),
        ]);
        let idx = b.finish();
        let de = idx.country_summary("DE").unwrap();
        assert_eq!(de.probes, 2);
        assert_eq!(de.changes, 2);
        assert_eq!(de.top_movers[0].probe, 1);
        assert!(idx.country_summary("JP").is_none());
        let asn = idx.as_summary(64500).unwrap();
        assert_eq!(asn.probes, 3);
        assert_eq!(
            asn.countries,
            vec![("DE".to_string(), 2), ("US".to_string(), 1)]
        );
        assert!(idx.as_summary(1).is_none());
        let movers = idx.top_movers(2);
        assert_eq!(movers[0].probe, 1);
        assert_eq!(movers[1].probe, 3);
        assert_eq!(idx.top_movers(0).len(), 0);
    }
}
