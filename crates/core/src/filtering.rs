//! Probe filtering — the Table 2 funnel (§3.2–§3.3).
//!
//! The raw probe population cannot all witness true dynamic-address changes.
//! This module classifies every probe, in the paper's order:
//!
//! 1. **IPv6-only** — no IPv4 connections at all;
//! 2. **dual-stack** — connections from both families: when consecutive
//!    connections alternate between v4 and v6 we cannot bound how long any
//!    particular IPv4 address was held;
//! 3. **tagged** — user-tagged `multihomed` / `datacentre` / `core`;
//! 4. **behaviourally multihomed** — untagged probes whose connections
//!    *return* to previously used addresses (the alternating-address
//!    signature learned from the tagged population);
//! 5. **testing-only** — probes whose only change is away from the RIPE NCC
//!    testing address 193.0.0.78;
//! 6. **never-changed** — IPv4-only probes with no observed change;
//! 7. everything else is **analyzable**; probes whose changes cross
//!    autonomous systems are additionally marked **multi-AS** (kept for the
//!    geographic analysis with cross-AS changes discarded; dropped entirely
//!    from the AS-level analysis).
//!
//! [`ProbeMachine`] is the funnel half of the per-probe kernel. The batch
//! and streamed drivers classify whole probes a batch at a time
//! ([`filter_probes`] takes the whole dataset as one batch) and fold the
//! verdicts into a [`FilterReport`] in meta order. The live analyzer feeds
//! each machine one connection at a time and keeps rolling
//! [`FilterCounts`] through the same tally.

use crate::changes::{EventExtractor, ProbeEvents};
use dynaddr_atlas::logs::{testing_address, AtlasDataset, ConnectionLogEntry, ProbeMeta};
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_types::{Asn, ProbeId};
use serde::Serialize;
use std::collections::BTreeMap;

/// Minimum number of returns to one *specific* previously-held address that
/// marks a probe as behaviourally multihomed. A multihomed probe keeps
/// falling back to its fixed second address; organic reassignment may
/// occasionally re-draw an old address from the pool (a birthday collision
/// over a year of daily changes), but not the same one three times.
pub const ALTERNATION_RETURNS: usize = 3;

/// The classification of one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ProbeClass {
    /// No IPv4 connections.
    Ipv6Only,
    /// Mixed IPv4/IPv6 connections.
    DualStack,
    /// Carries a disqualifying tag.
    Tagged,
    /// Alternates between previously used addresses.
    Multihomed,
    /// Only change was away from 193.0.0.78.
    TestingOnly,
    /// IPv4-only, no observed change.
    NeverChanged,
    /// Usable for the analysis.
    Analyzable,
}

impl ProbeClass {
    /// The class's fixed code on the query wire (a daemon's probe view).
    /// Each code is written out here, so reordering the variants changes
    /// no sent byte.
    pub fn code(self) -> u8 {
        match self {
            ProbeClass::Ipv6Only => 0,
            ProbeClass::DualStack => 1,
            ProbeClass::Tagged => 2,
            ProbeClass::Multihomed => 3,
            ProbeClass::TestingOnly => 4,
            ProbeClass::NeverChanged => 5,
            ProbeClass::Analyzable => 6,
        }
    }

    /// The class whose [`code`](Self::code) is `code`, if any.
    pub fn from_code(code: u8) -> Option<ProbeClass> {
        [
            ProbeClass::Ipv6Only,
            ProbeClass::DualStack,
            ProbeClass::Tagged,
            ProbeClass::Multihomed,
            ProbeClass::TestingOnly,
            ProbeClass::NeverChanged,
            ProbeClass::Analyzable,
        ]
        .into_iter()
        .find(|c| c.code() == code)
    }
}

/// One analyzable probe's cleaned data.
#[derive(Debug, Clone)]
pub struct AnalyzableProbe {
    /// Metadata (version, country, tags).
    pub meta: ProbeMeta,
    /// IPv4 connection-log entries, testing entries stripped, time-sorted.
    pub entries: Vec<ConnectionLogEntry>,
    /// Extracted changes/spans/gaps.
    pub events: ProbeEvents,
    /// ASN of each change `(from_asn, to_asn)`, parallel to `events.changes`.
    pub change_asns: Vec<(Asn, Asn)>,
    /// Whether any change crossed autonomous systems.
    pub multi_as: bool,
    /// The probe's modal ASN (by connection time).
    pub primary_asn: Asn,
}

/// The Table 2 funnel counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct FilterCounts {
    /// All probes in the dataset.
    pub total: usize,
    /// IPv4-only probes with no change.
    pub never_changed: usize,
    /// Probes using both address families.
    pub dual_stack: usize,
    /// IPv6-only probes.
    pub ipv6_only: usize,
    /// Tag-disqualified probes.
    pub tagged: usize,
    /// Behaviourally multihomed probes.
    pub multihomed: usize,
    /// Probes whose only change is from the testing address.
    pub testing_only: usize,
    /// Probes usable for geographic analysis.
    pub analyzable_geo: usize,
    /// Of those, probes with changes spanning multiple ASes.
    pub multi_as: usize,
    /// Probes usable for AS-level analysis.
    pub analyzable_as: usize,
}

/// Output of the filtering stage.
#[derive(Default)]
pub struct FilterReport {
    /// Funnel counts (Table 2).
    pub counts: FilterCounts,
    /// Per-probe classification.
    pub classes: BTreeMap<u32, ProbeClass>,
    /// Cleaned analyzable probes (geographic set; check `multi_as` for the
    /// AS-level subset).
    pub probes: Vec<AnalyzableProbe>,
}

impl FilterCounts {
    /// Adds one verdict to (or, with `add` false, removes it from) its
    /// funnel bucket and rebalances the derived AS-level count. The only
    /// way a verdict enters the counts: the batch fold and the live
    /// analyzer's rolling counts both go through here.
    pub(crate) fn tally(&mut self, class: ProbeClass, multi_as: bool, add: bool) {
        let bump = |slot: &mut usize| {
            if add {
                *slot += 1;
            } else {
                *slot -= 1;
            }
        };
        match class {
            ProbeClass::Ipv6Only => bump(&mut self.ipv6_only),
            ProbeClass::DualStack => bump(&mut self.dual_stack),
            ProbeClass::Tagged => bump(&mut self.tagged),
            ProbeClass::Multihomed => bump(&mut self.multihomed),
            ProbeClass::TestingOnly => bump(&mut self.testing_only),
            ProbeClass::NeverChanged => bump(&mut self.never_changed),
            ProbeClass::Analyzable => {
                bump(&mut self.analyzable_geo);
                if multi_as {
                    bump(&mut self.multi_as);
                }
            }
        }
        self.analyzable_as = self.analyzable_geo - self.multi_as;
    }

    /// Adds another set of counts bucket by bucket: how the live
    /// analyzer folds in a batch of probes tallied apart from it.
    pub(crate) fn add(&mut self, other: &FilterCounts) {
        let FilterCounts {
            total,
            never_changed,
            dual_stack,
            ipv6_only,
            tagged,
            multihomed,
            testing_only,
            analyzable_geo,
            multi_as,
            analyzable_as,
        } = other;
        self.total += total;
        self.never_changed += never_changed;
        self.dual_stack += dual_stack;
        self.ipv6_only += ipv6_only;
        self.tagged += tagged;
        self.multihomed += multihomed;
        self.testing_only += testing_only;
        self.analyzable_geo += analyzable_geo;
        self.multi_as += multi_as;
        self.analyzable_as += analyzable_as;
    }
}

impl FilterReport {
    /// Folds in one probe's final verdict. Analyzable probes append in push
    /// order, which every driver keeps at meta (ascending id) order.
    pub(crate) fn push(&mut self, id: u32, class: ProbeClass, probe: Option<AnalyzableProbe>) {
        self.counts.total += 1;
        self.counts
            .tally(class, probe.as_ref().is_some_and(|p| p.multi_as), true);
        self.classes.insert(id, class);
        self.probes.extend(probe);
    }

    /// Classifies one batch of whole probes (every probe whose meta row is
    /// in `batch` has all its connections there too) on the executor's
    /// workers, then pushes the verdicts in meta order.
    pub(crate) fn push_batch(&mut self, batch: &AtlasDataset, snapshots: &MonthlySnapshots) {
        let verdicts = dynaddr_exec::par_map(&batch.meta, |meta| {
            let mut machine = ProbeMachine::new(meta.clone());
            for e in batch.connections_of(meta.probe) {
                machine.push(e, snapshots);
            }
            machine.finish()
        });
        for (meta, (class, probe)) in batch.meta.iter().zip(verdicts) {
            self.push(meta.probe.0, class, probe);
        }
    }
}

/// Runs the Table 2 funnel over a dataset: the whole dataset as one batch
/// of the per-probe kernel's first half.
///
/// Each probe's classification depends only on its own logs, so the
/// per-probe work fans out across the executor's workers; the verdicts are
/// then folded in meta order, keeping the report identical at any worker
/// count.
pub fn filter_probes(dataset: &AtlasDataset, snapshots: &MonthlySnapshots) -> FilterReport {
    let mut report = FilterReport::default();
    report.push_batch(dataset, snapshots);
    report
}

/// Incremental Table 2 classifier for one probe: the state machine behind
/// [`filter_probes`], usable one connection-log entry at a time.
///
/// Feed entries in start-time order with [`push`](Self::push);
/// [`finish`](Self::finish) runs the funnel in the paper's order and yields
/// the class plus the cleaned [`AnalyzableProbe`] when applicable.
/// [`class`](Self::class) gives the funnel verdict *as of the entries seen
/// so far* in O(1) — the rolling-Table-2 hook for a resident daemon.
///
/// Once the verdict can no longer reach `Analyzable` (a v6 entry arrives, a
/// disqualifying tag is present, or the multihomed return threshold is
/// crossed — all monotone conditions), the retained per-entry state is
/// dropped: a filtered-out probe costs O(1) memory no matter how long its
/// stream runs.
#[derive(Debug, Clone)]
pub struct ProbeMachine {
    meta: ProbeMeta,
    tagged: bool,
    v4_count: usize,
    v6_count: usize,
    /// Still inside the leading run of testing-address entries.
    in_leading_testing: bool,
    had_testing: bool,
    /// Heavy per-entry state; `None` once the class is settled short of
    /// `Analyzable`.
    heavy: Option<Box<HeavyState>>,
    /// Running `max_returns_to_one_address` verdict (monotone).
    multihomed: bool,
}

/// The per-entry state a still-analyzable probe accumulates.
#[derive(Debug, Clone, Default)]
struct HeavyState {
    /// Stripped IPv4 entries, time-sorted.
    entries: Vec<ConnectionLogEntry>,
    // Behavioural-multihoming detection (running max_returns_to_one_address).
    seen: std::collections::HashSet<std::net::Ipv4Addr>,
    returns: std::collections::HashMap<std::net::Ipv4Addr, usize>,
    prev_addr: Option<std::net::Ipv4Addr>,
    max_returns: usize,
    // Change/span/gap extraction.
    extractor: EventExtractor,
    /// ASN of each emitted change, parallel to the extractor's changes.
    change_asns: Vec<(Asn, Asn)>,
    multi_as: bool,
    /// Connection seconds per origin ASN (for the primary-ASN vote).
    time_by_asn: BTreeMap<u32, i64>,
}

impl ProbeMachine {
    /// A fresh machine for one probe.
    pub fn new(meta: ProbeMeta) -> ProbeMachine {
        let tagged = meta.tags.iter().any(|t| t.disqualifies());
        ProbeMachine {
            meta,
            tagged,
            v4_count: 0,
            v6_count: 0,
            in_leading_testing: true,
            had_testing: false,
            heavy: if tagged { None } else { Some(Box::default()) },
            multihomed: false,
        }
    }

    /// Feeds the next connection-log entry (start-time order).
    pub fn push(&mut self, e: &ConnectionLogEntry, snapshots: &MonthlySnapshots) {
        debug_assert_eq!(e.probe, self.meta.probe);
        let Some(addr) = e.peer.v4() else {
            self.v6_count += 1;
            self.heavy = None; // Ipv6Only/DualStack from here on
            return;
        };
        self.v4_count += 1;
        if self.in_leading_testing {
            if addr == testing_address() {
                self.had_testing = true;
                return; // stripped: a leading testing-bench entry
            }
            self.in_leading_testing = false;
        }
        let Some(h) = self.heavy.as_deref_mut() else {
            return;
        };

        // Running max_returns_to_one_address: a return is a switch onto an
        // address seen before (not the one currently held).
        if h.prev_addr.is_some() && h.prev_addr != Some(addr) && h.seen.contains(&addr) {
            let n = h.returns.entry(addr).or_insert(0);
            *n += 1;
            h.max_returns = h.max_returns.max(*n);
        }
        h.seen.insert(addr);
        h.prev_addr = Some(addr);
        if h.max_returns >= ALTERNATION_RETURNS {
            self.multihomed = true;
            self.heavy = None; // Multihomed from here on
            return;
        }

        let changes_before = h.extractor.changes().len();
        h.extractor.push(e);
        // Map a newly emitted change to origin ASes using the month each
        // address was observed.
        if let Some(c) = h.extractor.changes().get(changes_before) {
            let from = snapshots.asn_at(c.gap_start, c.from);
            let to = snapshots.asn_at(c.gap_end, c.to);
            h.change_asns.push((from, to));
            h.multi_as |= from != to;
        }
        let asn = snapshots.asn_at(e.start, addr);
        *h.time_by_asn.entry(asn.0).or_insert(0) += (e.end - e.start).secs();
        h.entries.push(*e);
    }

    /// The funnel verdict over the entries seen so far, in O(1). The final
    /// class ([`finish`](Self::finish)) of a fully fed machine is identical.
    pub fn class(&self) -> ProbeClass {
        if self.v4_count == 0 {
            return ProbeClass::Ipv6Only;
        }
        if self.v6_count > 0 {
            return ProbeClass::DualStack;
        }
        if self.tagged {
            return ProbeClass::Tagged;
        }
        let h = self.heavy.as_deref();
        if h.is_none_or(|h| h.entries.is_empty()) {
            if self.multihomed {
                return ProbeClass::Multihomed;
            }
            // Only testing-bench connections so far.
            return ProbeClass::TestingOnly;
        }
        let h = h.expect("checked above");
        if h.extractor.changes().is_empty() {
            if self.had_testing {
                ProbeClass::TestingOnly
            } else {
                ProbeClass::NeverChanged
            }
        } else {
            ProbeClass::Analyzable
        }
    }

    /// Whether any change so far crossed autonomous systems.
    pub fn multi_as(&self) -> bool {
        self.heavy.as_deref().is_some_and(|h| h.multi_as)
    }

    /// Retained (stripped, IPv4) entries so far — empty once the class is
    /// settled short of `Analyzable`.
    pub fn entries_len(&self) -> usize {
        self.heavy.as_deref().map_or(0, |h| h.entries.len())
    }

    /// Address changes emitted so far.
    pub fn changes_len(&self) -> usize {
        self.heavy
            .as_deref()
            .map_or(0, |h| h.extractor.changes().len())
    }

    /// Inter-connection gaps emitted so far.
    pub fn gaps_len(&self) -> usize {
        self.heavy
            .as_deref()
            .map_or(0, |h| h.extractor.gaps().len())
    }

    /// Whether a leading testing-address entry was stripped.
    pub fn had_testing(&self) -> bool {
        self.had_testing
    }

    /// The probe's metadata.
    pub fn meta(&self) -> &ProbeMeta {
        &self.meta
    }

    /// Runs the funnel to its verdict; analyzable probes also yield their
    /// cleaned data.
    pub fn finish(self) -> (ProbeClass, Option<AnalyzableProbe>) {
        if self.v4_count == 0 {
            return (ProbeClass::Ipv6Only, None);
        }
        if self.v6_count > 0 {
            return (ProbeClass::DualStack, None);
        }
        if self.tagged {
            return (ProbeClass::Tagged, None);
        }
        if self.multihomed {
            return (ProbeClass::Multihomed, None);
        }
        let h = *self
            .heavy
            .expect("untagged v4-only probe keeps heavy state");
        if h.entries.is_empty() {
            // Only testing-bench connections: nothing analyzable.
            return (ProbeClass::TestingOnly, None);
        }

        let mut events = h.extractor.finish();
        events.had_testing_entry = self.had_testing;
        if events.changes.is_empty() {
            let class = if self.had_testing {
                ProbeClass::TestingOnly
            } else {
                ProbeClass::NeverChanged
            };
            return (class, None);
        }

        // Primary ASN: the origin of the address the probe spent most time on.
        let primary_asn = Asn(h
            .time_by_asn
            .iter()
            .max_by_key(|(_, secs)| **secs)
            .map(|(asn, _)| *asn)
            .unwrap_or(0));

        let probe = AnalyzableProbe {
            meta: self.meta,
            entries: h.entries,
            events,
            change_asns: h.change_asns,
            multi_as: h.multi_as,
            primary_asn,
        };
        (ProbeClass::Analyzable, Some(probe))
    }
}

impl AnalyzableProbe {
    /// The probe id.
    pub fn probe(&self) -> ProbeId {
        self.meta.probe
    }

    /// Changes usable at AS granularity: both sides in the same AS.
    /// For multi-AS probes this drops the cross-AS changes but keeps the
    /// rest (the geographic-analysis rule of §3.3).
    pub fn same_as_changes(&self) -> Vec<usize> {
        self.change_asns
            .iter()
            .enumerate()
            .filter(|(_, (f, t))| f == t)
            .map(|(i, _)| i)
            .collect()
    }

    /// Complete-span durations whose bounding changes are both within one
    /// AS. A span bounded by a cross-AS change is not a dynamic-pool
    /// duration and is discarded (§3.3).
    pub fn same_as_durations(&self) -> Vec<dynaddr_types::SimDuration> {
        let cross: Vec<bool> = self.change_asns.iter().map(|(f, t)| f != t).collect();
        let mut out = Vec::new();
        // Span k (complete) is bounded by change k-1 on the left and change
        // k on the right, where spans[0] is bounded on the left by nothing.
        let mut change_idx = 0usize;
        for (k, span) in self.events.spans.iter().enumerate() {
            if k > 0 {
                // A new span begins after each change.
                change_idx = k - 1;
            }
            if !span.complete {
                continue;
            }
            let left = change_idx;
            let right = change_idx + 1;
            let left_cross = cross.get(left).copied().unwrap_or(false);
            let right_cross = cross.get(right).copied().unwrap_or(false);
            if !left_cross && !right_cross {
                out.push(span.duration());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::logs::{PeerAddr, ProbeMeta};
    use dynaddr_ip2as::RouteTable;
    use dynaddr_types::{Country, ProbeTag, ProbeVersion, SimTime};

    const H: i64 = 3_600;

    #[test]
    fn class_codes_decode_back_and_stay_fixed() {
        for c in 0..=u8::MAX {
            let class = ProbeClass::from_code(c).map(ProbeClass::code);
            assert_eq!(class, (c < 7).then_some(c));
        }
        assert_eq!(ProbeClass::Analyzable.code(), 6);
    }

    fn snaps() -> MonthlySnapshots {
        let mut t = RouteTable::new();
        t.announce("10.0.0.0/16".parse().unwrap(), Asn(100));
        t.announce("20.0.0.0/16".parse().unwrap(), Asn(200));
        MonthlySnapshots::uniform(t)
    }

    fn meta(id: u32) -> ProbeMeta {
        ProbeMeta {
            probe: ProbeId(id),
            version: ProbeVersion::V3,
            country: Country::new("DE").unwrap(),
            tags: vec![],
        }
    }

    fn v4(id: u32, start: i64, end: i64, addr: &str) -> ConnectionLogEntry {
        ConnectionLogEntry {
            probe: ProbeId(id),
            start: SimTime(start),
            end: SimTime(end),
            peer: PeerAddr::V4(addr.parse().unwrap()),
        }
    }

    fn v6(id: u32, start: i64, end: i64) -> ConnectionLogEntry {
        ConnectionLogEntry {
            probe: ProbeId(id),
            start: SimTime(start),
            end: SimTime(end),
            peer: PeerAddr::V6("2001:db8::1".parse().unwrap()),
        }
    }

    fn run(metas: Vec<ProbeMeta>, conns: Vec<ConnectionLogEntry>) -> FilterReport {
        let mut ds = AtlasDataset {
            meta: metas,
            connections: conns,
            ..AtlasDataset::default()
        };
        ds.normalize();
        filter_probes(&ds, &snaps())
    }

    #[test]
    fn ipv6_only_filtered() {
        let r = run(vec![meta(1)], vec![v6(1, 0, H), v6(1, 2 * H, 3 * H)]);
        assert_eq!(r.counts.ipv6_only, 1);
        assert_eq!(r.counts.analyzable_geo, 0);
        assert_eq!(r.classes[&1], ProbeClass::Ipv6Only);
    }

    #[test]
    fn dual_stack_filtered_even_with_v4_changes() {
        let r = run(
            vec![meta(1)],
            vec![
                v4(1, 0, H, "10.0.0.1"),
                v6(1, H + 60, 2 * H),
                v4(1, 2 * H + 60, 3 * H, "10.0.0.2"),
            ],
        );
        assert_eq!(r.counts.dual_stack, 1);
        assert_eq!(r.counts.analyzable_geo, 0);
    }

    #[test]
    fn tagged_filtered() {
        let mut m = meta(1);
        m.tags = vec![ProbeTag::Datacentre];
        let r = run(
            vec![m],
            vec![v4(1, 0, H, "10.0.0.1"), v4(1, 2 * H, 3 * H, "10.0.0.2")],
        );
        assert_eq!(r.counts.tagged, 1);
    }

    #[test]
    fn alternating_detected_as_multihomed() {
        // A,B,A,C,A,D,A — returns to A three times.
        let seq = [
            "10.0.0.1", "10.0.0.2", "10.0.0.1", "10.0.0.3", "10.0.0.1", "10.0.0.4", "10.0.0.1",
        ];
        let conns: Vec<_> = seq
            .iter()
            .enumerate()
            .map(|(i, a)| v4(1, i as i64 * 2 * H, i as i64 * 2 * H + H, a))
            .collect();
        let r = run(vec![meta(1)], conns);
        assert_eq!(r.counts.multihomed, 1);
    }

    #[test]
    fn birthday_collisions_are_not_multihomed() {
        // A year of daily changes may re-draw old addresses a few times —
        // but different ones each time. Not multihoming.
        let seq = [
            "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.1", "10.0.0.4", "10.0.0.2", "10.0.0.5",
            "10.0.0.3", "10.0.0.6",
        ];
        let conns: Vec<_> = seq
            .iter()
            .enumerate()
            .map(|(i, a)| v4(1, i as i64 * 2 * H, i as i64 * 2 * H + H, a))
            .collect();
        let r = run(vec![meta(1)], conns);
        assert_eq!(r.counts.multihomed, 0);
        assert_eq!(r.counts.analyzable_geo, 1);
    }

    #[test]
    fn organic_changes_are_not_multihomed() {
        let seq = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"];
        let conns: Vec<_> = seq
            .iter()
            .enumerate()
            .map(|(i, a)| v4(1, i as i64 * 2 * H, i as i64 * 2 * H + H, a))
            .collect();
        let r = run(vec![meta(1)], conns);
        assert_eq!(r.counts.analyzable_geo, 1);
        assert_eq!(r.counts.multihomed, 0);
    }

    #[test]
    fn never_changed() {
        let r = run(
            vec![meta(1)],
            vec![v4(1, 0, H, "10.0.0.1"), v4(1, 2 * H, 3 * H, "10.0.0.1")],
        );
        assert_eq!(r.counts.never_changed, 1);
    }

    #[test]
    fn testing_only() {
        let r = run(
            vec![meta(1)],
            vec![
                v4(1, 0, H, "193.0.0.78"),
                v4(1, 2 * H, 3 * H, "10.0.0.1"),
                v4(1, 4 * H, 5 * H, "10.0.0.1"),
            ],
        );
        assert_eq!(r.counts.testing_only, 1);
        assert_eq!(
            r.counts.never_changed, 0,
            "testing probes are their own bucket"
        );
    }

    #[test]
    fn testing_entry_stripped_but_probe_analyzable_with_real_changes() {
        let r = run(
            vec![meta(1)],
            vec![
                v4(1, 0, H, "193.0.0.78"),
                v4(1, 2 * H, 3 * H, "10.0.0.1"),
                v4(1, 4 * H, 5 * H, "10.0.0.2"),
            ],
        );
        assert_eq!(r.counts.analyzable_geo, 1);
        // The testing→real transition is not a change.
        assert_eq!(r.probes[0].events.changes.len(), 1);
        assert!(r.probes[0].events.had_testing_entry);
    }

    #[test]
    fn multi_as_probes_flagged_and_counted() {
        let r = run(
            vec![meta(1)],
            vec![
                v4(1, 0, H, "10.0.0.1"),
                v4(1, 2 * H, 3 * H, "20.0.0.1"), // cross-AS
                v4(1, 4 * H, 5 * H, "20.0.0.2"),
            ],
        );
        assert_eq!(r.counts.analyzable_geo, 1);
        assert_eq!(r.counts.multi_as, 1);
        assert_eq!(r.counts.analyzable_as, 0);
        let p = &r.probes[0];
        assert!(p.multi_as);
        assert_eq!(
            p.same_as_changes(),
            vec![1],
            "only the within-AS change survives"
        );
    }

    #[test]
    fn same_as_durations_drop_spans_bounded_by_cross_as_changes() {
        let r = run(
            vec![meta(1)],
            vec![
                v4(1, 0, H, "10.0.0.1"),
                v4(1, 2 * H, 10 * H, "10.0.0.2"), // span bounded by within-AS + cross-AS
                v4(1, 11 * H, 20 * H, "20.0.0.1"), // cross-AS span, bounded cross/within
                v4(1, 21 * H, 30 * H, "20.0.0.2"),
            ],
        );
        let p = &r.probes[0];
        // Changes: 10.1→10.2 (same), 10.2→20.1 (cross), 20.1→20.2 (same).
        assert_eq!(p.events.changes.len(), 3);
        // Complete spans: 10.0.0.2 and 20.0.0.1, both touching the cross-AS
        // change — neither is a valid within-AS duration.
        assert!(p.same_as_durations().is_empty());
    }

    #[test]
    fn primary_asn_is_time_weighted() {
        let r = run(
            vec![meta(1)],
            vec![
                v4(1, 0, H, "10.0.0.1"),
                v4(1, 2 * H, 50 * H, "20.0.0.1"),
                v4(1, 51 * H, 52 * H, "10.0.0.2"),
            ],
        );
        assert_eq!(r.probes[0].primary_asn, Asn(200));
    }

    #[test]
    fn funnel_is_identical_at_any_worker_count() {
        // The Table 2 verdicts fan out through par_map: counts, class map,
        // and probe order must not depend on how the probe list is chunked.
        let mut m_tag = meta(4);
        m_tag.tags = vec![ProbeTag::Core];
        let metas = vec![meta(1), meta(2), meta(3), m_tag, meta(5)];
        let conns = vec![
            v4(1, 0, H, "10.0.0.1"),
            v4(1, 2 * H, 3 * H, "10.0.0.2"),
            v4(2, 0, H, "10.0.0.9"),
            v6(3, 0, H),
            v4(4, 0, H, "10.0.0.5"),
            v4(5, 0, H, "10.0.0.7"),
            v4(5, 2 * H, 3 * H, "20.0.0.7"), // cross-AS: multi_as probe
        ];
        let shape = |r: &FilterReport| {
            (
                r.counts.clone(),
                r.classes.clone(),
                r.probes
                    .iter()
                    .map(|p| (p.probe().0, p.multi_as, p.primary_asn))
                    .collect::<Vec<_>>(),
            )
        };
        dynaddr_exec::set_threads(Some(1));
        let seq = shape(&run(metas.clone(), conns.clone()));
        for threads in [2, 3, 64] {
            dynaddr_exec::set_threads(Some(threads));
            assert_eq!(
                shape(&run(metas.clone(), conns.clone())),
                seq,
                "threads={threads}"
            );
        }
        dynaddr_exec::set_threads(None);
    }

    #[test]
    fn funnel_counts_are_exhaustive() {
        let mut m_tag = meta(4);
        m_tag.tags = vec![ProbeTag::Core];
        let r = run(
            vec![meta(1), meta(2), meta(3), m_tag],
            vec![
                // 1: analyzable
                v4(1, 0, H, "10.0.0.1"),
                v4(1, 2 * H, 3 * H, "10.0.0.2"),
                // 2: never changed
                v4(2, 0, H, "10.0.0.9"),
                // 3: v6 only
                v6(3, 0, H),
                // 4: tagged
                v4(4, 0, H, "10.0.0.5"),
            ],
        );
        let c = &r.counts;
        assert_eq!(c.total, 4);
        assert_eq!(
            c.never_changed
                + c.dual_stack
                + c.ipv6_only
                + c.tagged
                + c.multihomed
                + c.testing_only
                + c.analyzable_geo,
            c.total
        );
        assert_eq!(c.analyzable_as + c.multi_as, c.analyzable_geo);
    }
}
