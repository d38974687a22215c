//! Address-change and address-duration extraction from connection logs
//! (§3.1, Table 1).
//!
//! An address change is inferred when consecutive connection-log entries of
//! a probe carry different peer addresses: the change happened somewhere in
//! the gap between the end of one connection and the start of the next. An
//! *address span* is the maximal run of consecutive entries sharing one
//! address; its duration (last end − first start) is only meaningful when
//! the span is bounded by observed changes on both sides — the first and
//! last spans of a probe have unknown durations, exactly as in Table 1.

use dynaddr_atlas::logs::{testing_address, ConnectionLogEntry};
use dynaddr_types::{ProbeId, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// One inferred address change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressChange {
    /// The probe.
    pub probe: ProbeId,
    /// End of the last connection using the old address.
    pub gap_start: SimTime,
    /// Start of the first connection using the new address.
    pub gap_end: SimTime,
    /// The old address.
    pub from: Ipv4Addr,
    /// The new address.
    pub to: Ipv4Addr,
}

/// A maximal run of connections sharing one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpan {
    /// The probe.
    pub probe: ProbeId,
    /// The address held.
    pub addr: Ipv4Addr,
    /// Start of the first connection with this address.
    pub start: SimTime,
    /// End of the last connection with this address.
    pub end: SimTime,
    /// Whether the span is bounded by observed changes on both sides, i.e.
    /// its duration is a true address duration.
    pub complete: bool,
}

impl AddressSpan {
    /// The measured duration (meaningful only when `complete`).
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// An inter-connection gap: the window in which the TCP connection to the
/// controller was down. Every address change lives in a gap, but most gaps
/// carry no change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gap {
    /// The probe.
    pub probe: ProbeId,
    /// End of the earlier connection.
    pub start: SimTime,
    /// Start of the later connection.
    pub end: SimTime,
    /// Whether the address differed across the gap.
    pub address_changed: bool,
}

/// Extraction results for one probe.
#[derive(Debug, Clone, Default)]
pub struct ProbeEvents {
    /// Observed address changes, in time order.
    pub changes: Vec<AddressChange>,
    /// Address spans, in time order.
    pub spans: Vec<AddressSpan>,
    /// All inter-connection gaps, in time order.
    pub gaps: Vec<Gap>,
    /// Whether a leading entry from the RIPE testing address was removed.
    pub had_testing_entry: bool,
}

impl ProbeEvents {
    /// Durations of all complete spans.
    pub fn durations(&self) -> Vec<SimDuration> {
        self.spans
            .iter()
            .filter(|s| s.complete)
            .map(|s| s.duration())
            .collect()
    }
}

/// Removes leading connection-log entries from the RIPE NCC testing address
/// 193.0.0.78 (§3.3). Returns whether anything was removed.
pub fn strip_testing_entries(entries: &mut Vec<ConnectionLogEntry>) -> bool {
    let testing = testing_address();
    let lead = entries
        .iter()
        .take_while(|e| e.peer.v4() == Some(testing))
        .count();
    if lead > 0 {
        entries.drain(..lead);
        true
    } else {
        false
    }
}

/// Incremental change/span/gap extractor for one probe: the state machine
/// behind [`extract_events`], usable one entry at a time.
///
/// Feed IPv4 entries in start-time order with [`push`](Self::push); call
/// [`finish`](Self::finish) to seal the trailing span. The machine carries
/// only the open span (start, end, address, left-bound flag) between pushes,
/// so a resident daemon can hold one per probe at O(1) state beyond the
/// emitted events. Replaying a full entry sequence through it yields the
/// identical [`ProbeEvents`] the batch scan produces.
#[derive(Debug, Clone, Default)]
pub struct EventExtractor {
    events: ProbeEvents,
    /// Open-span state; `None` until the first entry arrives.
    open: Option<OpenSpan>,
}

#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    probe: ProbeId,
    start: SimTime,
    end: SimTime,
    addr: Ipv4Addr,
    has_left_bound: bool,
}

impl EventExtractor {
    /// A fresh extractor with no entries seen.
    pub fn new() -> EventExtractor {
        EventExtractor::default()
    }

    /// Feeds the next connection-log entry (IPv4, start-time order).
    pub fn push(&mut self, e: &ConnectionLogEntry) {
        let next_addr = e.peer.v4().expect("v4 entries only");
        let Some(span) = self.open.as_mut() else {
            self.open = Some(OpenSpan {
                probe: e.probe,
                start: e.start,
                end: e.end,
                addr: next_addr,
                has_left_bound: false,
            });
            return;
        };
        debug_assert_eq!(span.probe, e.probe);
        let changed = next_addr != span.addr;
        self.events.gaps.push(Gap {
            probe: span.probe,
            start: span.end,
            end: e.start,
            address_changed: changed,
        });
        if changed {
            self.events.changes.push(AddressChange {
                probe: span.probe,
                gap_start: span.end,
                gap_end: e.start,
                from: span.addr,
                to: next_addr,
            });
            self.events.spans.push(AddressSpan {
                probe: span.probe,
                addr: span.addr,
                start: span.start,
                end: span.end,
                complete: span.has_left_bound,
            });
            span.start = e.start;
            span.addr = next_addr;
            span.has_left_bound = true;
        }
        span.end = e.end;
    }

    /// The changes emitted so far (grows as entries are pushed).
    pub fn changes(&self) -> &[AddressChange] {
        &self.events.changes
    }

    /// The gaps emitted so far.
    pub fn gaps(&self) -> &[Gap] {
        &self.events.gaps
    }

    /// Seals the trailing span (never right-bounded) and returns the
    /// extraction results.
    pub fn finish(mut self) -> ProbeEvents {
        if let Some(span) = self.open.take() {
            self.events.spans.push(AddressSpan {
                probe: span.probe,
                addr: span.addr,
                start: span.start,
                end: span.end,
                complete: false,
            });
        }
        self.events
    }
}

/// Extracts changes, spans, and gaps from one probe's IPv4 connection-log
/// entries (already sorted by start time; non-IPv4 entries must be removed
/// beforehand — see the filtering module for the dual-stack rationale).
/// Batch driver over [`EventExtractor`].
pub fn extract_events(entries: &[ConnectionLogEntry]) -> ProbeEvents {
    debug_assert!(entries.windows(2).all(|p| p[0].probe == p[1].probe));
    let mut m = EventExtractor::new();
    for e in entries {
        m.push(e);
    }
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_atlas::logs::PeerAddr;

    fn entry(start: i64, end: i64, addr: &str) -> ConnectionLogEntry {
        ConnectionLogEntry {
            probe: ProbeId(206),
            start: SimTime(start),
            end: SimTime(end),
            peer: PeerAddr::V4(addr.parse().unwrap()),
        }
    }

    const H: i64 = 3_600;

    #[test]
    fn empty_input() {
        let ev = extract_events(&[]);
        assert!(ev.changes.is_empty());
        assert!(ev.spans.is_empty());
        assert!(ev.gaps.is_empty());
    }

    #[test]
    fn single_entry_has_one_incomplete_span() {
        let ev = extract_events(&[entry(0, 10 * H, "10.0.0.1")]);
        assert!(ev.changes.is_empty());
        assert_eq!(ev.spans.len(), 1);
        assert!(!ev.spans[0].complete);
        assert!(ev.durations().is_empty());
    }

    #[test]
    fn table1_shape_seven_changes_six_durations() {
        // Mirrors the paper's Table 1: 8 entries, 7 changes, but only the
        // middle 6 spans have known durations.
        let addrs = [
            "91.55.174.103",
            "91.55.169.37",
            "91.55.132.252",
            "91.55.155.115",
            "91.55.141.95",
            "91.55.165.167",
            "91.55.163.252",
            "91.55.141.63",
        ];
        let mut entries = Vec::new();
        for (i, a) in addrs.iter().enumerate() {
            let t0 = i as i64 * 24 * H;
            entries.push(entry(t0, t0 + 23 * H, a));
        }
        let ev = extract_events(&entries);
        assert_eq!(ev.changes.len(), 7);
        assert_eq!(ev.spans.len(), 8);
        assert_eq!(ev.durations().len(), 6);
        assert!(!ev.spans[0].complete, "first duration unknown");
        assert!(!ev.spans[7].complete, "last duration unknown");
        for d in ev.durations() {
            assert_eq!(d, SimDuration::from_hours(23));
        }
    }

    #[test]
    fn consecutive_same_address_entries_merge() {
        let entries = vec![
            entry(0, 5 * H, "10.0.0.1"),
            entry(5 * H + 60, 10 * H, "10.0.0.1"),
            entry(10 * H + 60, 20 * H, "10.0.0.2"),
            entry(20 * H + 60, 30 * H, "10.0.0.3"),
        ];
        let ev = extract_events(&entries);
        assert_eq!(ev.changes.len(), 2);
        assert_eq!(ev.spans.len(), 3);
        // The merged first span runs from the first entry's start to the
        // second entry's end.
        assert_eq!(ev.spans[0].start, SimTime(0));
        assert_eq!(ev.spans[0].end, SimTime(10 * H));
        // Middle span is the only complete one.
        let complete: Vec<_> = ev.spans.iter().filter(|s| s.complete).collect();
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].addr, "10.0.0.2".parse::<Ipv4Addr>().unwrap());
        assert_eq!(
            complete[0].duration(),
            SimDuration::from_secs(20 * H - (10 * H + 60))
        );
    }

    #[test]
    fn gaps_cover_every_pair() {
        let entries = vec![
            entry(0, H, "10.0.0.1"),
            entry(H + 100, 2 * H, "10.0.0.1"),
            entry(2 * H + 100, 3 * H, "10.0.0.2"),
        ];
        let ev = extract_events(&entries);
        assert_eq!(ev.gaps.len(), 2);
        assert!(!ev.gaps[0].address_changed);
        assert!(ev.gaps[1].address_changed);
        assert_eq!(ev.gaps[0].start, SimTime(H));
        assert_eq!(ev.gaps[0].end, SimTime(H + 100));
    }

    #[test]
    fn testing_entries_stripped_only_at_front() {
        let mut entries = vec![
            entry(0, 10, "193.0.0.78"),
            entry(100, 200, "10.0.0.1"),
            entry(300, 400, "10.0.0.2"),
        ];
        assert!(strip_testing_entries(&mut entries));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].peer.v4().unwrap().to_string(), "10.0.0.1");

        let mut no_testing = vec![entry(0, 10, "10.0.0.1")];
        assert!(!strip_testing_entries(&mut no_testing));
        assert_eq!(no_testing.len(), 1);
    }

    #[test]
    fn incremental_extractor_matches_batch_scan() {
        let entries = vec![
            entry(0, H, "10.0.0.1"),
            entry(H + 60, 2 * H, "10.0.0.1"),
            entry(2 * H + 60, 3 * H, "10.0.0.2"),
            entry(3 * H + 60, 4 * H, "10.0.0.1"),
            entry(4 * H + 60, 5 * H, "10.0.0.3"),
        ];
        let batch = extract_events(&entries);
        let mut m = EventExtractor::new();
        for (i, e) in entries.iter().enumerate() {
            m.push(e);
            // Mid-stream views never run ahead of the final results.
            assert!(m.changes().len() <= batch.changes.len());
            assert_eq!(m.gaps().len(), i);
        }
        let inc = m.finish();
        assert_eq!(inc.changes, batch.changes);
        assert_eq!(inc.spans, batch.spans);
        assert_eq!(inc.gaps, batch.gaps);
    }

    #[test]
    fn change_to_same_address_later_counts_as_two_changes() {
        // A→B→A: two changes, and the middle B span is complete.
        let entries = vec![
            entry(0, H, "10.0.0.1"),
            entry(H + 60, 2 * H, "10.0.0.2"),
            entry(2 * H + 60, 3 * H, "10.0.0.1"),
        ];
        let ev = extract_events(&entries);
        assert_eq!(ev.changes.len(), 2);
        assert_eq!(ev.durations().len(), 1);
    }
}
