//! Outage detection from the k-root ping and SOS-uptime datasets (§3.4–3.6).
//!
//! * **Network outages**: a maximal run of k-root records in which all pings
//!   were lost, with the LTS ("last time synchronised") value growing —
//!   two mostly-independent signals that the probe's network was down while
//!   the probe itself stayed up. The outage interval `[first, last]` of lost
//!   records underestimates the true outage by up to eight minutes, as the
//!   paper notes.
//! * **Reboots**: the SOS uptime counter resetting between consecutive
//!   records; the boot instant is `timestamp − uptime`.
//! * **Power outages**: a reboot coincident with *missing* k-root rounds —
//!   the probe was dark, so it wasn't a network outage. The outage duration
//!   is estimated as the gap between the k-root records bracketing the boot.

use dynaddr_atlas::logs::{KrootPingRecord, SosUptimeRecord};
use dynaddr_types::{ProbeId, SimDuration, SimTime};

/// Nominal spacing of k-root measurement rounds (four minutes).
pub const KROOT_GRID_SECS: i64 = 240;

/// A detected network outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkOutage {
    /// The probe.
    pub probe: ProbeId,
    /// Timestamp of the first all-lost record.
    pub start: SimTime,
    /// Timestamp of the last all-lost record.
    pub end: SimTime,
}

impl NetworkOutage {
    /// The measured duration (underestimates by up to ~8 minutes).
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A detected reboot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reboot {
    /// The probe.
    pub probe: ProbeId,
    /// The boot instant implied by the uptime counter.
    pub boot_time: SimTime,
    /// When the post-reboot record was reported.
    pub report_time: SimTime,
}

/// A detected power outage (reboot + missing pings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerOutage {
    /// The probe.
    pub probe: ProbeId,
    /// The boot instant ending the outage.
    pub boot_time: SimTime,
    /// Last k-root record before the dark period.
    pub dark_start: SimTime,
    /// First k-root record after the dark period.
    pub dark_end: SimTime,
}

impl PowerOutage {
    /// The estimated duration: the bracketing-ping gap (overestimates by up
    /// to ~8 minutes).
    pub fn duration(&self) -> SimDuration {
        self.dark_end - self.dark_start
    }
}

/// Incremental network-outage detector: the state machine behind
/// [`detect_network_outages`], usable one record at a time.
///
/// Between pushes it carries only the open all-lost run (bounds, first/last
/// LTS, monotonicity flag) plus the completed outages, so a resident daemon
/// holds O(1) state per probe beyond its output.
#[derive(Debug, Clone, Default)]
pub struct NetworkOutageDetector {
    out: Vec<NetworkOutage>,
    run: Option<LossRun>,
}

#[derive(Debug, Clone, Copy)]
struct LossRun {
    probe: ProbeId,
    start: SimTime,
    end: SimTime,
    single: bool,
    first_lts: i64,
    last_lts: i64,
    lts_monotonic: bool,
}

impl NetworkOutageDetector {
    /// A fresh detector with no records seen.
    pub fn new() -> NetworkOutageDetector {
        NetworkOutageDetector::default()
    }

    /// Feeds the next k-root record (time order).
    pub fn push(&mut self, rec: &KrootPingRecord) {
        if rec.all_lost() {
            match self.run.as_mut() {
                Some(run) => {
                    debug_assert!(run.end <= rec.timestamp, "sorted input");
                    run.end = rec.timestamp;
                    run.single = false;
                    run.lts_monotonic &= rec.lts_secs > run.last_lts;
                    run.last_lts = rec.lts_secs;
                }
                None => {
                    self.run = Some(LossRun {
                        probe: rec.probe,
                        start: rec.timestamp,
                        end: rec.timestamp,
                        single: true,
                        first_lts: rec.lts_secs,
                        last_lts: rec.lts_secs,
                        lts_monotonic: true,
                    });
                }
            }
        } else {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if let Some(run) = self.run.take() {
            let lts_grew = if run.single {
                run.first_lts > KROOT_GRID_SECS
            } else {
                run.lts_monotonic
            };
            if lts_grew {
                self.out.push(NetworkOutage {
                    probe: run.probe,
                    start: run.start,
                    end: run.end,
                });
            }
        }
    }

    /// The outages completed so far (an open loss run is not yet counted).
    pub fn outages(&self) -> &[NetworkOutage] {
        &self.out
    }

    /// Flushes the trailing run and returns all detected outages.
    pub fn finish(mut self) -> Vec<NetworkOutage> {
        self.flush();
        self.out
    }
}

/// Detects network outages in one probe's time-sorted k-root records.
///
/// A run qualifies when every record lost all pings and the LTS values are
/// strictly increasing across the run (a single lost round qualifies when
/// its LTS already exceeds the measurement cadence — the clock had not
/// synced for longer than one round). Batch driver over
/// [`NetworkOutageDetector`].
pub fn detect_network_outages(records: &[KrootPingRecord]) -> Vec<NetworkOutage> {
    let mut m = NetworkOutageDetector::new();
    for rec in records {
        m.push(rec);
    }
    m.finish()
}

/// Incremental reboot detector: the state machine behind [`detect_reboots`].
/// Carries only the previous uptime record between pushes.
#[derive(Debug, Clone, Default)]
pub struct RebootDetector {
    prev: Option<SosUptimeRecord>,
}

impl RebootDetector {
    /// A fresh detector with no records seen.
    pub fn new() -> RebootDetector {
        RebootDetector::default()
    }

    /// Feeds the next SOS-uptime record (time order); returns the reboot it
    /// reveals, if any.
    pub fn push(&mut self, rec: &SosUptimeRecord) -> Option<Reboot> {
        let prev = self.prev.replace(*rec)?;
        // Counter must have reset: the implied boot is after the previous
        // report (a merely-smaller counter from reordered records is not).
        if (rec.uptime_secs as i64) - (rec.timestamp - prev.timestamp).secs()
            < prev.uptime_secs as i64
            && rec.boot_time() > prev.timestamp
        {
            Some(Reboot {
                probe: rec.probe,
                boot_time: rec.boot_time(),
                report_time: rec.timestamp,
            })
        } else {
            None
        }
    }
}

/// Detects reboots in one probe's time-sorted SOS-uptime records: the
/// counter going backwards implies a reset in between. Batch driver over
/// [`RebootDetector`].
pub fn detect_reboots(records: &[SosUptimeRecord]) -> Vec<Reboot> {
    let mut m = RebootDetector::new();
    records.iter().filter_map(|rec| m.push(rec)).collect()
}

/// The k-root records bracketing one reboot's boot instant: `(timestamp of
/// the last record before boot, timestamp of the first record at/after
/// boot)`, or `None` when the boot falls before the first or after the last
/// k-root record.
pub type DarkBracket = Option<(SimTime, SimTime)>;

/// Incremental power-outage bracketer for one probe.
///
/// The batch rule brackets each reboot's boot instant between the k-root
/// records around it (`partition_point` over the full record array). This
/// machine reproduces those brackets from an interleaved time-ordered stream
/// of k-root timestamps and reboots while retaining only a short window of
/// k-root timestamps:
///
/// * a reboot whose boot instant is at or before the newest k-root record
///   resolves immediately by binary search over the retained window;
/// * otherwise it parks as *pending* until a k-root record at/after its boot
///   instant arrives (resolving with that record as the right bracket), or
///   until [`finish`](Self::finish) (no right bracket → `None`, matching the
///   batch `after_idx >= len` skip).
///
/// [`prune`](Self::prune) may drop retained timestamps `≤ bound` (keeping
/// the newest such, which is the only one a later boot can still bracket
/// with) whenever the caller knows every future reboot boots after `bound` —
/// true for the timestamp of any already-processed uptime record, because
/// the reboot rule requires `boot_time > prev.timestamp`. Pruning therefore
/// never changes the emitted brackets, only the memory held.
#[derive(Debug, Clone, Default)]
pub struct KrootBracketer {
    /// Retained k-root timestamps, ascending.
    window: std::collections::VecDeque<SimTime>,
    /// Reboots awaiting a k-root record at/after their boot instant.
    pending: Vec<Reboot>,
    /// Resolved `(reboot, bracket)` pairs, in reboot order.
    resolved: Vec<(Reboot, DarkBracket)>,
}

impl KrootBracketer {
    /// A fresh bracketer with no records seen.
    pub fn new() -> KrootBracketer {
        KrootBracketer::default()
    }

    /// Feeds the next k-root record timestamp (time order).
    pub fn push_kroot(&mut self, ts: SimTime) {
        debug_assert!(self.window.back().is_none_or(|&b| b <= ts), "sorted input");
        // This record is the first at/after every pending boot ≤ it: the
        // right bracket. The left bracket is the newest earlier record.
        if !self.pending.is_empty() {
            let take = self.pending.iter().take_while(|r| r.boot_time <= ts).count();
            for r in self.pending.drain(..take) {
                let bracket = self.window.back().map(|&before| (before, ts));
                self.resolved.push((r, bracket));
            }
        }
        self.window.push_back(ts);
    }

    /// Feeds the next detected reboot. Reboots must arrive in boot order,
    /// interleaved with k-root pushes such that every k-root record strictly
    /// before the boot instant has already been pushed (true when both
    /// streams are fed in record-time order: the reboot surfaces at its
    /// report time, which is at or after its boot time).
    pub fn push_reboot(&mut self, r: Reboot) {
        let idx = self.window.partition_point(|&ts| ts < r.boot_time);
        if idx == self.window.len() {
            self.pending.push(r);
        } else if idx == 0 {
            // No k-root record before the boot: the pruning contract keeps
            // the newest record ≤ any future boot, so an empty left side
            // here means there genuinely was none.
            self.resolved.push((r, None));
        } else {
            self.resolved.push((r, Some((self.window[idx - 1], self.window[idx]))));
        }
    }

    /// Drops retained k-root timestamps `≤ bound` except the newest such.
    /// Only call with a `bound` every future reboot is known to boot after
    /// (e.g. the timestamp of an uptime record already fed to the reboot
    /// detector).
    pub fn prune(&mut self, bound: SimTime) {
        while self.window.len() >= 2 && self.window[1] <= bound {
            self.window.pop_front();
        }
    }

    /// Resolves still-pending reboots (no right bracket → `None`) and
    /// returns all `(reboot, bracket)` pairs in reboot order.
    pub fn finish(mut self) -> Vec<(Reboot, DarkBracket)> {
        for r in self.pending.drain(..) {
            self.resolved.push((r, None));
        }
        self.resolved
    }
}

/// One probe's outage-side kernel output.
#[derive(Debug)]
pub(crate) struct ProbeOutages {
    /// Every detected reboot with its k-root bracket, in reboot order.
    pub(crate) brackets: Vec<(Reboot, DarkBracket)>,
    /// Completed network outages, in time order.
    pub(crate) network: Vec<NetworkOutage>,
}

/// The outage half of the per-probe kernel: [`RebootDetector`],
/// [`NetworkOutageDetector`] and [`KrootBracketer`] over one probe's k-root
/// and uptime records, fed in arrival order. Nothing here needs the
/// firmware update days, so every driver can run it in the same pass as
/// the funnel; the power-outage verdicts wait for the global finish.
#[derive(Debug, Clone, Default)]
pub(crate) struct OutageMachines {
    reboots: RebootDetector,
    netout: NetworkOutageDetector,
    bracketer: KrootBracketer,
}

/// Feeds one probe's time-sorted k-root and uptime rows to `sink` merged
/// in `replay_plan`'s arrival order: k-root first on equal timestamps.
/// Every probe-major driver feeds the outage machines through here.
pub(crate) fn in_arrival_order<S>(
    kroot: &[KrootPingRecord],
    uptime: &[SosUptimeRecord],
    sink: &mut S,
    mut on_kroot: impl FnMut(&mut S, &KrootPingRecord),
    mut on_uptime: impl FnMut(&mut S, &SosUptimeRecord),
) {
    let mut kroot = kroot.iter().peekable();
    for u in uptime {
        while let Some(r) = kroot.next_if(|r| r.timestamp <= u.timestamp) {
            on_kroot(sink, r);
        }
        on_uptime(sink, u);
    }
    kroot.for_each(|r| on_kroot(sink, r));
}

impl OutageMachines {
    /// Runs the machines over one probe's time-sorted rows, merged by
    /// [`in_arrival_order`].
    pub(crate) fn run(kroot: &[KrootPingRecord], uptime: &[SosUptimeRecord]) -> ProbeOutages {
        let mut m = OutageMachines::default();
        in_arrival_order(kroot, uptime, &mut m, |m, r| m.push_kroot(r), |m, u| {
            m.push_uptime(u);
        });
        m.finish()
    }

    /// Feeds the next k-root record (time order).
    pub(crate) fn push_kroot(&mut self, r: &KrootPingRecord) {
        self.netout.push(r);
        self.bracketer.push_kroot(r.timestamp);
    }

    /// Feeds the next SOS-uptime record (time order); returns whether it
    /// revealed a reboot.
    pub(crate) fn push_uptime(&mut self, r: &SosUptimeRecord) -> bool {
        let reboot = self.reboots.push(r);
        if let Some(reboot) = reboot {
            self.bracketer.push_reboot(reboot);
        }
        // Safe prune bound: every future reboot of this probe boots after
        // this record's timestamp (the reboot rule requires it).
        self.bracketer.prune(r.timestamp);
        reboot.is_some()
    }

    /// Completed network outages so far.
    pub(crate) fn network_outages(&self) -> usize {
        self.netout.outages().len()
    }

    /// Closes the open loss run and the pending brackets.
    pub(crate) fn finish(self) -> ProbeOutages {
        ProbeOutages { brackets: self.bracketer.finish(), network: self.netout.finish() }
    }
}

/// Applies the §3.6 power-outage rule to one bracketed reboot: the dark
/// window must span at least two measurement rounds (a round is missing) and
/// must not overlap a *network* outage (priority ordering).
pub fn classify_bracket(
    reboot: &Reboot,
    bracket: DarkBracket,
    network: &[NetworkOutage],
) -> Option<PowerOutage> {
    let (dark_start, dark_end) = bracket?;
    if (dark_end - dark_start).secs() < 2 * KROOT_GRID_SECS {
        return None; // no missing rounds: not a power outage
    }
    let overlaps_network =
        network.iter().any(|n| n.end >= dark_start && n.start <= dark_end);
    if overlaps_network {
        return None;
    }
    Some(PowerOutage {
        probe: reboot.probe,
        boot_time: reboot.boot_time,
        dark_start,
        dark_end,
    })
}

/// Classifies reboots into power outages using the k-root record stream.
///
/// A reboot is a power outage when the k-root rounds around the boot show a
/// dark period: the gap between the bracketing records spans at least two
/// measurement rounds (i.e., at least one round is missing), and the records
/// inside the gap (there are none, by construction of the brackets) did not
/// already mark it as a *network* outage. Batch driver over
/// [`KrootBracketer`] + [`classify_bracket`] for callers holding one
/// probe's rows; the pipeline classifies the same brackets in its finish.
pub fn detect_power_outages(
    reboots: &[Reboot],
    kroot: &[KrootPingRecord],
    network: &[NetworkOutage],
) -> Vec<PowerOutage> {
    let mut m = KrootBracketer::new();
    let mut ki = 0;
    for reboot in reboots {
        while ki < kroot.len() && kroot[ki].timestamp <= reboot.report_time {
            m.push_kroot(kroot[ki].timestamp);
            ki += 1;
        }
        m.push_reboot(*reboot);
        m.prune(reboot.report_time);
    }
    for rec in &kroot[ki..] {
        m.push_kroot(rec.timestamp);
    }
    m.finish()
        .into_iter()
        .filter_map(|(r, bracket)| classify_bracket(&r, bracket, network))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: i64, success: u8, lts: i64) -> KrootPingRecord {
        KrootPingRecord {
            probe: ProbeId(16893),
            timestamp: SimTime(ts),
            sent: 3,
            success,
            lts_secs: lts,
        }
    }

    fn sos(ts: i64, uptime: u64) -> SosUptimeRecord {
        SosUptimeRecord { probe: ProbeId(206), timestamp: SimTime(ts), uptime_secs: uptime }
    }

    #[test]
    fn paper_table3_example() {
        // Table 3: outage from 09:05:48 to 09:21:40 (offsets in seconds).
        let records = vec![
            rec(0, 3, 86),
            rec(246, 0, 151),
            rec(483, 0, 388),
            rec(714, 0, 619),
            rec(967, 0, 872),
            rec(1198, 0, 1103),
            rec(1437, 3, 1342),
            rec(1674, 3, 146),
        ];
        let outages = detect_network_outages(&records);
        assert_eq!(outages.len(), 1);
        assert_eq!(outages[0].start, SimTime(246));
        assert_eq!(outages[0].end, SimTime(1198));
        assert_eq!(outages[0].duration(), SimDuration::from_secs(952));
    }

    #[test]
    fn loss_without_growing_lts_is_not_an_outage() {
        // Lost pings but the probe kept syncing its clock: k-root itself had
        // trouble, not the probe's network.
        let records = vec![rec(0, 3, 100), rec(240, 0, 90), rec(480, 0, 85), rec(720, 3, 95)];
        assert!(detect_network_outages(&records).is_empty());
    }

    #[test]
    fn single_lost_round_with_high_lts_detected() {
        let records = vec![rec(0, 3, 100), rec(240, 0, 340), rec(480, 3, 60)];
        let outages = detect_network_outages(&records);
        assert_eq!(outages.len(), 1);
        assert_eq!(outages[0].start, outages[0].end);
    }

    #[test]
    fn single_lost_round_with_low_lts_ignored() {
        let records = vec![rec(0, 3, 100), rec(240, 0, 120), rec(480, 3, 60)];
        assert!(detect_network_outages(&records).is_empty());
    }

    #[test]
    fn back_to_back_outages_split_by_success() {
        let records = vec![
            rec(0, 3, 50),
            rec(240, 0, 290),
            rec(480, 0, 530),
            rec(720, 3, 40),
            rec(960, 0, 280),
            rec(1200, 3, 30),
        ];
        let outages = detect_network_outages(&records);
        assert_eq!(outages.len(), 2);
    }

    #[test]
    fn reboot_detection_matches_table4() {
        // Table 4: 315,038 s of uptime, then a 19 s record → boot 19 s
        // before its timestamp.
        let records = vec![sos(0, 262_531), sos(52_508, 315_038), sos(52_537, 19)];
        let reboots = detect_reboots(&records);
        assert_eq!(reboots.len(), 1);
        assert_eq!(reboots[0].boot_time, SimTime(52_537 - 19));
    }

    #[test]
    fn growing_uptime_is_not_a_reboot() {
        let records = vec![sos(0, 100), sos(1_000, 1_100), sos(5_000, 5_100)];
        assert!(detect_reboots(&records).is_empty());
    }

    #[test]
    fn power_outage_requires_missing_rounds() {
        let reboot = Reboot {
            probe: ProbeId(1),
            boot_time: SimTime(1_000),
            report_time: SimTime(1_060),
        };
        // Dark period: records at 240 and 1_200 bracket the boot (4 rounds
        // missing).
        let kroot = vec![rec(0, 3, 50), rec(240, 3, 60), rec(1_200, 3, 70)];
        let power = detect_power_outages(&[reboot], &kroot, &[]);
        assert_eq!(power.len(), 1);
        assert_eq!(power[0].dark_start, SimTime(240));
        assert_eq!(power[0].dark_end, SimTime(1_200));
        assert_eq!(power[0].duration(), SimDuration::from_secs(960));

        // Same reboot with a complete ping grid: no power outage.
        let dense: Vec<KrootPingRecord> =
            (0..8).map(|i| rec(i * 240, 3, 50 + i)).collect();
        assert!(detect_power_outages(&[reboot], &dense, &[]).is_empty());
    }

    #[test]
    fn network_outage_takes_priority_over_power() {
        let reboot = Reboot {
            probe: ProbeId(1),
            boot_time: SimTime(1_000),
            report_time: SimTime(1_100),
        };
        let kroot = vec![rec(0, 3, 50), rec(240, 3, 60), rec(1_200, 3, 70)];
        let network = vec![NetworkOutage {
            probe: ProbeId(1),
            start: SimTime(400),
            end: SimTime(900),
        }];
        assert!(detect_power_outages(&[reboot], &kroot, &network).is_empty());
    }

    #[test]
    fn empty_inputs() {
        assert!(detect_network_outages(&[]).is_empty());
        assert!(detect_reboots(&[]).is_empty());
        assert!(detect_power_outages(&[], &[], &[]).is_empty());
    }
}
