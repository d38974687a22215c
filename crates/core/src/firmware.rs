//! Firmware-update reboot filtering (§5.2, Fig. 6).
//!
//! RIPE Atlas pushes firmware updates to all probes at once; each probe
//! reboots to install the update when its controller connection next
//! breaks. These reboots are *effects* of connection breaks, not causes, so
//! they must not count as power outages. The paper identifies update days
//! as spikes in the daily count of unique rebooting probes (more than twice
//! the median for at least two consecutive days) and discards the first
//! reboot of each probe after each update day.

use crate::outages::Reboot;
use crate::stats::median_usize;
use dynaddr_types::time::DAY;
use dynaddr_types::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashSet};

/// Daily reboot counts plus the detected update days — the data behind
/// Fig. 6.
#[derive(Debug, Clone)]
pub struct RebootSeries {
    /// Unique probes that rebooted on each day of the year (index = day).
    pub daily_unique_probes: Vec<usize>,
    /// Median of the daily counts.
    pub median: f64,
    /// First day of each detected spike period (the inferred update dates).
    pub update_days: Vec<i64>,
}

/// Spike multiplier over the median (paper: "more than twice the median").
pub const SPIKE_FACTOR: f64 = 2.0;
/// Minimum consecutive spike days (paper: "at least two consecutive days").
pub const SPIKE_MIN_RUN: usize = 2;

/// Builds the Fig. 6 series and detects firmware-update days.
pub fn reboot_series(reboots: &[Reboot]) -> RebootSeries {
    let mut daily: Vec<HashSet<u32>> = vec![HashSet::new(); 365];
    for r in reboots {
        let day = r.boot_time.day_of_year();
        if (0..365).contains(&day) {
            daily[day as usize].insert(r.probe.0);
        }
    }
    let daily_unique_probes: Vec<usize> = daily.iter().map(|s| s.len()).collect();
    let median = median_usize(&daily_unique_probes).unwrap_or(0.0);

    // Maximal runs of days exceeding twice the median, at least two long.
    let threshold = SPIKE_FACTOR * median;
    let mut update_days = Vec::new();
    let mut run_start: Option<usize> = None;
    for day in 0..=daily_unique_probes.len() {
        let spiking = day < daily_unique_probes.len()
            && median > 0.0
            && daily_unique_probes[day] as f64 > threshold;
        match (spiking, run_start) {
            (true, None) => run_start = Some(day),
            (false, Some(start)) => {
                if day - start >= SPIKE_MIN_RUN {
                    update_days.push(start as i64);
                }
                run_start = None;
            }
            _ => {}
        }
    }
    RebootSeries {
        daily_unique_probes,
        median,
        update_days,
    }
}

/// Removes, for each probe, its first reboot at or after each update day
/// (within a grace window — updates stagger over a day or two).
pub fn strip_firmware_reboots(reboots: &[Reboot], update_days: &[i64]) -> Vec<Reboot> {
    let window = SimDuration::from_days(3);
    // For each probe, the reboot indices to discard.
    let mut discard: HashSet<usize> = HashSet::new();
    let mut by_probe: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, r) in reboots.iter().enumerate() {
        by_probe.entry(r.probe.0).or_default().push(i);
    }
    for indices in by_probe.values() {
        for &day in update_days {
            let day_start = SimTime(day * DAY);
            let first = indices.iter().copied().find(|&i| {
                let t = reboots[i].boot_time;
                t >= day_start && t - day_start <= window && !discard.contains(&i)
            });
            if let Some(i) = first {
                discard.insert(i);
            }
        }
    }
    reboots
        .iter()
        .enumerate()
        .filter(|(i, _)| !discard.contains(i))
        .map(|(_, r)| *r)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaddr_types::ProbeId;

    fn reboot(probe: u32, day: i64, secs: i64) -> Reboot {
        Reboot {
            probe: ProbeId(probe),
            boot_time: SimTime(day * DAY + secs),
            report_time: SimTime(day * DAY + secs + 60),
        }
    }

    /// Background: one reboot per day from rotating probes; spikes on two
    /// consecutive days where many probes reboot.
    fn synthetic(spike_days: &[i64]) -> Vec<Reboot> {
        let mut v = Vec::new();
        for day in 0..365 {
            v.push(reboot(1_000 + (day % 50) as u32, day, 3_600));
            v.push(reboot(2_000 + (day % 50) as u32, day, 7_200));
        }
        for &d in spike_days {
            for probe in 0..40u32 {
                v.push(reboot(probe, d, 1_800 + i64::from(probe)));
                v.push(reboot(probe, d + 1, 1_800 + i64::from(probe)));
            }
        }
        v
    }

    #[test]
    fn detects_spike_runs() {
        let reboots = synthetic(&[100, 250]);
        let series = reboot_series(&reboots);
        assert_eq!(series.median, 2.0);
        assert_eq!(series.update_days, vec![100, 250]);
        assert_eq!(series.daily_unique_probes[100], 42);
        assert_eq!(series.daily_unique_probes[99], 2);
    }

    #[test]
    fn single_day_spike_ignored() {
        let mut reboots = synthetic(&[]);
        for probe in 0..40u32 {
            reboots.push(reboot(probe, 180, 900));
        }
        let series = reboot_series(&reboots);
        assert!(series.update_days.is_empty(), "{:?}", series.update_days);
    }

    #[test]
    fn strip_removes_one_reboot_per_probe_per_update() {
        let reboots = synthetic(&[100]);
        let series = reboot_series(&reboots);
        let stripped = strip_firmware_reboots(&reboots, &series.update_days);
        // Each of the 40 spike probes loses exactly one reboot (its first
        // after day 100); the second spike-day reboot survives.
        let spike_before = reboots.iter().filter(|r| r.probe.0 < 40).count();
        let spike_after = stripped.iter().filter(|r| r.probe.0 < 40).count();
        assert_eq!(spike_before - spike_after, 40);
        // Background probes outside the window keep everything.
        let background_before = reboots.iter().filter(|r| r.probe.0 >= 1_000).count();
        let background_after = stripped.iter().filter(|r| r.probe.0 >= 1_000).count();
        // Background probes that happened to reboot on day 100/101 also get
        // one stripped — that is the paper's behaviour too (it cannot tell
        // which reboot was firmware-caused).
        assert!(background_before - background_after <= 8);
    }

    #[test]
    fn out_of_year_reboots_ignored_in_series() {
        let series = reboot_series(&[reboot(1, -3, 0), reboot(1, 400, 0)]);
        assert_eq!(series.daily_unique_probes.iter().sum::<usize>(), 0);
    }

    #[test]
    fn empty_input() {
        let series = reboot_series(&[]);
        assert_eq!(series.median, 0.0);
        assert!(series.update_days.is_empty());
        assert!(strip_firmware_reboots(&[], &[10]).is_empty());
    }
}
