//! Monthly route-table snapshots, mirroring CAIDA's monthly pfx2as releases.
//!
//! §3.3 of the paper: *"CAIDA publishes the IP-to-AS dataset monthly; thus,
//! we found the month in which a new IP address was assigned to a probe and
//! used CAIDA's IP-to-AS dataset for that month to find the AS for that
//! address."* This module stores one [`RouteTable`] per month of 2015 and
//! routes queries by [`SimTime`].

use crate::table::{Origin, RouteTable};
use dynaddr_types::{Asn, Prefix, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Twelve monthly route-table snapshots for the 2015 measurement year.
///
/// Months are shared via [`Arc`] so the common case — a table that never
/// changes during the year — costs one table, not twelve.
#[derive(Debug, Clone)]
pub struct MonthlySnapshots {
    months: [Arc<RouteTable>; 12],
}

impl MonthlySnapshots {
    /// Uses the same table for all twelve months.
    pub fn uniform(table: RouteTable) -> MonthlySnapshots {
        let shared = Arc::new(table);
        MonthlySnapshots {
            months: std::array::from_fn(|_| Arc::clone(&shared)),
        }
    }

    /// Builds from twelve per-month tables (January first).
    pub fn from_months(tables: [RouteTable; 12]) -> MonthlySnapshots {
        let mut iter = tables.into_iter().map(Arc::new);
        MonthlySnapshots {
            months: std::array::from_fn(|_| iter.next().expect("12 tables")),
        }
    }

    /// Replaces snapshots from `month` (1-based) through December — the
    /// shape of an administrative renumbering that persists.
    pub fn set_from_month(&mut self, month: u32, table: RouteTable) {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        let shared = Arc::new(table);
        for m in (month as usize - 1)..12 {
            self.months[m] = Arc::clone(&shared);
        }
    }

    /// The snapshot for a 1-based month number.
    pub fn month(&self, month: u32) -> &RouteTable {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        &self.months[month as usize - 1]
    }

    /// The snapshot covering an instant (clamped to the 2015 year ends).
    pub fn at(&self, time: SimTime) -> &RouteTable {
        self.month(time.month_of_2015())
    }

    /// Origin lookup using the snapshot for the instant's month.
    pub fn origin_at(&self, time: SimTime, addr: Ipv4Addr) -> Option<Origin> {
        self.at(time).origin(addr)
    }

    /// Origin AS at the instant; `Asn::UNKNOWN` when unannounced.
    pub fn asn_at(&self, time: SimTime, addr: Ipv4Addr) -> Asn {
        self.at(time).asn_of(addr)
    }

    /// BGP prefix at the instant, if announced.
    pub fn prefix_at(&self, time: SimTime, addr: Ipv4Addr) -> Option<Prefix> {
        self.origin_at(time, addr).map(|o| o.prefix)
    }

    /// Writes the twelve snapshots as `2015-01.pfx2as` … `2015-12.pfx2as`
    /// in CAIDA's text format. Identical consecutive months share content
    /// but are written separately (as CAIDA publishes them).
    pub fn save_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for month in 1..=12u32 {
            let path = dir.join(format!("2015-{month:02}.pfx2as"));
            std::fs::write(path, self.month(month).to_pfx2as())?;
        }
        Ok(())
    }

    /// Loads snapshots written by [`MonthlySnapshots::save_dir`].
    pub fn load_dir(dir: &std::path::Path) -> std::io::Result<MonthlySnapshots> {
        let mut months = Vec::with_capacity(12);
        for month in 1..=12u32 {
            let path = dir.join(format!("2015-{month:02}.pfx2as"));
            let text = std::fs::read_to_string(&path)?;
            let table: RouteTable = text.parse().map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            months.push(table);
        }
        Ok(MonthlySnapshots::from_months(
            months.try_into().expect("exactly 12 months"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn jan(day: u32) -> SimTime {
        SimTime::from_date(1, day, 12, 0, 0)
    }

    #[test]
    fn uniform_answers_every_month() {
        let mut t = RouteTable::new();
        t.announce(p("91.55.0.0/16"), Asn(3320));
        let snaps = MonthlySnapshots::uniform(t);
        for month in 1..=12 {
            let time = SimTime::from_date(month, 15, 0, 0, 0);
            assert_eq!(snaps.asn_at(time, a("91.55.1.1")), Asn(3320));
        }
    }

    #[test]
    fn set_from_month_models_admin_renumbering() {
        let mut before = RouteTable::new();
        before.announce(p("10.0.0.0/16"), Asn(64500));
        let mut after = RouteTable::new();
        after.announce(p("172.16.0.0/16"), Asn(64500));

        let mut snaps = MonthlySnapshots::uniform(before);
        snaps.set_from_month(7, after);

        assert_eq!(
            snaps.asn_at(SimTime::from_date(6, 30, 23, 0, 0), a("10.0.1.1")),
            Asn(64500)
        );
        assert_eq!(
            snaps.asn_at(SimTime::from_date(7, 1, 1, 0, 0), a("10.0.1.1")),
            Asn::UNKNOWN
        );
        assert_eq!(
            snaps.asn_at(SimTime::from_date(12, 31, 0, 0, 0), a("172.16.1.1")),
            Asn(64500)
        );
    }

    #[test]
    fn out_of_year_times_clamp() {
        let mut t = RouteTable::new();
        t.announce(p("91.55.0.0/16"), Asn(3320));
        let snaps = MonthlySnapshots::uniform(t);
        // Dec 31 2014 — clamps to January's snapshot.
        assert_eq!(snaps.asn_at(SimTime(-3600), a("91.55.2.2")), Asn(3320));
        // Jan 2016 — clamps to December's snapshot.
        assert_eq!(
            snaps.asn_at(SimTime(SimTime::YEAR_END.0 + 5), a("91.55.2.2")),
            Asn(3320)
        );
    }

    #[test]
    fn prefix_at_returns_matched_bgp_prefix() {
        let mut t = RouteTable::new();
        t.announce(p("91.55.0.0/16"), Asn(3320));
        t.announce(p("91.55.128.0/17"), Asn(3320));
        let snaps = MonthlySnapshots::uniform(t);
        assert_eq!(
            snaps.prefix_at(jan(1), a("91.55.200.1")),
            Some(p("91.55.128.0/17"))
        );
        assert_eq!(
            snaps.prefix_at(jan(1), a("91.55.1.1")),
            Some(p("91.55.0.0/16"))
        );
        assert_eq!(snaps.prefix_at(jan(1), a("8.8.8.8")), None);
    }

    #[test]
    fn save_load_dir_roundtrip() {
        let mut before = RouteTable::new();
        before.announce(p("10.0.0.0/16"), Asn(64500));
        let mut after = before.clone();
        after.announce(p("172.16.0.0/16"), Asn(64500));
        let mut snaps = MonthlySnapshots::uniform(before);
        snaps.set_from_month(7, after);

        let dir = std::env::temp_dir().join(format!("dynaddr-snaps-{}", std::process::id()));
        snaps.save_dir(&dir).unwrap();
        let back = MonthlySnapshots::load_dir(&dir).unwrap();
        for month in 1..=12 {
            assert_eq!(
                snaps.month(month).to_pfx2as(),
                back.month(month).to_pfx2as(),
                "month {month}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn month_zero_panics() {
        let snaps = MonthlySnapshots::uniform(RouteTable::new());
        snaps.month(0);
    }
}
