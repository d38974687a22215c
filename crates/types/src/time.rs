//! Simulated time for the 2015 measurement year.
//!
//! The paper analyzes logs spanning January 1, 2015 through December 31,
//! 2015. All simulated timestamps are seconds relative to the *epoch*
//! 2015-01-01T00:00:00 GMT. 2015 is not a leap year, so the year is exactly
//! 365 days long. Negative timestamps (late 2014) are legal — the first
//! connection-log entry in the paper's Table 1 starts on Dec 31, 2014.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Seconds in one minute.
pub const MINUTE: i64 = 60;
/// Seconds in one hour.
pub const HOUR: i64 = 3_600;
/// Seconds in one day.
pub const DAY: i64 = 86_400;
/// Number of days in 2015 (not a leap year).
pub const DAYS_IN_2015: i64 = 365;

/// Cumulative days at the start of each month of 2015 (non-leap year).
const MONTH_START_DAY: [i64; 13] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365];

/// Three-letter month abbreviations, indexed by month number minus one.
const MONTH_ABBR: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// An instant in simulated time: seconds since 2015-01-01T00:00:00 GMT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(pub i64);

/// A span of simulated time, in seconds. May be negative for differences.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(pub i64);

impl SimTime {
    /// Start of the measurement year: 2015-01-01T00:00:00 GMT.
    pub const YEAR_START: SimTime = SimTime(0);
    /// End of the measurement year: 2016-01-01T00:00:00 GMT (exclusive).
    pub const YEAR_END: SimTime = SimTime(DAYS_IN_2015 * DAY);

    /// Builds a time from a calendar date and time-of-day in 2015.
    ///
    /// `month` and `day` are 1-based. Panics when the date does not exist.
    pub fn from_date(month: u32, day: u32, hour: u32, min: u32, sec: u32) -> SimTime {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        let month_len = MONTH_START_DAY[month as usize] - MONTH_START_DAY[month as usize - 1];
        assert!(
            (1..=month_len as u32).contains(&day),
            "day {day} out of range for month {month}"
        );
        assert!(
            hour < 24 && min < 60 && sec < 60,
            "time-of-day out of range"
        );
        let days = MONTH_START_DAY[month as usize - 1] + i64::from(day) - 1;
        SimTime(days * DAY + i64::from(hour) * HOUR + i64::from(min) * MINUTE + i64::from(sec))
    }

    /// Seconds since the epoch.
    pub fn secs(self) -> i64 {
        self.0
    }

    /// Day index within 2015 (0-based). Days before the year are negative.
    pub fn day_of_year(self) -> i64 {
        self.0.div_euclid(DAY)
    }

    /// GMT hour of day, `0..24`.
    pub fn hour_of_day(self) -> u32 {
        (self.0.rem_euclid(DAY) / HOUR) as u32
    }

    /// Seconds elapsed since GMT midnight, `0..86_400`.
    pub fn secs_of_day(self) -> i64 {
        self.0.rem_euclid(DAY)
    }

    /// 1-based month number for timestamps within 2015.
    ///
    /// Timestamps before the year clamp to January and after the year to
    /// December; the analysis uses this to select a monthly IP-to-AS
    /// snapshot, where clamping is the right behaviour for boundary noise.
    pub fn month_of_2015(self) -> u32 {
        let day = self.day_of_year().clamp(0, DAYS_IN_2015 - 1);
        let m = MONTH_START_DAY
            .iter()
            .rposition(|&start| start <= day)
            .unwrap_or(0);
        (m + 1).clamp(1, 12) as u32
    }

    /// Whether the instant lies within the 2015 measurement window.
    pub fn in_measurement_year(self) -> bool {
        self >= Self::YEAR_START && self < Self::YEAR_END
    }

    /// Calendar breakdown `(month 1-12, day-of-month 1-31)` for 2015 dates.
    /// Clamps to the year boundaries like [`SimTime::month_of_2015`].
    pub fn month_day(self) -> (u32, u32) {
        let day = self.day_of_year().clamp(0, DAYS_IN_2015 - 1);
        let month = self.month_of_2015();
        let dom = day - MONTH_START_DAY[month as usize - 1] + 1;
        (month, dom as u32)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of whole seconds.
    pub const fn from_secs(secs: i64) -> SimDuration {
        SimDuration(secs)
    }

    /// A duration of whole minutes.
    pub const fn from_mins(mins: i64) -> SimDuration {
        SimDuration(mins * MINUTE)
    }

    /// A duration of whole hours.
    pub const fn from_hours(hours: i64) -> SimDuration {
        SimDuration(hours * HOUR)
    }

    /// A duration of whole days.
    pub const fn from_days(days: i64) -> SimDuration {
        SimDuration(days * DAY)
    }

    /// A duration from fractional hours (used when configuring ISP periods
    /// like the 0.5 h grace in lease logic).
    pub fn from_hours_f64(hours: f64) -> SimDuration {
        SimDuration((hours * HOUR as f64).round() as i64)
    }

    /// Total seconds.
    pub fn secs(self) -> i64 {
        self.0
    }

    /// Duration as fractional hours — the unit used throughout the paper's
    /// tables and figures.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Duration as fractional days.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / DAY as f64
    }

    /// True for durations strictly longer than zero.
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    /// Formats like the paper's connection-log excerpts: `Jan 1 03:22:16`.
    /// Out-of-year instants append the year for clarity.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_of_year();
        let tod = self.secs_of_day();
        let (h, m, s) = (tod / HOUR, (tod % HOUR) / MINUTE, tod % MINUTE);
        if (0..DAYS_IN_2015).contains(&day) {
            let (month, dom) = self.month_day();
            write!(
                f,
                "{} {dom} {h:02}:{m:02}:{s:02}",
                MONTH_ABBR[month as usize - 1]
            )
        } else {
            write!(f, "day{day} {h:02}:{m:02}:{s:02}")
        }
    }
}

impl fmt::Display for SimDuration {
    /// Human-scaled rendering: seconds, minutes, hours, or days.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s.abs() < 2 * MINUTE {
            write!(f, "{s}s")
        } else if s.abs() < 2 * HOUR {
            write!(f, "{:.1}m", s as f64 / MINUTE as f64)
        } else if s.abs() < 2 * DAY {
            write!(f, "{:.1}h", self.as_hours())
        } else {
            write!(f, "{:.1}d", self.as_days())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_jan_first() {
        let t = SimTime::YEAR_START;
        assert_eq!(t.day_of_year(), 0);
        assert_eq!(t.hour_of_day(), 0);
        assert_eq!(t.month_of_2015(), 1);
        assert_eq!(t.month_day(), (1, 1));
    }

    #[test]
    fn from_date_roundtrips_month_day() {
        for (m, d) in [(1, 1), (2, 28), (3, 1), (6, 30), (7, 4), (12, 31)] {
            let t = SimTime::from_date(m, d, 12, 30, 45);
            assert_eq!(t.month_day(), (m, d), "month/day for {m}/{d}");
            assert_eq!(t.hour_of_day(), 12);
        }
    }

    #[test]
    #[should_panic(expected = "day 29 out of range")]
    fn feb_29_does_not_exist_in_2015() {
        SimTime::from_date(2, 29, 0, 0, 0);
    }

    #[test]
    fn year_has_365_days() {
        assert_eq!(
            SimTime::YEAR_END - SimTime::YEAR_START,
            SimDuration::from_days(365)
        );
        assert!(!SimTime::YEAR_END.in_measurement_year());
        assert!((SimTime::YEAR_END - SimDuration::from_secs(1)).in_measurement_year());
    }

    #[test]
    fn negative_times_render_and_bucket_sanely() {
        // Dec 31 2014 03:21:34 is 20h38m26s before the epoch.
        let t = SimTime(-(20 * HOUR + 38 * MINUTE + 26));
        assert_eq!(t.day_of_year(), -1);
        assert_eq!(t.hour_of_day(), 3);
        assert_eq!(t.month_of_2015(), 1); // clamped for snapshot selection
        assert_eq!(format!("{t}"), "day-1 03:21:34");
    }

    #[test]
    fn display_matches_paper_sample() {
        let t = SimTime::from_date(1, 1, 3, 22, 16);
        assert_eq!(format!("{t}"), "Jan 1 03:22:16");
        let t2 = SimTime::from_date(12, 31, 23, 59, 59);
        assert_eq!(format!("{t2}"), "Dec 31 23:59:59");
    }

    #[test]
    fn duration_units() {
        assert_eq!(SimDuration::from_hours(24), SimDuration::from_days(1));
        assert!((SimDuration::from_hours(36).as_days() - 1.5).abs() < 1e-12);
        assert_eq!(
            SimDuration::from_hours_f64(23.6).secs(),
            (23.6 * 3600.0) as i64
        );
    }

    #[test]
    fn duration_display_scales() {
        assert_eq!(format!("{}", SimDuration::from_secs(45)), "45s");
        assert_eq!(format!("{}", SimDuration::from_mins(20)), "20.0m");
        assert_eq!(format!("{}", SimDuration::from_hours(23)), "23.0h");
        assert_eq!(format!("{}", SimDuration::from_days(3)), "3.0d");
    }

    #[test]
    fn month_boundaries() {
        assert_eq!(SimTime::from_date(1, 31, 23, 59, 59).month_of_2015(), 1);
        assert_eq!(SimTime::from_date(2, 1, 0, 0, 0).month_of_2015(), 2);
        assert_eq!(SimTime::from_date(12, 31, 23, 59, 59).month_of_2015(), 12);
        assert_eq!(SimTime(SimTime::YEAR_END.0 + DAY).month_of_2015(), 12); // clamp
    }

    #[test]
    fn time_arithmetic() {
        let a = SimTime::from_date(3, 10, 6, 0, 0);
        let b = a + SimDuration::from_hours(30);
        assert_eq!(b.month_day(), (3, 11));
        assert_eq!(b.hour_of_day(), 12);
        assert_eq!(b - a, SimDuration::from_hours(30));
    }
}
