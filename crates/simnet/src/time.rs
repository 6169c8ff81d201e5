//! Simulation time.
//!
//! The simulator runs on a nanosecond-resolution virtual clock. The epoch is
//! fixed at `2000-01-01 00:00:00` UTC so that the 24-year longitudinal
//! dataset of the paper (2000–2024) maps onto non-negative timestamps.
//! Calendar conversions use Howard Hinnant's `civil_from_days` /
//! `days_from_civil` algorithms, which are exact for the proleptic Gregorian
//! calendar.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds in one day.
pub const NANOS_PER_DAY: u64 = 86_400 * NANOS_PER_SEC;

/// Days between 1970-01-01 (Unix epoch) and 2000-01-01 (simulation epoch).
const EPOCH_2000_DAYS: i64 = 10_957;

/// A point on the simulation clock, in nanoseconds since 2000-01-01 UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// A Gregorian calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDate {
    pub year: i32,
    pub month: u32,
    pub day: u32,
}

impl SimTime {
    /// The simulation epoch: 2000-01-01 00:00:00 UTC.
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from raw nanoseconds since the simulation epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from whole seconds since the simulation epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Construct from a calendar date at midnight UTC.
    ///
    /// # Panics
    /// Panics if the date precedes the simulation epoch (year 2000).
    pub fn from_date(year: i32, month: u32, day: u32) -> Self {
        let days = days_from_civil(year, month, day) - EPOCH_2000_DAYS;
        assert!(
            days >= 0,
            "date {year}-{month:02}-{day:02} precedes the 2000-01-01 epoch"
        );
        SimTime(days as u64 * NANOS_PER_DAY)
    }

    /// Construct from a calendar date and a time of day.
    pub fn from_datetime(year: i32, month: u32, day: u32, h: u32, m: u32, s: u32) -> Self {
        Self::from_date(year, month, day)
            + SimDuration::from_secs((h as u64 * 60 + m as u64) * 60 + s as u64)
    }

    /// Nanoseconds since the simulation epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since the simulation epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Whole days since the simulation epoch. Useful for daily bucketing
    /// (Fig. 2 reproduces a per-day alert count series).
    pub const fn day_index(self) -> u64 {
        self.0 / NANOS_PER_DAY
    }

    /// The calendar date containing this instant.
    pub fn date(self) -> CivilDate {
        let days = self.day_index() as i64 + EPOCH_2000_DAYS;
        let (year, month, day) = civil_from_days(days);
        CivilDate { year, month, day }
    }

    /// `(hour, minute, second)` within the day.
    pub fn time_of_day(self) -> (u32, u32, u32) {
        let secs = (self.0 % NANOS_PER_DAY) / NANOS_PER_SEC;
        (
            (secs / 3600) as u32,
            ((secs / 60) % 60) as u32,
            (secs % 60) as u32,
        )
    }

    /// Saturating difference between two instants.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Saturating addition: clamps at the end of representable time
    /// instead of wrapping. Extreme-dilation scenario generators use this
    /// so a pathological delay product degrades to "very far future"
    /// rather than a time warp.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Saturating subtraction: clamps at the epoch (time zero) instead of
    /// underflowing. Negative clock skew applied near the start of a
    /// simulation must pin records at the epoch rather than wrap them to
    /// the far future.
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * NANOS_PER_SEC)
    }
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * NANOS_PER_SEC)
    }
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * NANOS_PER_DAY)
    }

    /// Construct from a fractional number of seconds (clamped at zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * NANOS_PER_SEC as f64) as u64)
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    /// Whole days contained in this span.
    pub const fn as_days(self) -> u64 {
        self.0 / NANOS_PER_DAY
    }

    /// Scale by a non-negative factor.
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration((self.0 as f64 * k.max(0.0)) as u64)
    }

    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition: clamps at `u64::MAX` nanoseconds instead of
    /// wrapping (the `Add` impl panics in debug and wraps in release).
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.date();
        let (h, m, s) = self.time_of_day();
        write!(
            f,
            "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
            d.year, d.month, d.day, h, m, s
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs >= 86_400.0 {
            write!(f, "{:.1}d", secs / 86_400.0)
        } else if secs >= 3_600.0 {
            write!(f, "{:.1}h", secs / 3_600.0)
        } else if secs >= 60.0 {
            write!(f, "{:.1}m", secs / 60.0)
        } else {
            write!(f, "{:.3}s", secs)
        }
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl CivilDate {
    /// Month name abbreviation, as used in Fig. 2's x-axis labels.
    pub fn month_abbrev(&self) -> &'static str {
        const NAMES: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        NAMES[(self.month - 1) as usize]
    }
}

/// Days since 1970-01-01 for a Gregorian `(y, m, d)`.
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    debug_assert!((1..=12).contains(&m), "month out of range: {m}");
    debug_assert!((1..=31).contains(&d), "day out of range: {d}");
    let y = y as i64 - (m <= 2) as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mp = if m > 2 { m - 3 } else { m + 9 } as u64;
    let doy = (153 * mp + 2) / 5 + d as u64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i64 - 719_468
}

/// Gregorian `(y, m, d)` for days since 1970-01-01.
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((y + (m <= 2) as i64) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_jan_1_2000() {
        let d = SimTime::EPOCH.date();
        assert_eq!((d.year, d.month, d.day), (2000, 1, 1));
    }

    #[test]
    fn date_roundtrip_across_leap_years() {
        for &(y, m, d) in &[
            (2000, 2, 29),
            (2004, 2, 29),
            (2014, 4, 1),
            (2024, 8, 1),
            (2024, 10, 30),
            (2024, 11, 10),
            (2023, 12, 31),
        ] {
            let t = SimTime::from_date(y, m, d);
            let back = t.date();
            assert_eq!((back.year, back.month, back.day), (y, m, d));
        }
    }

    #[test]
    fn day_index_increments_per_day() {
        let a = SimTime::from_date(2024, 8, 1);
        let b = SimTime::from_date(2024, 8, 2);
        assert_eq!(b.day_index(), a.day_index() + 1);
    }

    #[test]
    fn time_of_day_extraction() {
        let t = SimTime::from_datetime(2024, 10, 30, 23, 15, 22);
        assert_eq!(t.time_of_day(), (23, 15, 22));
        assert_eq!(t.to_string(), "2024-10-30 23:15:22");
    }

    #[test]
    fn duration_arithmetic() {
        let t = SimTime::from_date(2024, 10, 30);
        let later = t + SimDuration::from_days(12);
        let d = later.date();
        assert_eq!((d.year, d.month, d.day), (2024, 11, 11));
        assert_eq!((later - t).as_days(), 12);
    }

    #[test]
    fn saturating_since_on_earlier_time() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(10);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_secs(), 5);
    }

    #[test]
    fn saturating_sub_pins_at_epoch() {
        let t = SimTime::from_secs(5);
        assert_eq!(
            t.saturating_sub(SimDuration::from_secs(3)),
            SimTime::from_secs(2)
        );
        assert_eq!(t.saturating_sub(SimDuration::from_secs(5)), SimTime::EPOCH);
        assert_eq!(t.saturating_sub(SimDuration::from_hours(1)), SimTime::EPOCH);
        assert_eq!(
            SimTime::EPOCH.saturating_sub(SimDuration::from_nanos(1)),
            SimTime::EPOCH
        );
    }

    #[test]
    fn display_duration_units() {
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
        assert_eq!(SimDuration::from_mins(90).to_string(), "1.5h");
        assert_eq!(SimDuration::from_days(3).to_string(), "3.0d");
    }

    #[test]
    fn civil_days_known_values() {
        // 1970-01-01 is day 0; 2000-01-01 is day 10957.
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(2000, 1, 1), 10_957);
        assert_eq!(civil_from_days(10_957), (2000, 1, 1));
    }
}
