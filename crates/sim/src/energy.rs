//! Energy accounting.
//!
//! Battery life is a first-class concern of the paper (§2 compares devices
//! by power; §4 trades DRAM against flash partly on power). Devices charge
//! every operation and every idle interval to one of the named component
//! accounts of an [`EnergyLedger`], so experiments can report joules per
//! workload and per-component breakdowns.

use crate::report::{FromReport, ReportError, ToReport, Value};
use crate::time::SimDuration;

/// An amount of energy, stored in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Energy(u64);

// Newtype wrappers serialise as their bare counts, matching the old
// serde derives.
impl ToReport for Energy {
    fn to_report(&self) -> Value {
        self.0.to_report()
    }
}

impl FromReport for Energy {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        u64::from_report(v).map(Energy)
    }
}

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0);

    /// Creates energy from nanojoules.
    pub const fn from_nanojoules(nj: u64) -> Self {
        Energy(nj)
    }

    /// Creates energy from fractional joules (saturating, non-negative).
    pub fn from_joules(j: f64) -> Self {
        if !j.is_finite() || j <= 0.0 {
            return Energy::ZERO;
        }
        let nj = j * 1e9;
        if nj >= u64::MAX as f64 {
            Energy(u64::MAX)
        } else {
            Energy(nj.round() as u64)
        }
    }

    /// Raw nanojoule count.
    pub const fn as_nanojoules(self) -> u64 {
        self.0
    }

    /// Energy as fractional joules.
    pub fn as_joules(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Energy) -> Energy {
        Energy(self.0.saturating_add(rhs.0))
    }
}

impl core::ops::Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl core::iter::Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Energy::saturating_add)
    }
}

/// A power draw, stored in microwatts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Power(u64);

impl Power {
    /// Zero draw.
    pub const ZERO: Power = Power(0);

    /// Creates a draw from microwatts.
    pub const fn from_microwatts(uw: u64) -> Self {
        Power(uw)
    }

    /// Creates a draw from milliwatts.
    pub const fn from_milliwatts(mw: u64) -> Self {
        Power(mw * 1_000)
    }

    /// Creates a draw from fractional milliwatts (saturating, non-negative).
    pub fn from_milliwatts_f64(mw: f64) -> Self {
        if !mw.is_finite() || mw <= 0.0 {
            return Power::ZERO;
        }
        Power((mw * 1e3).round() as u64)
    }

    /// Raw microwatt count.
    pub const fn as_microwatts(self) -> u64 {
        self.0
    }

    /// Draw as fractional milliwatts.
    pub fn as_milliwatts(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Draw as fractional watts.
    pub fn as_watts(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Energy consumed drawing this power for duration `d`.
    // lint: hot-path
    pub fn energy_over(self, d: SimDuration) -> Energy {
        // µW × ns = femtojoules; divide by 1e6 for nanojoules. Every
        // per-operation charge (microsecond spans, milliwatt draws) fits
        // the u64 fast path, where the constant division strength-reduces
        // to a multiply; 128-bit division lowers to a libcall (__udivti3)
        // that would otherwise run several times per replayed op. The
        // quotient is identical on both paths whenever the product fits.
        if let Some(fj) = self.0.checked_mul(d.as_nanos()) {
            return Energy(fj / 1_000_000);
        }
        // Slow path: only centuries-long idle spans land here.
        let fj = self.0 as u128 * d.as_nanos() as u128;
        let nj = fj / 1_000_000;
        Energy(u64::try_from(nj).unwrap_or(u64::MAX))
    }
}

impl core::ops::Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

/// Most accounts a ledger holds: flash and disk have four components,
/// DRAM three.
const MAX_ACCOUNTS: usize = 4;

/// Per-component energy counters for one device.
///
/// A device fixes its component names when it builds the ledger, as a
/// sorted table, and defines an index constant for each beside it. A
/// charge is one array add: no name compare, search or allocation sits
/// on the device access path.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    /// Component names, sorted and unique; `accounts[i]` is `names[i]`'s.
    names: &'static [&'static str],
    accounts: [Energy; MAX_ACCOUNTS],
}

impl EnergyLedger {
    /// Creates a ledger with one empty account per name in `names`.
    ///
    /// # Panics
    ///
    /// Panics if `names` is not sorted and unique, or holds more than
    /// four names.
    pub fn new(names: &'static [&'static str]) -> Self {
        assert!(
            names.len() <= MAX_ACCOUNTS,
            "a ledger holds at most {MAX_ACCOUNTS} accounts: {names:?}"
        );
        assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "ledger names must be sorted and unique: {names:?}"
        );
        EnergyLedger {
            names,
            accounts: [Energy::ZERO; MAX_ACCOUNTS],
        }
    }

    /// Charges `e` to the account `names[account]`.
    // lint: hot-path
    pub fn charge(&mut self, account: usize, e: Energy) {
        debug_assert!(account < self.names.len(), "no ledger account {account}");
        self.accounts[account] = self.accounts[account].saturating_add(e);
    }

    /// Energy charged to the account `names[account]` so far.
    pub fn component(&self, account: usize) -> Energy {
        self.accounts[account]
    }

    /// Total energy across all accounts.
    pub fn total(&self) -> Energy {
        self.accounts.iter().copied().sum()
    }

    /// Iterates over `(component, energy)` pairs in name order, skipping
    /// accounts that hold no energy.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Energy)> {
        self.names
            .iter()
            .zip(self.accounts)
            .filter(|&(_, e)| e != Energy::ZERO)
            .map(|(&name, e)| (name, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        // 10 mW for 1 s = 10 mJ.
        let e = Power::from_milliwatts(10).energy_over(SimDuration::from_secs(1));
        assert_eq!(e.as_nanojoules(), 10_000_000);
    }

    #[test]
    fn tiny_draws_round_to_zero_gracefully() {
        // 1 µW for 1 ns is a femtojoule — below ledger resolution.
        let e = Power::from_microwatts(1).energy_over(SimDuration::from_nanos(1));
        assert_eq!(e, Energy::ZERO);
    }

    #[test]
    fn long_idle_does_not_overflow() {
        // 1 W for ~580 years must saturate, not wrap.
        let e = Power::from_milliwatts(1_000).energy_over(SimDuration::MAX);
        assert!(e.as_joules() > 1e9);
    }

    const NAMES: &[&str] = &["disk", "dram", "flash"];
    const DISK: usize = 0;
    const DRAM: usize = 1;
    const FLASH: usize = 2;

    #[test]
    fn ledger_accumulates_per_component() {
        let mut l = EnergyLedger::new(NAMES);
        l.charge(FLASH, Energy::from_joules(0.5));
        l.charge(FLASH, Energy::from_joules(0.25));
        l.charge(DRAM, Energy::from_joules(1.0));
        assert!((l.component(FLASH).as_joules() - 0.75).abs() < 1e-9);
        assert!((l.total().as_joules() - 1.75).abs() < 1e-9);
        assert_eq!(l.component(DISK), Energy::ZERO);
    }

    #[test]
    fn iter_skips_empty_accounts_in_name_order() {
        let mut l = EnergyLedger::new(NAMES);
        assert_eq!(l.iter().count(), 0);
        l.charge(FLASH, Energy::from_nanojoules(3));
        l.charge(DISK, Energy::ZERO);
        l.charge(DRAM, Energy::from_nanojoules(5));
        let got: Vec<_> = l.iter().collect();
        assert_eq!(
            got,
            [
                ("dram", Energy::from_nanojoules(5)),
                ("flash", Energy::from_nanojoules(3)),
            ]
        );
    }

    #[test]
    fn total_is_the_sum_of_the_accounts() {
        let mut l = EnergyLedger::new(NAMES);
        assert_eq!(l.total(), Energy::ZERO);
        l.charge(DISK, Energy::from_nanojoules(2));
        l.charge(DRAM, Energy::from_nanojoules(30));
        l.charge(FLASH, Energy::from_nanojoules(400));
        l.charge(DISK, Energy::from_nanojoules(5_000));
        assert_eq!(l.total(), l.iter().map(|(_, e)| e).sum());
        assert_eq!(l.total(), Energy::from_nanojoules(5_432));
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn unsorted_names_are_rejected() {
        EnergyLedger::new(&["flash", "dram"]);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn duplicate_names_are_rejected() {
        EnergyLedger::new(&["dram", "dram"]);
    }

    #[test]
    fn from_joules_clamps() {
        assert_eq!(Energy::from_joules(-1.0), Energy::ZERO);
        assert_eq!(Energy::from_joules(f64::NAN), Energy::ZERO);
        assert_eq!(Energy::from_joules(1e30).as_nanojoules(), u64::MAX);
    }
}
