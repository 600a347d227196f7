//! Energy accounting.
//!
//! Battery life is a first-class concern of the paper (§2 compares devices
//! by power; §4 trades DRAM against flash partly on power). Devices charge
//! every operation and every idle interval to an [`EnergyLedger`] under a
//! component name, so experiments can report joules per workload and
//! per-component breakdowns.

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

    /// Energy as fractional millijoules.
    pub fn as_millijoules(self) -> f64 {
        self.0 as f64 / 1e6
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

/// Named per-component energy counters.
///
/// A device ledger holds a handful of fixed component names, so the
/// accounts live in a name-sorted `Vec` rather than a tree: lookups are a
/// short binary search over contiguous memory, and a last-hit index makes
/// the common charge-same-component-again case a single string compare.
#[derive(Debug, Clone, Default)]
pub struct EnergyLedger {
    /// `(component, energy)` pairs kept sorted by component name, so
    /// iteration and report order match the old map-based layout.
    accounts: Vec<(String, Energy)>,
    /// Index of the most recently charged account (a hint, not an
    /// invariant: stale values only cost one failed compare).
    last: usize,
    /// Running sum of every account, maintained by [`Self::charge`] so
    /// [`Self::total`] is a scalar read: the battery-drain path queries
    /// the total before every replayed operation, and walking the
    /// accounts there would put a traversal on the hot path.
    total: Energy,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Charges `e` to `component`, creating the account on first use.
    // lint: hot-path
    pub fn charge(&mut self, component: &str, e: Energy) {
        if e == Energy::ZERO {
            return;
        }
        self.total = self.total.saturating_add(e);
        if let Some((name, acct)) = self.accounts.get_mut(self.last) {
            if name == component {
                *acct = acct.saturating_add(e);
                return;
            }
        }
        match self
            .accounts
            .binary_search_by(|(k, _)| k.as_str().cmp(component))
        {
            Ok(i) => {
                self.accounts[i].1 = self.accounts[i].1.saturating_add(e);
                self.last = i;
            }
            Err(i) => {
                // lint: allow(H1): first charge for a component allocates
                // its key string once per ledger lifetime; steady-state
                // charges hit the index hint or the binary search above.
                self.accounts.insert(i, (component.to_owned(), e));
                self.last = i;
            }
        }
    }

    /// Charges `power × duration` to `component`.
    pub fn charge_power(&mut self, component: &str, p: Power, d: SimDuration) {
        self.charge(component, p.energy_over(d));
    }

    /// Energy charged to `component` so far (zero for unknown components).
    pub fn component(&self, component: &str) -> Energy {
        self.accounts
            .binary_search_by(|(k, _)| k.as_str().cmp(component))
            .map(|i| self.accounts[i].1)
            .unwrap_or(Energy::ZERO)
    }

    /// Total energy across all components (a maintained scalar, not a
    /// walk over the accounts).
    pub fn total(&self) -> Energy {
        self.total
    }

    /// Iterates over `(component, energy)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Energy)> {
        self.accounts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Folds another ledger's accounts into this one.
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (k, v) in other.iter() {
            self.charge(k, v);
        }
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
        assert!((e.as_millijoules() - 10.0).abs() < 1e-9);
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

    #[test]
    fn ledger_accumulates_per_component() {
        let mut l = EnergyLedger::new();
        l.charge("flash", Energy::from_joules(0.5));
        l.charge("flash", Energy::from_joules(0.25));
        l.charge("dram", Energy::from_joules(1.0));
        assert!((l.component("flash").as_joules() - 0.75).abs() < 1e-9);
        assert!((l.total().as_joules() - 1.75).abs() < 1e-9);
        assert_eq!(l.component("disk"), Energy::ZERO);
    }

    #[test]
    fn ledger_merge_sums_accounts() {
        let mut a = EnergyLedger::new();
        let mut b = EnergyLedger::new();
        a.charge("flash", Energy::from_joules(1.0));
        b.charge("flash", Energy::from_joules(2.0));
        b.charge("disk", Energy::from_joules(3.0));
        a.merge(&b);
        assert!((a.component("flash").as_joules() - 3.0).abs() < 1e-9);
        assert!((a.component("disk").as_joules() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn from_joules_clamps() {
        assert_eq!(Energy::from_joules(-1.0), Energy::ZERO);
        assert_eq!(Energy::from_joules(f64::NAN), Energy::ZERO);
        assert_eq!(Energy::from_joules(1e30).as_nanojoules(), u64::MAX);
    }
}
