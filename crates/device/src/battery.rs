//! Battery model.
//!
//! §3.1 of the paper argues that battery-backed DRAM is stable enough to
//! hold file data because primary batteries "discharge gradually and
//! predictably" and a second set of small lithium cells bridges primary
//! failures and swaps. This model captures exactly that structure: a
//! primary pack, a backup pack, load-proportional discharge, pack swaps,
//! and sudden-failure injection (the dropped computer) for experiment T3.

use ssmc_sim::obs::MetricSink;
use ssmc_sim::{Energy, Power, SimDuration};

/// Static battery characteristics.
#[derive(Debug, Clone)]
pub struct BatterySpec {
    /// Capacity of the primary pack.
    pub primary_capacity: Energy,
    /// Capacity of the backup lithium cells.
    pub backup_capacity: Energy,
}

impl Default for BatterySpec {
    fn default() -> Self {
        // A small 1993 notebook pack: ~10 Wh primary, ~0.4 Wh lithium backup.
        BatterySpec {
            primary_capacity: Energy::from_joules(36_000.0),
            backup_capacity: Energy::from_joules(1_440.0),
        }
    }
}

/// Which source is currently powering the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatteryState {
    /// Primary pack has charge.
    Primary,
    /// Primary exhausted or removed; running on backup cells.
    Backup,
    /// Both sources exhausted: DRAM contents are gone.
    Dead,
}

/// A two-stage mobile-computer battery.
#[derive(Debug, Clone)]
pub struct Battery {
    spec: BatterySpec,
    primary_remaining: Energy,
    backup_remaining: Energy,
    swaps: u32,
}

impl Battery {
    /// Creates a fully charged battery.
    pub fn new(spec: BatterySpec) -> Self {
        Battery {
            primary_remaining: spec.primary_capacity,
            backup_remaining: spec.backup_capacity,
            spec,
            swaps: 0,
        }
    }

    /// Current power source.
    pub fn state(&self) -> BatteryState {
        if self.primary_remaining > Energy::ZERO {
            BatteryState::Primary
        } else if self.backup_remaining > Energy::ZERO {
            BatteryState::Backup
        } else {
            BatteryState::Dead
        }
    }

    /// Remaining energy across both sources.
    pub fn remaining(&self) -> Energy {
        self.primary_remaining.saturating_add(self.backup_remaining)
    }

    /// Remaining energy in the primary pack alone.
    pub fn primary_remaining(&self) -> Energy {
        self.primary_remaining
    }

    /// Number of primary-pack swaps performed.
    pub fn swaps(&self) -> u32 {
        self.swaps
    }

    /// Publishes the power source: remaining charge (total and
    /// primary-only), swaps, and the state encoded as a gauge level
    /// (0 primary / 1 backup / 2 dead) so depletion renders as a step
    /// curve on the timeline.
    pub fn publish_metrics<S: MetricSink>(&self, sink: &mut S) {
        sink.gauge("battery.remaining_j", self.remaining().as_joules());
        sink.gauge(
            "battery.primary_remaining_j",
            self.primary_remaining.as_joules(),
        );
        sink.counter("battery.swaps", self.swaps as u64);
        let state = match self.state() {
            BatteryState::Primary => 0.0,
            BatteryState::Backup => 1.0,
            BatteryState::Dead => 2.0,
        };
        sink.gauge("battery.state", state);
    }

    /// Draws `e` from the battery (primary first, then backup) and returns
    /// the state after the draw.
    pub fn drain(&mut self, e: Energy) -> BatteryState {
        let mut need = e.as_nanojoules();
        let p = self.primary_remaining.as_nanojoules();
        if p >= need {
            self.primary_remaining = Energy::from_nanojoules(p - need);
            need = 0;
        } else {
            self.primary_remaining = Energy::ZERO;
            need -= p;
        }
        if need > 0 {
            let b = self.backup_remaining.as_nanojoules();
            self.backup_remaining = Energy::from_nanojoules(b.saturating_sub(need));
        }
        self.state()
    }

    /// Replaces the primary pack with a fresh one. Models swapping
    /// batteries while the lithium cells hold the machine up.
    pub fn swap_primary(&mut self) {
        self.primary_remaining = self.spec.primary_capacity;
        self.swaps += 1;
    }

    /// Sudden loss of the primary pack (drop, ejection): its remaining
    /// charge goes to zero, leaving only the backup cells.
    pub fn fail_primary(&mut self) {
        self.primary_remaining = Energy::ZERO;
    }

    /// Catastrophic loss of both sources.
    pub fn fail_all(&mut self) {
        self.primary_remaining = Energy::ZERO;
        self.backup_remaining = Energy::ZERO;
    }

    /// How long the battery can sustain a constant draw `p` before dying.
    /// Returns [`SimDuration::MAX`] for a zero draw.
    pub fn time_to_empty(&self, p: Power) -> SimDuration {
        if p.as_microwatts() == 0 {
            return SimDuration::MAX;
        }
        let secs = self.remaining().as_joules() / p.as_watts();
        SimDuration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Battery {
        Battery::new(BatterySpec {
            primary_capacity: Energy::from_joules(10.0),
            backup_capacity: Energy::from_joules(2.0),
        })
    }

    #[test]
    fn fresh_battery_runs_on_primary() {
        let b = tiny();
        assert_eq!(b.state(), BatteryState::Primary);
        assert!((b.remaining().as_joules() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn drain_crosses_into_backup_then_dead() {
        let mut b = tiny();
        assert_eq!(b.drain(Energy::from_joules(9.0)), BatteryState::Primary);
        assert_eq!(b.drain(Energy::from_joules(2.0)), BatteryState::Backup);
        assert!((b.remaining().as_joules() - 1.0).abs() < 1e-9);
        assert_eq!(b.drain(Energy::from_joules(5.0)), BatteryState::Dead);
        assert_eq!(b.remaining(), Energy::ZERO);
    }

    #[test]
    fn single_drain_can_span_both_sources() {
        let mut b = tiny();
        assert_eq!(b.drain(Energy::from_joules(11.0)), BatteryState::Backup);
        assert!((b.remaining().as_joules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn swap_restores_primary() {
        let mut b = tiny();
        b.drain(Energy::from_joules(10.5));
        assert_eq!(b.state(), BatteryState::Backup);
        b.swap_primary();
        assert_eq!(b.state(), BatteryState::Primary);
        assert_eq!(b.swaps(), 1);
        assert!((b.remaining().as_joules() - 11.5).abs() < 1e-9);
    }

    #[test]
    fn failure_injection() {
        let mut b = tiny();
        b.fail_primary();
        assert_eq!(b.state(), BatteryState::Backup);
        b.fail_all();
        assert_eq!(b.state(), BatteryState::Dead);
    }

    #[test]
    fn time_to_empty_scales_with_load() {
        let b = tiny();
        // 12 J at 1 W = 12 s.
        let t = b.time_to_empty(Power::from_milliwatts(1_000));
        assert!((t.as_secs_f64() - 12.0).abs() < 1e-6);
        assert_eq!(b.time_to_empty(Power::ZERO), SimDuration::MAX);
    }

    #[test]
    fn default_spec_holds_an_idle_machine_for_days() {
        // §3.1: primary batteries "can preserve the contents of main memory
        // in an otherwise idle system for many days". At ~5 mW self-refresh
        // for a 16 MB machine, the default pack lasts well over 10 days.
        let b = Battery::new(BatterySpec::default());
        let t = b.time_to_empty(Power::from_milliwatts(5));
        assert!(t.as_secs_f64() > 10.0 * 86_400.0);
    }
}
