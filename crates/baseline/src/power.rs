//! Mobile-disk power management.
//!
//! Conventional mobile systems save battery by spinning the disk down
//! after an idle timeout, paying a long spin-up on the next access. The
//! manager accounts the idle interval between accesses to the correct
//! power states and applies the spin-down policy.

use ssmc_device::{Disk, SpinState};
use ssmc_sim::{SimDuration, SimTime};

/// Applies an idle spin-down policy to a [`Disk`].
#[derive(Debug)]
pub struct DiskPowerManager {
    /// Spin down after this much idleness; `None` keeps the disk spinning.
    timeout: Option<SimDuration>,
    last_activity: SimTime,
}

impl DiskPowerManager {
    /// Creates a manager with the given idle timeout.
    pub fn new(timeout: Option<SimDuration>, now: SimTime) -> Self {
        DiskPowerManager {
            timeout,
            last_activity: now,
        }
    }

    /// Called before each disk access: accounts the idle gap since the
    /// previous access, spinning the disk down mid-gap if the policy says
    /// so (the subsequent access will pay the spin-up inside the device
    /// model).
    pub fn before_access(&mut self, disk: &mut Disk, now: SimTime) {
        let gap = now.since(self.last_activity);
        match (self.timeout, disk.spin_state()) {
            (Some(t), SpinState::Spinning) if gap > t => {
                // Spinning for the timeout, then standby for the rest.
                disk.charge_idle(t);
                disk.spin_down();
                disk.charge_idle(gap - t);
            }
            _ => disk.charge_idle(gap),
        }
        self.last_activity = now;
    }

    /// Called after an access completes.
    pub fn after_access(&mut self, now: SimTime) {
        self.last_activity = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_device::DiskSpec;
    use ssmc_sim::Clock;

    #[test]
    fn long_gaps_spin_down_and_save_energy() {
        let run = |timeout: Option<SimDuration>| {
            let clock = Clock::shared();
            let mut disk = Disk::new(DiskSpec::default().with_capacity(1 << 20), clock.clone());
            let mut pm = DiskPowerManager::new(timeout, clock.now());
            disk.read(0, 512).expect("read");
            pm.after_access(clock.now());
            // An hour of idleness, then another access.
            clock.advance(SimDuration::from_secs(3600));
            pm.before_access(&mut disk, clock.now());
            disk.read(512, 512).expect("read");
            pm.after_access(clock.now());
            disk.energy().total().as_joules()
        };
        let always_on = run(None);
        let managed = run(Some(SimDuration::from_secs(10)));
        // 0.7 W for an hour vs ~15 mW standby: ~45x difference.
        assert!(
            managed < always_on / 10.0,
            "managed {managed} J vs always-on {always_on} J"
        );
    }

    #[test]
    fn spun_down_disk_pays_spin_up_latency() {
        let clock = Clock::shared();
        let mut disk = Disk::new(DiskSpec::default().with_capacity(1 << 20), clock.clone());
        let mut pm = DiskPowerManager::new(Some(SimDuration::from_secs(5)), clock.now());
        disk.read(0, 512).expect("read");
        pm.after_access(clock.now());
        clock.advance(SimDuration::from_secs(60));
        pm.before_access(&mut disk, clock.now());
        let lat = disk.read(512, 512).expect("read after idle");
        assert!(lat >= disk.spec().spin_up, "latency {lat} lacks spin-up");
        assert_eq!(disk.counters().spin_ups, 1);
    }

    #[test]
    fn short_gaps_keep_spinning() {
        let clock = Clock::shared();
        let mut disk = Disk::new(DiskSpec::default().with_capacity(1 << 20), clock.clone());
        let mut pm = DiskPowerManager::new(Some(SimDuration::from_secs(10)), clock.now());
        disk.read(0, 512).expect("read");
        pm.after_access(clock.now());
        clock.advance(SimDuration::from_secs(2));
        pm.before_access(&mut disk, clock.now());
        assert_eq!(disk.spin_state(), SpinState::Spinning);
        assert_eq!(disk.counters().spin_ups, 0);
    }
}
