//! The simulation clock.
//!
//! Device models and OS layers all charge latency to a single [`Clock`].
//! The clock is shared by handle ([`SharedClock`]) so that, e.g., the flash
//! device, the storage manager, and the file system observe the same
//! timeline without threading `&mut` through every call chain. The simulator
//! is single-threaded; interior mutability via [`Cell`] is sufficient.

use crate::time::{SimDuration, SimTime};
use core::cell::Cell;
use std::rc::Rc;

/// A monotonically advancing simulated clock.
///
/// # Examples
///
/// ```
/// use ssmc_sim::{Clock, SimDuration};
///
/// let clock = Clock::shared();
/// let handle = clock.clone();
/// clock.advance(SimDuration::from_micros(5));
/// assert_eq!(handle.now().as_nanos(), 5_000);
/// ```
#[derive(Debug, Default)]
pub struct Clock {
    now: Cell<u64>,
}

/// A cheaply clonable handle to a [`Clock`].
pub type SharedClock = Rc<Clock>;

impl Clock {
    /// Creates a clock at t = 0.
    pub fn new() -> Self {
        Clock { now: Cell::new(0) }
    }

    /// Creates a shared clock handle at t = 0.
    pub fn shared() -> SharedClock {
        Rc::new(Clock::new())
    }

    /// Returns the current instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now.get())
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let t = self.now.get().saturating_add(d.as_nanos());
        self.now.set(t);
        SimTime::from_nanos(t)
    }

    /// Moves the clock forward to `t` if `t` is in the future; otherwise
    /// leaves it unchanged. Returns the (possibly unchanged) current instant.
    ///
    /// This is the primitive used to model waiting for a busy device: the
    /// caller advances to the device's `busy_until` instant.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        if t.as_nanos() > self.now.get() {
            self.now.set(t.as_nanos());
        }
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_micros(5));
        assert_eq!(c.now().as_nanos(), 5_000);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = Clock::new();
        c.advance(SimDuration::from_nanos(100));
        // Moving to the past is a no-op.
        c.advance_to(SimTime::from_nanos(50));
        assert_eq!(c.now().as_nanos(), 100);
        c.advance_to(SimTime::from_nanos(250));
        assert_eq!(c.now().as_nanos(), 250);
    }

    #[test]
    fn shared_handles_observe_same_timeline() {
        let c = Clock::shared();
        let c2 = Rc::clone(&c);
        c.advance(SimDuration::from_millis(1));
        assert_eq!(c2.now().as_nanos(), 1_000_000);
        c2.advance(SimDuration::from_millis(2));
        assert_eq!(c.now().as_nanos(), 3_000_000);
    }
}
