//! Data-lifetime model.
//!
//! The single most load-bearing empirical fact in the paper is that new
//! file data dies young: "a large percentage of write operations are to
//! short-lived files or to file blocks that are soon overwritten" [3, 8],
//! which is why a small DRAM write buffer absorbs 40–50 % of write traffic
//! \[1\]. This module parameterises that fact as a bimodal lifetime
//! distribution: a *short-lived* mode (deleted/overwritten within tens of
//! seconds) and a *long-lived* mode (survives to stable storage), with the
//! short fraction and both means sweepable so experiment F2 can show the
//! claim's sensitivity to the underlying locality.

use ssmc_sim::{SimDuration, SimRng};

/// Bimodal file/data lifetime distribution.
#[derive(Debug, Clone, Copy)]
pub struct LifetimeModel {
    /// Fraction of new data that is short-lived (Baker et al. report
    /// 65–80 % of new bytes dying within ~30 s on Sprite).
    pub short_fraction: f64,
    /// Mean lifetime of short-lived data.
    pub short_mean: SimDuration,
    /// Mean lifetime of long-lived data.
    pub long_mean: SimDuration,
}

impl Default for LifetimeModel {
    fn default() -> Self {
        LifetimeModel {
            short_fraction: 0.7,
            short_mean: SimDuration::from_secs(30),
            long_mean: SimDuration::from_secs(4 * 3600),
        }
    }
}

impl LifetimeModel {
    /// Samples a lifetime: exponential within the chosen mode.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let mean = if rng.chance(self.short_fraction) {
            self.short_mean
        } else {
            self.long_mean
        };
        SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()))
    }

    /// Returns a copy with a different short-lived fraction (clamped to
    /// `[0, 1]`).
    pub fn with_short_fraction(mut self, f: f64) -> Self {
        self.short_fraction = f.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_sprite_findings() {
        let m = LifetimeModel::default();
        assert!((0.65..=0.8).contains(&m.short_fraction));
        assert_eq!(m.short_mean, SimDuration::from_secs(30));
    }

    #[test]
    fn sampled_mean_is_mixture_of_modes() {
        let m = LifetimeModel {
            short_fraction: 0.5,
            short_mean: SimDuration::from_secs(10),
            long_mean: SimDuration::from_secs(1000),
        };
        let mut rng = SimRng::seed_from_u64(1);
        let n = 20_000;
        let mean_s: f64 = (0..n)
            .map(|_| m.sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        // Expected: 0.5*10 + 0.5*1000 = 505.
        assert!((mean_s - 505.0).abs() < 30.0, "mean was {mean_s}");
    }

    #[test]
    fn all_short_means_short_samples() {
        let m = LifetimeModel::default().with_short_fraction(1.0);
        let mut rng = SimRng::seed_from_u64(2);
        let mean_s: f64 = (0..5_000)
            .map(|_| m.sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / 5_000.0;
        assert!((mean_s - 30.0).abs() < 3.0, "mean was {mean_s}");
    }

    #[test]
    fn with_short_fraction_clamps() {
        assert_eq!(
            LifetimeModel::default()
                .with_short_fraction(2.0)
                .short_fraction,
            1.0
        );
        assert_eq!(
            LifetimeModel::default()
                .with_short_fraction(-1.0)
                .short_fraction,
            0.0
        );
    }
}
