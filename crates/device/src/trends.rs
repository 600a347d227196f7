//! Technology-trend extrapolation (experiment F1).
//!
//! §2 of the paper extrapolates Patterson & Hennessy's improvement rates —
//! semiconductor memory gaining ≈40 %/year in both $/MB and MB/in³ against
//! ≈25 %/year for disk — to predict that (a) DRAM density passes
//! small-disk density almost immediately, and (b) flash reaches cost parity
//! with small disks for 40 MB configurations "by the year 1996" (an Intel
//! estimate that implies a steeper early flash learning curve than the
//! baseline 40 %). The model exposes both scenarios.

use crate::catalog::{hp_kittyhawk, intel_flash, nec_dram, Part, Technology};

/// Improvement-rate scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendScenario {
    /// The paper's headline rates: memory 40 %/yr, disk 25 %/yr, flash
    /// tracking DRAM.
    PaperRates,
    /// The Intel forecast the paper cites for the 1996 crossover: flash on
    /// a steep early learning curve (≈75 %/yr) while new, others as in
    /// `PaperRates`.
    IntelForecast,
}

/// Extrapolates cost and density from a 1993 baseline: the $/MB and
/// MB/in³ of the catalog's NEC DRAM, Intel flash and KittyHawk disk.
///
/// # Examples
///
/// ```
/// use ssmc_device::trends::TrendScenario;
/// use ssmc_device::{Technology, TrendModel};
///
/// let model = TrendModel::default();
/// let year = model
///     .density_crossover_year(Technology::Dram, Technology::Disk, 10.0)
///     .unwrap();
/// assert!(year < 1997.0, "DRAM density passes small disks 'shortly'");
/// ```
#[derive(Debug, Clone)]
pub struct TrendModel {
    /// Baseline year for all base values.
    pub base_year: u32,
    /// 1993 fixed cost per disk drive (heads, motor, electronics) that no
    /// amount of density scaling removes.
    pub disk_fixed_cost: f64,
    /// Annual decline of the disk fixed cost (slow: mechanics).
    pub disk_fixed_rate: f64,
    /// Annual improvement for semiconductor memory (0.40 = 40 %/yr).
    pub memory_rate: f64,
    /// Annual improvement for disk.
    pub disk_rate: f64,
    /// Annual improvement for flash cost under [`TrendScenario::IntelForecast`].
    pub flash_forecast_rate: f64,
}

impl Default for TrendModel {
    fn default() -> Self {
        TrendModel {
            base_year: 1993,
            disk_fixed_cost: 110.0,
            disk_fixed_rate: 0.10,
            memory_rate: 0.40,
            disk_rate: 0.25,
            flash_forecast_rate: 0.75,
        }
    }
}

/// The 1993 part each technology's trend starts from.
fn base_part(tech: Technology) -> Part {
    match tech {
        Technology::Dram => Part::Dram(nec_dram()),
        Technology::Flash => Part::Flash(intel_flash()),
        Technology::Disk => Part::Disk(hp_kittyhawk()),
    }
}

impl TrendModel {
    fn years_since_base(&self, year: f64) -> f64 {
        year - self.base_year as f64
    }

    /// Dollars per megabyte of `tech` in `year` under `scenario`.
    pub fn cost_per_mb(&self, tech: Technology, year: f64, scenario: TrendScenario) -> f64 {
        let t = self.years_since_base(year);
        let rate = match (tech, scenario) {
            (Technology::Flash, TrendScenario::IntelForecast) => self.flash_forecast_rate,
            (Technology::Disk, _) => self.disk_rate,
            _ => self.memory_rate,
        };
        base_part(tech).cost_per_mb() / (1.0 + rate).powf(t)
    }

    /// Megabytes per cubic inch of `tech` in `year`.
    pub fn density(&self, tech: Technology, year: f64) -> f64 {
        let t = self.years_since_base(year);
        let rate = match tech {
            Technology::Disk => self.disk_rate,
            _ => self.memory_rate,
        };
        base_part(tech).density_mb_per_in3() * (1.0 + rate).powf(t)
    }

    /// Total cost of an `mb`-megabyte unit of `tech` in `year`. Disks carry
    /// the declining-but-floored fixed per-drive cost.
    pub fn unit_cost(&self, tech: Technology, mb: f64, year: f64, scenario: TrendScenario) -> f64 {
        let media = mb * self.cost_per_mb(tech, year, scenario);
        match tech {
            Technology::Disk => {
                let t = self.years_since_base(year);
                media + self.disk_fixed_cost / (1.0 + self.disk_fixed_rate).powf(t)
            }
            _ => media,
        }
    }

    /// First (fractional) year within `[base, base+horizon]` at which an
    /// `mb`-megabyte unit of `a` becomes no more expensive than one of `b`,
    /// or `None` if it never happens inside the horizon.
    pub fn cost_crossover_year(
        &self,
        a: Technology,
        b: Technology,
        mb: f64,
        horizon_years: f64,
        scenario: TrendScenario,
    ) -> Option<f64> {
        let base = self.base_year as f64;
        let mut year = base;
        let step = 1.0 / 64.0;
        while year <= base + horizon_years {
            if self.unit_cost(a, mb, year, scenario) <= self.unit_cost(b, mb, year, scenario) {
                return Some(year);
            }
            year += step;
        }
        None
    }

    /// First (fractional) year at which `a`'s density passes `b`'s.
    pub fn density_crossover_year(
        &self,
        a: Technology,
        b: Technology,
        horizon_years: f64,
    ) -> Option<f64> {
        let base = self.base_year as f64;
        let mut year = base;
        let step = 1.0 / 64.0;
        while year <= base + horizon_years {
            if self.density(a, year) >= self.density(b, year) {
                return Some(year);
            }
            year += step;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_decline_at_stated_rates() {
        let m = TrendModel::default();
        let d94 = m.cost_per_mb(Technology::Dram, 1994.0, TrendScenario::PaperRates);
        assert!((d94 - nec_dram().cost_per_mb / 1.4).abs() < 1e-9);
        let k94 = m.cost_per_mb(Technology::Disk, 1994.0, TrendScenario::PaperRates);
        assert!((k94 - hp_kittyhawk().cost_per_mb / 1.25).abs() < 1e-9);
    }

    #[test]
    fn dram_density_passes_disk_within_a_few_years() {
        // §2: "the density of DRAM will shortly exceed that of disk."
        let m = TrendModel::default();
        let y = m
            .density_crossover_year(Technology::Dram, Technology::Disk, 10.0)
            .expect("crossover expected");
        assert!((1994.0..1997.0).contains(&y), "crossover year {y}");
    }

    #[test]
    fn intel_forecast_reproduces_mid90s_flash_disk_crossover() {
        // §2: "for 40-Megabyte configurations, the cost per megabyte of
        // flash memory will match that of magnetic disks by the year 1996."
        let m = TrendModel::default();
        let y = m
            .cost_crossover_year(
                Technology::Flash,
                Technology::Disk,
                40.0,
                15.0,
                TrendScenario::IntelForecast,
            )
            .expect("crossover expected");
        assert!((1995.0..1998.5).contains(&y), "crossover year {y}");
    }

    #[test]
    fn paper_rates_crossover_is_later_but_real() {
        let m = TrendModel::default();
        let y = m
            .cost_crossover_year(
                Technology::Flash,
                Technology::Disk,
                40.0,
                30.0,
                TrendScenario::PaperRates,
            )
            .expect("crossover expected inside 30 years");
        assert!(
            y > 1998.0,
            "paper-rate crossover {y} should trail the forecast"
        );
    }

    #[test]
    fn small_configs_cross_before_large_ones() {
        // The fixed per-drive cost hurts small disks most, so flash matches
        // disk sooner at 20 MB than at 120 MB.
        let m = TrendModel::default();
        let y20 = m
            .cost_crossover_year(
                Technology::Flash,
                Technology::Disk,
                20.0,
                30.0,
                TrendScenario::IntelForecast,
            )
            .expect("20 MB crossover");
        let y120 = m
            .cost_crossover_year(
                Technology::Flash,
                Technology::Disk,
                120.0,
                30.0,
                TrendScenario::IntelForecast,
            )
            .expect("120 MB crossover");
        assert!(y20 < y120, "{y20} vs {y120}");
    }

    #[test]
    fn dram_reaches_disk_cost_eventually() {
        // §2: "the cost of DRAM will match the cost of disks."
        let m = TrendModel::default();
        let y = m.cost_crossover_year(
            Technology::Dram,
            Technology::Disk,
            20.0,
            40.0,
            TrendScenario::PaperRates,
        );
        assert!(y.is_some());
    }

    #[test]
    fn disk_keeps_a_unit_cost_floor() {
        let m = TrendModel::default();
        let far = m.unit_cost(Technology::Disk, 20.0, 2013.0, TrendScenario::PaperRates);
        // Media cost is nearly gone, but the mechanism floor survives.
        assert!(far > 10.0);
    }
}
