//! F5 — cleaning cost vs utilisation (the LFS curve, ref \[11\]).
//!
//! The paper adopts LFS-style cleaning; its cost structure is the classic
//! Rosenblum/Ousterhout result: as the live fraction of the log grows,
//! every reclaimed segment requires copying more live data, and write
//! amplification explodes toward full utilisation. Cost-benefit victim
//! selection beats greedy under hot/cold skew by cleaning cold segments
//! early.

use ssmc_device::FlashSpec;
use ssmc_sim::{parallel_sweep, Clock, SimDuration, Table};
use ssmc_storage::{GcPolicy, StorageConfig, StorageManager};

fn steady_state_amplification(utilization: f64, gc: GcPolicy, skewed: bool) -> f64 {
    let clock = Clock::shared();
    let cfg = StorageConfig {
        page_size: 512,
        dram_buffer_bytes: 8 * 512,
        flash: FlashSpec {
            block_bytes: 16 * 1024,
            write_unit: 512,
            ..FlashSpec::default()
        }
        .with_capacity(2 << 20)
        .with_banks(2),
        gc,
        wear_leveling: ssmc_storage::WearLeveling::None,
        max_utilization: 0.96,
        gc_trigger_segments: 3,
        gc_target_segments: 5,
        checkpointing: false,
        ..StorageConfig::default()
    };
    let mut sm = StorageManager::new(cfg, clock.clone());
    let live_pages = (sm.page_capacity() as f64 * utilization / 0.96) as u64;
    let data = vec![0u8; 512];
    for p in 0..live_pages {
        sm.write_page(p, &data).expect("fill");
        if p % 512 == 0 {
            sm.sync().expect("sync");
        }
    }
    sm.sync().expect("sync");
    // Warm-up churn so the log reaches steady state.
    let mut rng = ssmc_sim::SimRng::seed_from_u64(3);
    let touch = |sm: &mut StorageManager, rng: &mut ssmc_sim::SimRng| {
        let page = if skewed && rng.chance(0.9) {
            rng.below((live_pages / 10).max(1))
        } else {
            rng.below(live_pages)
        };
        sm.write_page(page, &data).expect("update");
    };
    for i in 0..6_000u64 {
        touch(&mut sm, &mut rng);
        clock.advance(SimDuration::from_millis(5));
        if i % 32 == 0 {
            sm.sync().expect("sync");
            sm.tick().expect("tick");
        }
    }
    sm.sync().expect("sync");
    // Measured phase.
    let before_user = sm.metrics().user_flash_pages;
    let before_gc = sm.metrics().gc_flash_pages;
    for i in 0..8_000u64 {
        touch(&mut sm, &mut rng);
        clock.advance(SimDuration::from_millis(5));
        if i % 32 == 0 {
            sm.sync().expect("sync");
            sm.tick().expect("tick");
        }
    }
    sm.sync().expect("sync");
    let d_user = (sm.metrics().user_flash_pages - before_user).max(1);
    let d_gc = sm.metrics().gc_flash_pages - before_gc;
    (d_user + d_gc) as f64 / d_user as f64
}

/// Runs F5.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "F5: steady-state write amplification vs log utilisation",
        &[
            "utilisation",
            "greedy (uniform)",
            "cost-benefit (uniform)",
            "greedy (hot/cold)",
            "cost-benefit (hot/cold)",
        ],
    );
    // The full 5×4 grid of independent runs, flattened onto the sweep
    // pool, then regrouped one row per utilisation.
    let utilizations = [0.2, 0.4, 0.6, 0.75, 0.9];
    let configs = [
        (GcPolicy::Greedy, false),
        (GcPolicy::CostBenefit, false),
        (GcPolicy::Greedy, true),
        (GcPolicy::CostBenefit, true),
    ];
    let grid: Vec<(f64, GcPolicy, bool)> = utilizations
        .iter()
        .flat_map(|&u| configs.iter().map(move |&(gc, skewed)| (u, gc, skewed)))
        .collect();
    let amps = parallel_sweep(&grid, |_, &(u, gc, skewed)| {
        steady_state_amplification(u, gc, skewed)
    });
    for (row_idx, &u) in utilizations.iter().enumerate() {
        let base = row_idx * configs.len();
        t.row(vec![
            u.into(),
            amps[base].into(),
            amps[base + 1].into(),
            amps[base + 2].into(),
            amps[base + 3].into(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_explodes_toward_full_utilisation() {
        let low = steady_state_amplification(0.2, GcPolicy::Greedy, false);
        let high = steady_state_amplification(0.9, GcPolicy::Greedy, false);
        assert!(low < 1.5, "low-utilisation amp {low}");
        assert!(high > low + 0.5, "high {high} vs low {low}");
    }

    #[test]
    fn cost_benefit_wins_under_skew_at_high_utilisation() {
        let greedy = steady_state_amplification(0.85, GcPolicy::Greedy, true);
        let cb = steady_state_amplification(0.85, GcPolicy::CostBenefit, true);
        assert!(
            cb <= greedy * 1.05,
            "cost-benefit {cb} should not lose to greedy {greedy}"
        );
    }
}
