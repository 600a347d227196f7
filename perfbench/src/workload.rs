//! The three replay workloads and the machine they run on.

use ssmc_core::{MachineConfig, MobileComputer};
use ssmc_sim::Energy;
use ssmc_trace::{GeneratorConfig, OpStreamWriter, Workload};
use std::io;
use std::path::Path;

/// Default run seed (the trace generator's own default, 21932).
pub const DEFAULT_SEED: u64 = 0x55AC;

/// Trace seed of sub-trace `sub` of a run with `seed`: sub-trace 0 is
/// the generator's trace for `seed` itself, and the others step by the
/// 64-bit golden ratio so different run seeds never share a sub-trace
/// in practice.
pub fn sub_seed(seed: u64, sub: usize) -> u64 {
    seed.wrapping_add((sub as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Live-data cap the generator keeps every trace under.
const MAX_LIVE_BYTES: u64 = 4 << 20;

/// One benchmark workload: a generator profile, a trace length, and the
/// machine it replays on.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Trace generator profile.
    pub profile: Workload,
    /// Records per sub-trace.
    pub ops: usize,
    /// Independent sub-traces per run. Metrics are medians over them, so
    /// one seed that lands near a cleaning cliff cannot swing a run.
    pub subtraces: usize,
    /// Flash capacity of the machine, in MiB.
    pub flash_mib: u64,
    /// Whether the timeline flight recorder samples every simulated
    /// second during the replay.
    pub timeline: bool,
}

/// The workloads, in `BENCHMARK.json` order. Sub-trace lengths stay
/// well short of the cleaner collapse: past it a seed can stall for
/// minutes or fail ops, and even before it some seeds hit a storm of
/// summary-page writes, which the median over sub-traces absorbs.
pub const SPECS: [Spec; 2] = [
    // The general data path: write-buffer absorption, flush, GC of
    // already-dead segments, checkpoints and the only live sampler.
    // About 1,000 GC passes per 50k-op sub-trace; roughly one
    // sub-trace in seven already shows a summary-write storm at 50k.
    Spec {
        name: "bsd-long",
        profile: Workload::Bsd,
        ops: 50_000,
        subtraces: 9,
        flash_mib: 24,
        timeline: true,
    },
    // Create/stat/rename/unlink churn on a flash large enough that GC
    // never runs: namespace work, dispatch and decode dominate.
    Spec {
        name: "mail-spool",
        profile: Workload::MailSpool,
        ops: 50_000,
        subtraces: 10,
        flash_mib: 64,
        timeline: false,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.into_iter().find(|s| s.name == name)
    }

    /// The machine configuration: 8 MB DRAM with a 1 MB write buffer and
    /// a ~1 kWh pack, so the stock battery's death ~150k ops in never
    /// ends a replay.
    pub fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::with_sizes(self.name, 8 << 20, self.flash_mib << 20);
        cfg.write_buffer_bytes = Some(1 << 20);
        cfg.battery.primary_capacity = Energy::from_joules(3_600_000.0);
        cfg
    }

    /// A fresh machine.
    pub fn machine(&self) -> MobileComputer {
        MobileComputer::new(self.machine_config())
    }

    /// Generates the trace for `seed` into a `.ops` file at `path`,
    /// returning the record count.
    ///
    /// # Errors
    ///
    /// File-system errors while writing the stream.
    pub fn generate(&self, seed: u64, path: &Path) -> io::Result<u64> {
        let mut w = OpStreamWriter::create(path, self.name)?;
        let written = GeneratorConfig::new(self.profile)
            .with_ops(self.ops)
            .with_seed(seed)
            .with_max_live_bytes(MAX_LIVE_BYTES)
            .generate_into(&mut w)?;
        w.finish()?;
        Ok(written)
    }
}
