//! Experiment harness: regenerates every table and figure derived from
//! the paper's quantitative claims.
//!
//! The paper (a HotOS position paper) has no numbered exhibits; DESIGN.md
//! assigns ids T1–T3 and F1–F8 to its quantitative claims. Each module in
//! [`exp`] regenerates one of them as text tables (and, where
//! figure-shaped, as `(x, y)` series embedded in the tables).
//!
//! Run them with:
//!
//! ```text
//! cargo run --release -p ssmc-bench --bin experiments -- all
//! cargo run --release -p ssmc-bench --bin experiments -- f2 f4
//! ```

pub mod alloc_sentinel;
pub mod exp;
pub mod obs_diff;
pub mod obs_trace;

use ssmc_device::FlashSpec;
use ssmc_sim::{SimDuration, Table};
use ssmc_storage::torture::TortureOp;
use ssmc_storage::StorageConfig;
use ssmc_trace::{project, GeneratorConfig, OracleConfig, PageOpKind, Workload};

/// An experiment: id, one-line description, and the function that runs it.
pub struct Experiment {
    /// Identifier, e.g. `"f2"`.
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// Runs the experiment, returning its tables.
    pub run: fn() -> Vec<Table>,
}

/// The registry of all experiments, in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "t1",
            title: "§2 device characteristics: DRAM vs flash vs disk",
            run: exp::t1::run,
        },
        Experiment {
            id: "f1",
            title: "§2 technology trends: cost/density extrapolation and crossovers",
            run: exp::f1::run,
        },
        Experiment {
            id: "f2",
            title: "§3.3 write buffer: flash write traffic vs DRAM buffer size",
            run: exp::f2::run,
        },
        Experiment {
            id: "f3",
            title: "§3.3 banking: read latency under concurrent programs/erases",
            run: exp::f3::run,
        },
        Experiment {
            id: "f4",
            title: "§3.3 wear: erase distribution and lifetime by placement/GC policy",
            run: exp::f4::run,
        },
        Experiment {
            id: "f5",
            title: "§3.3 cleaning cost: write amplification vs utilisation",
            run: exp::f5::run,
        },
        Experiment {
            id: "t2",
            title: "§3.1 file systems: memory-resident vs disk-based on equal workloads",
            run: exp::t2::run,
        },
        Experiment {
            id: "f6",
            title: "§3.2 execute-in-place vs demand loading",
            run: exp::f6::run,
        },
        Experiment {
            id: "f7",
            title: "§4 sizing: DRAM:flash split under a fixed budget, per workload",
            run: exp::f7::run,
        },
        Experiment {
            id: "t3",
            title: "§3.1 battery failure: data at risk, recovery, holding times",
            run: exp::t3::run,
        },
        Experiment {
            id: "f8",
            title: "§3.1 copy-on-write mapped files vs copy-on-open",
            run: exp::f8::run,
        },
        Experiment {
            id: "a1",
            title: "ablation: write-buffer flush policy (absorption vs exposure)",
            run: exp::a1::run,
        },
        Experiment {
            id: "a2",
            title: "ablation: checkpointing overhead vs recovery time",
            run: exp::a2::run,
        },
        Experiment {
            id: "a3",
            title: "ablation: logical page size",
            run: exp::a3::run,
        },
    ]
}

/// Parses the value of a `--threads` flag (`None` when the flag is last
/// on the command line): the worker count for `ssmc_sim::parallel_sweep`,
/// where `0` means every host core (see `ssmc_sim::threads`).
///
/// # Errors
///
/// The one-line message the binaries print before exiting 2.
pub fn parse_threads(value: Option<&str>) -> Result<usize, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "--threads needs a non-negative integer (0 = all host cores)".to_owned())
}

/// The crash-torture sweep's set-up (`experiments crash-torture`): the
/// storage configuration it cuts and the page-op stream it replays.
///
/// The stream is `trace_ops` generated ops of `workload` at `seed` under
/// a 128 KB live cap, projected to page ops through the trace oracle.
/// The flash is small so that a 2k-op window still exercises GC and
/// checkpointing: 4 banks × 16 blocks × 8 KiB = 1024 pages against
/// ≤ 256 live.
pub fn torture_sweep(
    workload: Workload,
    trace_ops: usize,
    seed: u64,
) -> (StorageConfig, Vec<TortureOp>) {
    let cfg = StorageConfig {
        page_size: 512,
        dram_buffer_bytes: 16 << 10,
        flash: FlashSpec {
            banks: 4,
            blocks_per_bank: 16,
            block_bytes: 8 << 10,
            write_unit: 512,
            ..FlashSpec::default()
        },
        gc_trigger_segments: 4,
        gc_target_segments: 6,
        checkpoint_interval: SimDuration::from_secs(1),
        ..StorageConfig::default()
    };
    let trace = GeneratorConfig::new(workload)
        .with_ops(trace_ops)
        .with_seed(seed)
        .with_max_live_bytes(128 << 10)
        .generate();
    let ops = project(&trace, &OracleConfig::default())
        .iter()
        .map(|o| match o.kind {
            PageOpKind::Write => TortureOp::Write { page: o.page },
            PageOpKind::Free => TortureOp::Free { page: o.page },
            PageOpKind::Sync => TortureOp::Sync,
            PageOpKind::Tick => TortureOp::Tick,
        })
        .collect();
    (cfg, ops)
}

#[cfg(test)]
mod tests {
    use super::parse_threads;

    #[test]
    fn threads_flag_accepts_zero_and_rejects_junk() {
        assert_eq!(parse_threads(Some("0")), Ok(0));
        assert_eq!(parse_threads(Some("4")), Ok(4));
        for bad in [Some("x"), None] {
            let err = parse_threads(bad).unwrap_err();
            assert_eq!(
                err,
                "--threads needs a non-negative integer (0 = all host cores)"
            );
        }
    }
}
