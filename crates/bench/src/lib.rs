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
use ssmc_storage::torture::{TortureOp, TICK_STEP};
use ssmc_storage::StorageConfig;
use ssmc_trace::{FileOp, GeneratorConfig, Trace, Workload};
use std::collections::BTreeMap;

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
/// a 128 KB live cap, projected to page ops by `project`.
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
    let ops = project(&trace, cfg.page_size);
    (cfg, ops)
}

/// Most [`TortureOp::Tick`]s one long trace gap emits, so sparse traces
/// cannot bloat the op stream.
const MAX_TICKS_PER_GAP: u64 = 4;

/// Projects a file trace onto torture page ops of `page_size` bytes
/// under a deterministic first-touch page allocator: each `(file,
/// page-index)` pair gets a fresh logical page the first time it is
/// written. Writes fan out over the pages their byte extent touches;
/// deletes and truncations free the file's pages in index order; renames
/// re-home the mapping without touching storage; syncs pass through;
/// reads and stats project to nothing (they cannot change durable
/// state). Each gap of [`TICK_STEP`] in the trace's clock becomes one
/// `Tick`, so the replay exercises age flushes and checkpoints, not just
/// the sync path. The projection is a pure function of the trace, so
/// every torture cut replays the identical prefix.
fn project(trace: &Trace, page_size: u64) -> Vec<TortureOp> {
    let mut out = Vec::with_capacity(trace.records.len());
    // (file, page-index-within-file) -> allocated logical page. Frees walk
    // a file's pages in index order, so the ordered map is the point.
    let mut pages: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut next_page = 0u64;
    let mut last_tick = trace.records.first().map(|r| r.at);

    for r in &trace.records {
        if let Some(last) = last_tick {
            let gap = r.at.since(last).as_nanos();
            let ticks = (gap / TICK_STEP.as_nanos()).min(MAX_TICKS_PER_GAP);
            for _ in 0..ticks {
                out.push(TortureOp::Tick);
            }
            if ticks > 0 {
                last_tick = Some(r.at);
            }
        }
        match r.op {
            FileOp::Create { .. } | FileOp::Read { .. } | FileOp::Stat { .. } => {}
            FileOp::Write { file, offset, len } => {
                if len == 0 {
                    continue;
                }
                for idx in offset / page_size..=(offset + len - 1) / page_size {
                    let page = *pages.entry((file, idx)).or_insert_with(|| {
                        let p = next_page;
                        next_page += 1;
                        p
                    });
                    out.push(TortureOp::Write { page });
                }
            }
            FileOp::Delete { file } => free_range(&mut pages, file, 0, &mut out),
            FileOp::Truncate { file, len } => {
                // Pages wholly beyond the new length are freed; a page
                // straddling the cut survives (its tail bytes are zeroed
                // by the file layer, not the page allocator).
                free_range(&mut pages, file, len.div_ceil(page_size), &mut out);
            }
            FileOp::Rename { file, to } => {
                let moved: Vec<((u64, u64), u64)> = pages
                    .range((file, 0)..(file, u64::MAX))
                    .map(|(&k, &v)| (k, v))
                    .collect();
                for ((_, idx), page) in moved {
                    pages.remove(&(file, idx));
                    pages.insert((to, idx), page);
                }
            }
            FileOp::Sync => out.push(TortureOp::Sync),
        }
    }
    out
}

/// Frees every allocated page of `file` with index `>= from_idx`,
/// removing the mapping and emitting `Free` ops in index order.
fn free_range(
    pages: &mut BTreeMap<(u64, u64), u64>,
    file: u64,
    from_idx: u64,
    out: &mut Vec<TortureOp>,
) {
    let doomed: Vec<(u64, u64)> = pages
        .range((file, from_idx)..(file, u64::MAX))
        .map(|(&(f, i), &p)| {
            debug_assert_eq!(f, file);
            (i, p)
        })
        .collect();
    for (idx, page) in doomed {
        pages.remove(&(file, idx));
        out.push(TortureOp::Free { page });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::SimTime;
    use std::collections::BTreeSet;

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

    fn at(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// The projection of `t` at 512-byte pages, without its ticks.
    fn project_untimed(t: &Trace) -> Vec<TortureOp> {
        let mut ops = project(t, 512);
        ops.retain(|o| *o != TortureOp::Tick);
        ops
    }

    fn writes(ops: &[TortureOp]) -> Vec<u64> {
        ops.iter()
            .filter_map(|o| match *o {
                TortureOp::Write { page } => Some(page),
                _ => None,
            })
            .collect()
    }

    fn frees(ops: &[TortureOp]) -> Vec<u64> {
        ops.iter()
            .filter_map(|o| match *o {
                TortureOp::Free { page } => Some(page),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn write_fans_out_over_touched_pages_first_touch_allocates() {
        let mut t = Trace::new("t");
        t.push(at(0), FileOp::Create { file: 1 });
        // 3 pages: [0, 1536) at 512-byte pages.
        t.push(
            at(1),
            FileOp::Write {
                file: 1,
                offset: 0,
                len: 1536,
            },
        );
        // Rewrite of page 1 only: same logical page, no new allocation.
        t.push(
            at(2),
            FileOp::Write {
                file: 1,
                offset: 512,
                len: 512,
            },
        );
        assert_eq!(writes(&project_untimed(&t)), vec![0, 1, 2, 1]);
    }

    #[test]
    fn delete_frees_every_allocated_page_exactly_once() {
        let mut t = Trace::new("t");
        t.push(at(0), FileOp::Create { file: 9 });
        t.push(
            at(1),
            FileOp::Write {
                file: 9,
                offset: 0,
                len: 2048,
            },
        );
        t.push(at(2), FileOp::Delete { file: 9 });
        assert_eq!(frees(&project_untimed(&t)), vec![0, 1, 2, 3]);
    }

    #[test]
    fn truncate_frees_only_the_tail() {
        let mut t = Trace::new("t");
        t.push(at(0), FileOp::Create { file: 2 });
        t.push(
            at(1),
            FileOp::Write {
                file: 2,
                offset: 0,
                len: 2048,
            },
        );
        // Truncate to 700 bytes: page 1 straddles (keep), pages 2–3 go.
        t.push(at(2), FileOp::Truncate { file: 2, len: 700 });
        assert_eq!(frees(&project_untimed(&t)), vec![2, 3]);
    }

    #[test]
    fn rename_rehomes_pages_without_storage_traffic() {
        let mut t = Trace::new("t");
        t.push(at(0), FileOp::Create { file: 3 });
        t.push(
            at(1),
            FileOp::Write {
                file: 3,
                offset: 0,
                len: 512,
            },
        );
        t.push(at(2), FileOp::Rename { file: 3, to: 4 });
        t.push(at(3), FileOp::Delete { file: 4 });
        let ops = project_untimed(&t);
        // Rename emitted nothing; the delete frees the original page.
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1], TortureOp::Free { page: 0 });
    }

    #[test]
    fn time_gaps_emit_bounded_ticks() {
        let mut t = Trace::new("t");
        t.push(at(0), FileOp::Create { file: 1 });
        t.push(at(10_000), FileOp::Sync); // 10 s gap, 250 ms ticks
        let ops = project(&t, 512);
        let ticks = ops.iter().filter(|o| **o == TortureOp::Tick).count();
        assert_eq!(ticks, 4, "capped at MAX_TICKS_PER_GAP");
    }

    /// Invariants over generated workloads: every free targets a page
    /// that is currently allocated, no page is double-freed without a
    /// re-allocating write in between, and the projection reproduces.
    #[test]
    fn projection_invariants_hold_on_generated_traces() {
        for (i, w) in [Workload::Bsd, Workload::Office, Workload::Database]
            .into_iter()
            .enumerate()
        {
            let trace = GeneratorConfig::new(w)
                .with_ops(2_000)
                .with_seed(0xACE0 + i as u64)
                .with_max_live_bytes(1 << 20)
                .generate();
            let ops = project(&trace, 512);
            assert!(!ops.is_empty());
            let mut live: BTreeSet<u64> = BTreeSet::new();
            for op in &ops {
                match *op {
                    TortureOp::Write { page } => {
                        live.insert(page);
                    }
                    TortureOp::Free { page } => {
                        assert!(live.remove(&page), "{w:?}: free of dead page");
                    }
                    TortureOp::Sync | TortureOp::Tick => {}
                }
            }
            assert_eq!(
                ops,
                project(&trace, 512),
                "{w:?}: projection not reproducible"
            );
        }
    }
}
