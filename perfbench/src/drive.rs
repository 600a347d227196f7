//! The layer drive: the machine's file-system and storage calls made
//! directly on a bare `MemFs` over a `StorageManager`, with a span
//! around each library call. It reproduces `MobileComputer`'s trace
//! path exactly — `/t{file}` paths, lazily opened write descriptors, the
//! 0xA5 payload, and `maintain`'s storage calls before every record — so
//! its counters and final SimTime must equal the machine run's, and the
//! spans split host time between the memfs and storage layers.

use crate::replay::{layer_fingerprint, RecordSource, OPS_DONE};
use crate::stats::{Accounting, Fingerprint};
use ssmc_core::MachineConfig;
use ssmc_memfs::{FsError, MemFs, OpenMode};
use ssmc_sim::obs::MetricsRegistry;
use ssmc_sim::{Clock, SimDuration};
use ssmc_storage::StorageManager;
use ssmc_trace::{FileId, FileOp};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The memfs calls the drive times, in report order.
pub const MEMFS_CALLS: [&str; 9] = [
    "create",
    "open",
    "write",
    "read_discard",
    "ftruncate",
    "unlink",
    "stat",
    "rename",
    "sync",
];

const CREATE: usize = 0;
const OPEN: usize = 1;
const WRITE: usize = 2;
const READ_DISCARD: usize = 3;
const FTRUNCATE: usize = 4;
const UNLINK: usize = 5;
const STAT: usize = 6;
const RENAME: usize = 7;
const SYNC: usize = 8;

/// Host ns and call count of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Total ns inside the call.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
}

impl Span {
    /// Mean ns per call, zero without calls.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Times `f` into `span`.
fn timed<T>(span: &mut Span, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    span.ns += t.elapsed().as_nanos() as u64;
    span.calls += 1;
    r
}

/// What one drive over a trace produced.
#[derive(Debug)]
pub struct DriveRun {
    /// Where every record went.
    pub acct: Accounting,
    /// One span per [`MEMFS_CALLS`] entry.
    pub memfs: [Span; 9],
    /// `StorageManager::charge_idle` before records.
    pub idle: Span,
    /// `StorageManager::tick` before records.
    pub tick: Span,
    /// The file system's registry at the end of the drive.
    pub registry: MetricsRegistry,
    /// SimTime plus every `fs.*`, `storage.*` and `flash.*` counter.
    pub fingerprint: Fingerprint,
}

impl DriveRun {
    /// Host ns inside every memfs and storage span.
    pub fn layer_ns(&self) -> u64 {
        self.memfs.iter().map(|s| s.ns).sum::<u64>() + self.idle.ns + self.tick.ns
    }
}

/// Drive state: the file system plus `apply_op`'s bookkeeping, which
/// stays outside every span.
struct Drive {
    fs: MemFs,
    fds: HashMap<FileId, u64>,
    payload: Vec<u8>,
    path: String,
    path_to: String,
    memfs: [Span; 9],
}

fn trace_path(buf: &mut String, file: FileId) -> &str {
    buf.clear();
    let _ = write!(buf, "/t{file}");
    buf
}

impl Drive {
    fn fd(&mut self, file: FileId) -> Result<u64, FsError> {
        if let Some(&fd) = self.fds.get(&file) {
            return Ok(fd);
        }
        let path = trace_path(&mut self.path, file);
        let fs = &mut self.fs;
        let fd = timed(&mut self.memfs[OPEN], || fs.open(path, OpenMode::Write))?;
        self.fds.insert(file, fd);
        Ok(fd)
    }

    fn apply(&mut self, op: &FileOp) -> Result<(), FsError> {
        match *op {
            FileOp::Create { file } => {
                let path = trace_path(&mut self.path, file);
                let fs = &mut self.fs;
                let fd = timed(&mut self.memfs[CREATE], || fs.create(path))?;
                self.fds.insert(file, fd);
            }
            FileOp::Write { file, offset, len } => {
                let fd = self.fd(file)?;
                let len = len as usize;
                if self.payload.len() < len {
                    self.payload.resize(len, 0xA5);
                }
                let (fs, data) = (&mut self.fs, &self.payload[..len]);
                timed(&mut self.memfs[WRITE], || fs.write(fd, offset, data))?;
            }
            FileOp::Read { file, offset, len } => {
                let fd = self.fd(file)?;
                let fs = &mut self.fs;
                timed(&mut self.memfs[READ_DISCARD], || {
                    fs.read_discard(fd, offset, len)
                })?;
            }
            FileOp::Truncate { file, len } => {
                let fd = self.fd(file)?;
                let fs = &mut self.fs;
                timed(&mut self.memfs[FTRUNCATE], || fs.ftruncate(fd, len))?;
            }
            FileOp::Delete { file } => {
                self.fds.remove(&file);
                let path = trace_path(&mut self.path, file);
                let fs = &mut self.fs;
                timed(&mut self.memfs[UNLINK], || fs.unlink(path))?;
            }
            FileOp::Stat { file } => {
                let path = trace_path(&mut self.path, file);
                let fs = &mut self.fs;
                timed(&mut self.memfs[STAT], || fs.stat(path))?;
            }
            FileOp::Rename { file, to } => {
                let from = trace_path(&mut self.path, file);
                let to_path = trace_path(&mut self.path_to, to);
                let fs = &mut self.fs;
                timed(&mut self.memfs[RENAME], || fs.rename(from, to_path))?;
                if let Some(fd) = self.fds.remove(&file) {
                    self.fds.insert(to, fd);
                }
            }
            FileOp::Sync => {
                let fs = &mut self.fs;
                timed(&mut self.memfs[SYNC], || fs.sync())?;
            }
        }
        Ok(())
    }
}

/// Drives every record of `src` through a bare `MemFs` built as
/// `MobileComputer::new` builds its own, stopping once host time passes
/// `deadline`.
///
/// # Errors
///
/// Decode errors, or a format failure on the fresh device.
pub fn drive<S: RecordSource>(
    cfg: &MachineConfig,
    src: &mut S,
    deadline: Instant,
) -> io::Result<DriveRun> {
    let clock = Clock::shared();
    let mut storage_cfg = cfg.storage.clone();
    storage_cfg.dram_buffer_bytes = cfg.buffer_bytes();
    let sm = StorageManager::new(storage_cfg, clock.clone());
    let fs = MemFs::new(sm, cfg.write_policy)
        .map_err(|e| io::Error::other(format!("format failed: {e}")))?;
    let mut d = Drive {
        fs,
        fds: HashMap::new(),
        payload: Vec::new(),
        path: String::new(),
        path_to: String::new(),
        memfs: [Span::default(); 9],
    };
    let mut idle = Span::default();
    let mut tick = Span::default();
    let mut acct = Accounting {
        attempted: src.len(),
        ..Accounting::default()
    };
    let mut last_maintain = clock.now();
    OPS_DONE.store(0, Ordering::Relaxed);
    while let Some(rec) = src.next_record()? {
        clock.advance_to(rec.at);
        // `MobileComputer::maintain`'s storage calls, in its order.
        let now = clock.now();
        let dt = now.since(last_maintain);
        if dt > SimDuration::ZERO {
            let sm = d.fs.storage_mut();
            timed(&mut idle, || sm.charge_idle(dt, false));
            last_maintain = now;
        }
        let sm = d.fs.storage_mut();
        let _ = timed(&mut tick, || sm.tick());
        let failed = d.apply(&rec.op).is_err();
        acct.replayed += 1;
        OPS_DONE.store(acct.replayed, Ordering::Relaxed);
        if failed {
            acct.op_errors += 1;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut registry = MetricsRegistry::new();
    d.fs.publish_metrics(&mut registry);
    let fingerprint = layer_fingerprint(&registry, clock.now());
    Ok(DriveRun {
        acct,
        memfs: d.memfs,
        idle,
        tick,
        registry,
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay_machine, Mode};
    use crate::stats::fingerprint_diff;
    use crate::workload::SPECS;
    use ssmc_trace::{GeneratorConfig, Workload};
    use std::path::Path;
    use std::time::Duration;

    #[test]
    fn drive_reproduces_the_machine_on_every_profile() {
        let far = Instant::now() + Duration::from_secs(600);
        for profile in [
            Workload::Bsd,
            Workload::Database,
            Workload::MailSpool,
            Workload::Office,
        ] {
            let spec = crate::workload::Spec {
                profile,
                ..SPECS[0]
            };
            let recs = GeneratorConfig::new(spec.profile)
                .with_ops(3_000)
                .with_max_live_bytes(4 << 20)
                .generate()
                .records;
            let mode = Mode {
                traced: false,
                timeline: false,
            };
            let m = replay_machine(
                &spec,
                &mut recs.clone().into_iter(),
                mode,
                Path::new(""),
                far,
            )
            .expect("machine");
            let d = drive(&spec.machine_config(), &mut recs.into_iter(), far).expect("drive");
            let diff = fingerprint_diff(&m.fingerprint, &d.fingerprint);
            assert!(diff.is_empty(), "{}: {diff:?}", spec.name);
            assert_eq!(m.acct, d.acct, "{}", spec.name);
            let calls: u64 = d.memfs.iter().map(|s| s.calls).sum();
            assert!(
                calls >= 3_000 - m.acct.op_errors,
                "{}: one call per record at least",
                spec.name
            );
            assert_eq!(d.tick.calls, 3_000);
        }
    }
}
