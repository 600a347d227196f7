//! Randomized-model test: the memory-resident file system against an
//! in-memory model (`HashMap<name, Vec<u8>>`).
//!
//! Random sequences of create/write/read/truncate/rename/delete must
//! produce byte-identical results in the real FS and the model, across
//! odd offsets, page-straddling extents, holes, and name reuse.
//!
//! Cases are generated from fixed seeds by `SimRng`, so every run (and
//! every machine) exercises the identical sequences; a failure message
//! names the seed so the case can be replayed in isolation.

use ssmc::device::FlashSpec;
use ssmc::memfs::{FsError, MemFs, OpenMode, WritePolicy};
use ssmc::sim::{Clock, SimRng};
use ssmc::storage::{StorageConfig, StorageManager};
use std::collections::HashMap;

const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
/// Base seed for the deterministic case generator.
const SEED: u64 = 0x3E3F_5000;

#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Write(usize, u16, u16, u8),
    Read(usize, u16, u16),
    Truncate(usize, u16),
    Delete(usize),
    Rename(usize, usize),
    Sync,
}

/// Mirrors the old proptest weights: Create 2, Write 4, Read 3,
/// Truncate/Delete/Rename/Sync 1 each (total 13).
fn random_op(rng: &mut SimRng) -> Op {
    let name = |rng: &mut SimRng| rng.below(NAMES.len() as u64) as usize;
    match rng.below(13) {
        0..=1 => Op::Create(name(rng)),
        2..=5 => Op::Write(
            name(rng),
            rng.below(6000) as u16,
            1 + rng.below(2999) as u16,
            rng.below(256) as u8,
        ),
        6..=8 => Op::Read(
            name(rng),
            rng.below(8000) as u16,
            1 + rng.below(3999) as u16,
        ),
        9 => Op::Truncate(name(rng), rng.below(6000) as u16),
        10 => Op::Delete(name(rng)),
        11 => Op::Rename(name(rng), name(rng)),
        _ => Op::Sync,
    }
}

fn fs() -> MemFs {
    let clock = Clock::shared();
    let cfg = StorageConfig {
        page_size: 512,
        dram_buffer_bytes: 32 * 512,
        flash: FlashSpec {
            banks: 2,
            blocks_per_bank: 40,
            block_bytes: 8192,
            write_unit: 512,
            ..FlashSpec::default()
        },
        ..StorageConfig::default()
    };
    MemFs::new(StorageManager::new(cfg, clock), WritePolicy::CopyOnWrite).expect("mount")
}

fn path(i: usize) -> String {
    format!("/{}", NAMES[i])
}

/// Drives one operation sequence against the model; panics (with `ctx`
/// naming the seed) on any divergence.
fn check_against_model(ops: &[Op], ctx: &str) {
    let mut fs = fs();
    let mut model: HashMap<String, Vec<u8>> = HashMap::new();

    for op in ops {
        match *op {
            Op::Create(n) => {
                let p = path(n);
                let real = fs.create(&p);
                match model.entry(p.clone()) {
                    std::collections::hash_map::Entry::Occupied(_) => {
                        assert_eq!(
                            real.err(),
                            Some(FsError::Exists),
                            "{ctx}: double create {p}"
                        );
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        assert!(real.is_ok(), "{ctx}: create {p} failed");
                        fs.close(real.expect("checked")).expect("close");
                        v.insert(Vec::new());
                    }
                }
            }
            Op::Write(n, off, len, byte) => {
                let p = path(n);
                let data = vec![byte; len as usize];
                match fs.open(&p, OpenMode::Write) {
                    Ok(fd) => {
                        assert!(model.contains_key(&p), "{ctx}: opened ghost {p}");
                        fs.write(fd, off as u64, &data).expect("write");
                        fs.close(fd).expect("close");
                        let file = model.get_mut(&p).expect("exists");
                        let end = off as usize + len as usize;
                        if file.len() < end {
                            file.resize(end, 0);
                        }
                        file[off as usize..end].copy_from_slice(&data);
                    }
                    Err(FsError::NotFound) => {
                        assert!(!model.contains_key(&p), "{ctx}: {p} should exist");
                    }
                    Err(e) => panic!("{ctx}: open: {e}"),
                }
            }
            Op::Read(n, off, len) => {
                let p = path(n);
                match fs.open(&p, OpenMode::Read) {
                    Ok(fd) => {
                        let mut buf = vec![0xEEu8; len as usize];
                        let got = fs.read(fd, off as u64, &mut buf).expect("read");
                        fs.close(fd).expect("close");
                        let file = &model[&p];
                        let expected: &[u8] = if (off as usize) < file.len() {
                            &file[off as usize..(off as usize + len as usize).min(file.len())]
                        } else {
                            &[]
                        };
                        assert_eq!(got, expected.len(), "{ctx}: short-read length for {p}");
                        assert_eq!(&buf[..got], expected, "{ctx}: content of {p}");
                    }
                    Err(FsError::NotFound) => {
                        assert!(!model.contains_key(&p), "{ctx}: {p} should exist");
                    }
                    Err(e) => panic!("{ctx}: open: {e}"),
                }
            }
            Op::Truncate(n, len) => {
                let p = path(n);
                match fs.open(&p, OpenMode::Write) {
                    Ok(fd) => {
                        fs.ftruncate(fd, len as u64).expect("truncate");
                        fs.close(fd).expect("close");
                        let file = model.get_mut(&p).expect("exists");
                        file.resize(len as usize, 0);
                    }
                    Err(FsError::NotFound) => {
                        assert!(!model.contains_key(&p), "{ctx}: {p} should exist");
                    }
                    Err(e) => panic!("{ctx}: open: {e}"),
                }
            }
            Op::Delete(n) => {
                let p = path(n);
                let real = fs.unlink(&p);
                if model.remove(&p).is_some() {
                    assert!(real.is_ok(), "{ctx}: unlink {p} failed: {:?}", real.err());
                } else {
                    assert_eq!(
                        real.err(),
                        Some(FsError::NotFound),
                        "{ctx}: unlink ghost {p}"
                    );
                }
            }
            Op::Rename(a, b) => {
                let (pa, pb) = (path(a), path(b));
                let real = fs.rename(&pa, &pb);
                match (model.contains_key(&pa), model.contains_key(&pb), a == b) {
                    (true, true, _) => {
                        assert_eq!(real.err(), Some(FsError::Exists), "{ctx}: rename onto {pb}")
                    }
                    (true, false, _) => {
                        assert!(real.is_ok(), "{ctx}: rename failed: {:?}", real.err());
                        let v = model.remove(&pa).expect("exists");
                        model.insert(pb, v);
                    }
                    (false, _, _) => {
                        assert_eq!(
                            real.err(),
                            Some(FsError::NotFound),
                            "{ctx}: rename ghost {pa}"
                        )
                    }
                }
            }
            Op::Sync => fs.sync().expect("sync"),
        }
    }

    // Final audit: directory listing matches the model's name set, and
    // every file's full contents match.
    let mut listed: Vec<String> = fs
        .list_dir("/")
        .expect("list")
        .into_iter()
        .map(|e| e.name)
        .collect();
    listed.sort();
    let mut expected: Vec<String> = model.keys().map(|p| p[1..].to_owned()).collect();
    expected.sort();
    assert_eq!(listed, expected, "{ctx}: directory listing diverged");
    for (p, contents) in &model {
        let st = fs.stat(p).expect("stat");
        assert_eq!(st.size, contents.len() as u64, "{ctx}: size of {p}");
        let fd = fs.open(p, OpenMode::Read).expect("open");
        let mut buf = vec![0u8; contents.len()];
        let n = fs.read(fd, 0, &mut buf).expect("read");
        assert_eq!(n, contents.len(), "{ctx}: full read of {p}");
        assert_eq!(&buf, contents, "{ctx}: final contents of {p}");
    }
}

#[test]
fn memfs_matches_in_memory_model() {
    for case in 0..32u64 {
        let seed = SEED + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let len = 1 + rng.below(59);
        let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng)).collect();
        check_against_model(&ops, &format!("seed {seed}"));
    }
}

/// Regression distilled by the old proptest shrinker: a write that grows
/// the file, a shrinking truncate, then a one-byte write just past the
/// truncated end must leave exactly the model's bytes (zero-filled hole,
/// not stale pre-truncate data).
#[test]
fn memfs_regression_write_after_shrinking_truncate() {
    let ops = [
        Op::Create(0),
        Op::Write(0, 1714, 2969, 1),
        Op::Truncate(0, 1537),
        Op::Write(0, 1715, 1, 0),
    ];
    check_against_model(&ops, "regression");
}

#[test]
fn sync_crash_recover_preserves_synced_files() {
    for case in 0..32u64 {
        let seed = SEED + 1_000 + case;
        let mut rng = SimRng::seed_from_u64(seed);
        // 1..5 distinct files, each with a random length and fill byte.
        let mut files: HashMap<usize, (u16, u8)> = HashMap::new();
        let count = 1 + rng.below(4);
        while (files.len() as u64) < count {
            let n = rng.below(NAMES.len() as u64) as usize;
            let len = 1 + rng.below(3999) as u16;
            let byte = rng.below(256) as u8;
            files.entry(n).or_insert((len, byte));
        }

        let mut fs = fs();
        for (&n, &(len, byte)) in &files {
            let fd = fs.create(&path(n)).expect("create");
            fs.write(fd, 0, &vec![byte; len as usize]).expect("write");
            fs.close(fd).expect("close");
        }
        fs.sync().expect("sync");
        fs.crash();
        let (report, fsck) = fs.recover().expect("recover");
        assert_eq!(report.lost_pages, 0, "seed {seed}: lost pages");
        assert_eq!(fsck.dangling_entries, 0, "seed {seed}: dangling entries");
        for (&n, &(len, byte)) in &files {
            let fd = fs.open(&path(n), OpenMode::Read).expect("reopen");
            let mut buf = vec![0u8; len as usize];
            let got = fs.read(fd, 0, &mut buf).expect("read");
            assert_eq!(got, len as usize, "seed {seed}: short read");
            assert!(
                buf.iter().all(|&x| x == byte),
                "seed {seed}: contents of {} diverged",
                path(n)
            );
            fs.close(fd).expect("close");
        }
    }
}
