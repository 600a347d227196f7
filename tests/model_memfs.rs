//! Randomized-model test: the memory-resident file system against an
//! in-memory model (`HashMap<name, Vec<u8>>`).
//!
//! Random sequences of create/write/read/truncate/rename/delete must
//! produce byte-identical results in the real FS and the model, across
//! odd offsets, page-straddling extents, holes, and name reuse. A second
//! case drives a two-level directory tree (mkdir, rmdir, create, unlink,
//! rename) against a path-keyed model, auditing every listing and stat
//! after each op.
//!
//! Cases are generated from fixed seeds by `SimRng`, so every run (and
//! every machine) exercises the identical sequences; a failure message
//! names the seed so the case can be replayed in isolation.

use ssmc::device::FlashSpec;
use ssmc::memfs::{FsError, InodeKind, MemFs, OpenMode, WritePolicy};
use ssmc::sim::{Clock, SimRng};
use ssmc::storage::{StorageConfig, StorageManager};
use std::collections::{BTreeMap, HashMap};

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

/// Names at each level of the directory-tree case: its paths are `/x`
/// and `/x/y` for `x`, `y` drawn from these.
const TREE_NAMES: [&str; 3] = ["a", "b", "c"];

#[derive(Debug, Clone, Copy)]
enum TreeOp {
    Mkdir(usize),
    Rmdir(usize),
    Create(usize),
    Unlink(usize),
    Rename(usize, usize),
}

/// The tree case's paths: the level-1 names, then every level-2 path.
fn tree_paths() -> Vec<String> {
    let mut paths: Vec<String> = TREE_NAMES.iter().map(|x| format!("/{x}")).collect();
    for x in TREE_NAMES {
        for y in TREE_NAMES {
            paths.push(format!("/{x}/{y}"));
        }
    }
    paths
}

/// Weights mkdir 3, rmdir 2, create 3, unlink 2, rename 2 (total 12).
fn random_tree_op(rng: &mut SimRng, paths: usize) -> TreeOp {
    let kind = rng.below(12);
    let mut path = || rng.below(paths as u64) as usize;
    match kind {
        0..=2 => TreeOp::Mkdir(path()),
        3..=4 => TreeOp::Rmdir(path()),
        5..=7 => TreeOp::Create(path()),
        8..=9 => TreeOp::Unlink(path()),
        _ => TreeOp::Rename(path(), path()),
    }
}

/// A model node: a directory, or a file with the descriptor its create
/// returned (kept open) and its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Dir,
    File { fd: u64, size: u64 },
}

/// The model's namespace: every node below the root, keyed by its
/// absolute path.
type Tree = BTreeMap<String, Node>;

fn parent_of(path: &str) -> &str {
    path.rsplit_once('/').map_or("", |(dir, _)| dir)
}

/// Whether `path` is `dir` or lies below it.
fn within(path: &str, dir: &str) -> bool {
    path.strip_prefix(dir)
        .is_some_and(|r| r.is_empty() || r.starts_with('/'))
}

/// What memfs's path walk returns for `path`: the node, or the error of
/// the first component that is missing or is a file with more to walk.
fn model_lookup(tree: &Tree, path: &str) -> Result<Node, FsError> {
    let mut node = Node::Dir;
    for (end, _) in path.match_indices('/').skip(1).chain([(path.len(), "")]) {
        if node != Node::Dir {
            return Err(FsError::NotDir);
        }
        node = *tree.get(&path[..end]).ok_or(FsError::NotFound)?;
    }
    Ok(node)
}

/// What memfs's `resolve_parent` returns: the parent must resolve and be
/// a directory.
fn model_parent(tree: &Tree, path: &str) -> Result<(), FsError> {
    let parent = parent_of(path);
    if parent.is_empty() || model_lookup(tree, parent)? == Node::Dir {
        Ok(())
    } else {
        Err(FsError::NotDir)
    }
}

/// What create and mkdir return: the parent is a directory and the name
/// is free.
fn model_fresh(tree: &Tree, path: &str) -> Result<(), FsError> {
    model_parent(tree, path)?;
    match tree.contains_key(path) {
        true => Err(FsError::Exists),
        false => Ok(()),
    }
}

fn model_children<'t>(tree: &'t Tree, dir: &str) -> Vec<&'t str> {
    tree.keys()
        .filter(|p| parent_of(p) == dir)
        .map(|p| &p[dir.len() + 1..])
        .collect()
}

/// Runs one op on memfs and checks its result against the model's,
/// applying it to the model when it succeeds.
fn model_apply(tree: &mut Tree, fs: &mut MemFs, op: TreeOp, paths: &[String], step: u64) {
    let ctx = format!("op {step} {op:?}");
    match op {
        TreeOp::Mkdir(p) => {
            let p = &paths[p];
            let want = model_fresh(tree, p);
            assert_eq!(fs.mkdir(p), want, "{ctx}");
            if want.is_ok() {
                tree.insert(p.clone(), Node::Dir);
            }
        }
        TreeOp::Create(p) => {
            let p = &paths[p];
            let got = fs.create(p);
            assert_eq!(got.clone().map(|_| ()), model_fresh(tree, p), "{ctx}");
            if let Ok(fd) = got {
                // Each file's size is its creation step, so a name bound
                // to the wrong inode shows in `stat`.
                fs.write(fd, 0, &vec![7u8; step as usize]).expect("write");
                tree.insert(p.clone(), Node::File { fd, size: step });
            }
        }
        TreeOp::Unlink(p) => {
            let p = &paths[p];
            let want = model_parent(tree, p).and_then(|()| match tree.get(p) {
                None => Err(FsError::NotFound),
                Some(Node::Dir) => Err(FsError::IsDir),
                Some(_) => Ok(()),
            });
            assert_eq!(fs.unlink(p), want, "{ctx}");
            if want.is_ok() {
                if let Some(Node::File { fd, .. }) = tree.remove(p) {
                    // The descriptor died with the inode.
                    assert_eq!(fs.write(fd, 0, b"x"), Err(FsError::BadFd), "{ctx}");
                }
            }
        }
        TreeOp::Rmdir(p) => {
            let p = &paths[p];
            let want = model_parent(tree, p).and_then(|()| match tree.get(p) {
                None => Err(FsError::NotFound),
                Some(Node::File { .. }) => Err(FsError::NotDir),
                Some(Node::Dir) if !model_children(tree, p).is_empty() => Err(FsError::DirNotEmpty),
                Some(Node::Dir) => Ok(()),
            });
            assert_eq!(fs.rmdir(p), want, "{ctx}");
            if want.is_ok() {
                tree.remove(p);
            }
        }
        TreeOp::Rename(a, b) => {
            let (a, b) = (&paths[a], &paths[b]);
            let want = if b != a && within(b, a) {
                Err(FsError::BadPath)
            } else {
                model_parent(tree, a)
                    .and_then(|()| match tree.contains_key(a) {
                        true => Ok(()),
                        false => Err(FsError::NotFound),
                    })
                    .and_then(|()| model_fresh(tree, b))
            };
            assert_eq!(fs.rename(a, b), want, "{ctx}");
            if want.is_ok() {
                // The node and its whole subtree move under the new name.
                let moved: Vec<String> = tree.keys().filter(|p| within(p, a)).cloned().collect();
                for old in moved {
                    let node = tree.remove(&old).expect("listed");
                    tree.insert(format!("{b}{}", &old[a.len()..]), node);
                }
            }
        }
    }
}

/// Checks every directory listing and every tree path's `stat` against
/// the model.
fn audit_tree(tree: &Tree, fs: &mut MemFs, paths: &[String], ctx: &str) {
    let dirs = tree.iter().filter(|(_, n)| **n == Node::Dir);
    for dir in std::iter::once("").chain(dirs.map(|(p, _)| p.as_str())) {
        let shown = if dir.is_empty() { "/" } else { dir };
        let mut listed: Vec<String> = fs
            .list_dir(shown)
            .unwrap_or_else(|e| panic!("{ctx}: list {shown}: {e}"))
            .into_iter()
            .map(|e| e.name)
            .collect();
        listed.sort();
        assert_eq!(
            listed,
            model_children(tree, dir),
            "{ctx}: listing of {shown}"
        );
    }
    for p in paths {
        // A directory's size counts its dirent slots, which the model
        // does not track; a file's is its creation step.
        let got = fs.stat(p).map(|st| match st.kind {
            InodeKind::Dir => (st.kind, 0),
            _ => (st.kind, st.size),
        });
        let want = model_lookup(tree, p).map(|n| match n {
            Node::Dir => (InodeKind::Dir, 0),
            Node::File { size, .. } => (InodeKind::File, size),
        });
        assert_eq!(got, want, "{ctx}: stat {p}");
    }
}

/// Directory-tree case: nested namespaces with inode reuse across files
/// and directories. A reused directory inode must start with an empty
/// index, and a directory must not move into its own subtree.
#[test]
fn memfs_matches_directory_tree_model() {
    let paths = tree_paths();
    for case in 0..16u64 {
        let seed = SEED + 2_000 + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut fs = fs();
        let mut tree = Tree::new();
        for step in 0..120u64 {
            let op = random_tree_op(&mut rng, paths.len());
            model_apply(&mut tree, &mut fs, op, &paths, step);
            audit_tree(
                &tree,
                &mut fs,
                &paths,
                &format!("seed {seed} op {step} {op:?}"),
            );
        }
        for node in tree.values() {
            if let Node::File { fd, .. } = *node {
                fs.close(fd).expect("close a live descriptor");
            }
        }
    }
}
