//! Million-entry namespace scale tests for the B-tree directory index.
//!
//! Ignored by default — CI runs them explicitly in release mode
//! (`cargo test --release -- --ignored`), because a debug-build million-file
//! create loop is pointlessly slow.
//!
//! What they pin down:
//! * a single directory holds 1 000 000 live entries and every lookup
//!   stays O(log n) — asserted directly from the index's depth counter,
//!   not from timing;
//! * steady-state churn (unlink + re-create) keeps the index's memory
//!   footprint exactly flat: freed name spans and tree nodes are reused,
//!   never leaked;
//! * a 10-level-deep tree resolves, lists, and unlinks correctly.

use ssmc::device::FlashSpec;
use ssmc::memfs::{FsError, MemFs, WritePolicy};
use ssmc::sim::Clock;
use ssmc::storage::{StorageConfig, StorageManager};

const MILLION: usize = 1_000_000;

/// A storage stack big enough for a million-file namespace: 512 MB of
/// flash (the namespace itself is ~100 MB of inode and dirent pages, so
/// utilization stays low and GC stays cheap).
fn big_fs() -> MemFs {
    let clock = Clock::shared();
    let cfg = StorageConfig {
        page_size: 4096,
        dram_buffer_bytes: 4 << 20,
        flash: FlashSpec {
            banks: 8,
            blocks_per_bank: 256,
            block_bytes: 256 * 1024,
            write_unit: 4096,
            ..FlashSpec::default()
        },
        ..StorageConfig::default()
    };
    MemFs::new(StorageManager::new(cfg, clock), WritePolicy::CopyOnWrite).expect("mount")
}

fn name(i: usize) -> String {
    format!("/spool/m{i}")
}

#[test]
#[ignore = "million-entry scale run; CI invokes it in release mode"]
fn million_entry_directory_stays_logarithmic_and_flat() {
    let mut fs = big_fs();
    fs.mkdir("/spool").expect("mkdir");

    for i in 0..MILLION {
        let fd = fs.create(&name(i)).expect("create");
        fs.close(fd).expect("close");
        if i % 200_000 == 199_999 {
            fs.sync().expect("sync");
        }
    }
    fs.sync().expect("sync");

    // O(log n) lookups, asserted structurally: with minimum fanout 8,
    // a million entries fit in depth ≤ log_8(1e6) + slack. Depth ≥ 4
    // proves the tree actually grew (nobody swapped in a flat list).
    let (depth, splits) = fs.dindex_stats();
    assert!(
        (4..=8).contains(&depth),
        "depth {depth} out of the logarithmic envelope for 1e6 entries"
    );
    assert!(
        splits > MILLION as u64 / 16,
        "suspiciously few splits: {splits}"
    );

    // Point lookups across the keyspace.
    for i in [0, 1, MILLION / 2, MILLION - 2, MILLION - 1] {
        let st = fs.stat(&name(i)).expect("stat");
        assert_eq!(st.size, 0, "fresh file {i} has size 0");
    }
    assert!(matches!(
        fs.stat("/spool/never-created").unwrap_err(),
        FsError::NotFound
    ));

    // Steady-state churn must not grow the index: unlink a window,
    // re-create the same names, and the arena/slab footprint is byte-
    // and node-identical round over round.
    const WINDOW: usize = 50_000;
    let mut footprints = Vec::new();
    for round in 0..3 {
        for i in 0..WINDOW {
            fs.unlink(&name(i)).expect("unlink");
        }
        for i in 0..WINDOW {
            let fd = fs.create(&name(i)).expect("re-create");
            fs.close(fd).expect("close");
        }
        footprints.push(fs.dindex_footprint());
        assert_eq!(
            footprints[0], footprints[round],
            "index footprint grew under churn (round {round}): {footprints:?}"
        );
    }

    // Unlink round-trip: gone means gone, and the name is reusable.
    fs.unlink(&name(7)).expect("unlink");
    assert!(matches!(fs.stat(&name(7)).unwrap_err(), FsError::NotFound));
    let fd = fs.create(&name(7)).expect("create after unlink");
    fs.close(fd).expect("close");
    fs.sync().expect("final sync");
}

#[test]
#[ignore = "scale companion; CI invokes it in release mode"]
fn ten_level_deep_tree_resolves_and_unlinks() {
    let mut fs = big_fs();

    // /d0/d1/.../d9, with a fanout of files at the bottom.
    let mut dir = String::new();
    for level in 0..10 {
        dir.push_str(&format!("/d{level}"));
        fs.mkdir(&dir).expect("mkdir");
    }
    for i in 0..1_000 {
        let fd = fs.create(&format!("{dir}/leaf{i}")).expect("create");
        fs.close(fd).expect("close");
    }
    fs.sync().expect("sync");

    assert_eq!(fs.list_dir(&dir).expect("list").len(), 1_000);
    for i in [0, 499, 999] {
        fs.stat(&format!("{dir}/leaf{i}")).expect("stat deep leaf");
    }
    // Intermediate levels hold exactly one subdirectory each.
    assert_eq!(fs.list_dir("/d0").expect("list").len(), 1);

    for i in 0..1_000 {
        fs.unlink(&format!("{dir}/leaf{i}")).expect("unlink");
    }
    assert!(fs.list_dir(&dir).expect("list").is_empty());
    // Tear the tree down from the bottom up.
    for level in (0..10).rev() {
        fs.rmdir(&dir).expect("rmdir");
        let cut = dir.rfind('/').expect("component");
        dir.truncate(cut);
        let _ = level;
    }
    let fsck = fs.fsck().expect("fsck");
    assert_eq!(fsck.dangling_entries, 0);
}
