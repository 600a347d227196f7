//! Execute-in-place versus demand loading (experiment F6).
//!
//! §3.2: "programs residing in flash memory can be executed in place
//! without loss of performance. There is no need to load their code
//! segment into primary storage before execution, again saving both the
//! storage needed for duplicate copies and the time needed to perform the
//! copies." — the HP OmniBook shipped exactly this.
//!
//! [`launch`] models a program launch either way and reports the latency
//! and DRAM cost; [`run_code`] models steady-state execution as a
//! deterministic instruction-fetch sweep.

use crate::error::VmError;
use crate::vm::Vm;
use crate::Result;
use ssmc_memfs::FileMap;
use ssmc_sim::SimDuration;
use ssmc_storage::StorageManager;

/// Outcome of a program launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchStats {
    /// Address space the program was mapped into.
    pub asid: u32,
    /// Base virtual address of the mapped text segment.
    pub base: u64,
    /// Time from `exec` to first instruction (map + loader copies).
    pub latency: SimDuration,
    /// DRAM frames consumed by the launch (the duplicate-copy cost).
    pub dram_pages: u64,
    /// Page faults taken during the launch.
    pub faults: u64,
}

/// Launches `program` into `asid`, either executing in place (`xip`) or
/// demand-loading the whole text segment the conventional way, and touches
/// the entry point.
///
/// # Errors
///
/// VM and storage errors (out of frames, device failures).
pub fn launch(
    vm: &mut Vm,
    asid: u32,
    program: &FileMap,
    xip: bool,
    sm: &mut StorageManager,
) -> Result<LaunchStats> {
    if program.pages.is_empty() {
        return Err(VmError::SegFault { addr: 0 });
    }
    let page_size = vm.config().page_size;
    let start = sm.now();
    let frames_before = vm.frames_in_use();
    let faults_before = vm.metrics().faults;
    let base = vm.map_code(asid, program.pages.clone(), xip)?;
    if xip {
        // Only the entry point is touched; everything else stays in flash.
        vm.fetch(asid, base, sm)?;
    } else {
        // The conventional loader copies the whole text segment up front.
        for i in 0..program.pages.len() as u64 {
            vm.fetch(asid, base + i * page_size, sm)?;
        }
    }
    Ok(LaunchStats {
        asid,
        base,
        latency: sm.now().since(start),
        dram_pages: vm.frames_in_use() - frames_before,
        faults: vm.metrics().faults - faults_before,
    })
}

/// Models steady-state execution: `touches` instruction fetches striding
/// through the mapped text of `size_bytes`, returning total fetch time.
///
/// # Errors
///
/// VM and storage errors.
pub fn run_code(
    vm: &mut Vm,
    asid: u32,
    base: u64,
    size_bytes: u64,
    touches: u64,
    sm: &mut StorageManager,
) -> Result<SimDuration> {
    let start = sm.now();
    let stride = 68; // co-prime-ish with the page size: spreads touches
    for i in 0..touches {
        let offset = (i * stride) % size_bytes.max(1);
        vm.fetch(asid, base + offset, sm)?;
    }
    Ok(sm.now().since(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmConfig;
    use ssmc_device::FlashSpec;
    use ssmc_memfs::{MemFs, WritePolicy};
    use ssmc_sim::Clock;
    use ssmc_storage::StorageConfig;

    /// Builds an FS with a program file of `kb` kilobytes, returns the FS
    /// and the program's map.
    fn setup(kb: usize) -> (Vm, MemFs, FileMap) {
        let clock = Clock::shared();
        let sm = StorageManager::new(
            StorageConfig {
                page_size: 512,
                dram_buffer_bytes: 64 * 512,
                flash: FlashSpec {
                    banks: 1,
                    blocks_per_bank: 200,
                    block_bytes: 16 * 1024,
                    write_unit: 512,
                    ..FlashSpec::default()
                },
                ..StorageConfig::default()
            },
            clock.clone(),
        );
        let mut fs = MemFs::new(sm, WritePolicy::CopyOnWrite).expect("mount");
        let fd = fs.create("/app").expect("create");
        fs.write(fd, 0, &vec![0xC3u8; kb * 1024]).expect("write");
        fs.sync().expect("sync");
        let map = fs.map_file("/app").expect("map");
        let vm = Vm::new(
            VmConfig {
                dram_frames: 4096,
                ..VmConfig::default()
            },
            clock,
        );
        (vm, fs, map)
    }

    #[test]
    fn xip_launch_is_faster_and_uses_no_dram() {
        let (mut vm, mut fs, map) = setup(256);
        let asid = vm.create_space();
        let xip = launch(&mut vm, asid, &map, true, fs.storage_mut()).expect("xip");
        let asid2 = vm.create_space();
        let load = launch(&mut vm, asid2, &map, false, fs.storage_mut()).expect("load");
        assert!(
            xip.latency < load.latency / 10,
            "xip {} vs load {}",
            xip.latency,
            load.latency
        );
        assert_eq!(xip.dram_pages, 0);
        assert_eq!(load.dram_pages, map.pages.len() as u64);
    }

    #[test]
    fn xip_launch_latency_is_flat_in_binary_size() {
        let (mut vm_small, mut fs_small, map_small) = setup(64);
        let a = vm_small.create_space();
        let small = launch(&mut vm_small, a, &map_small, true, fs_small.storage_mut())
            .expect("small")
            .latency;
        let (mut vm_big, mut fs_big, map_big) = setup(1024);
        let b = vm_big.create_space();
        let big = launch(&mut vm_big, b, &map_big, true, fs_big.storage_mut())
            .expect("big")
            .latency;
        // 16x the binary, ~same launch cost.
        assert!(
            big < small * 3,
            "xip launch should be ~flat: {small} → {big}"
        );
    }

    #[test]
    fn steady_state_execution_works_both_ways() {
        let (mut vm, mut fs, map) = setup(64);
        let asid = vm.create_space();
        let xip = launch(&mut vm, asid, &map, true, fs.storage_mut()).expect("xip");
        let t_xip =
            run_code(&mut vm, asid, xip.base, map.size, 500, fs.storage_mut()).expect("run");
        let asid2 = vm.create_space();
        let load = launch(&mut vm, asid2, &map, false, fs.storage_mut()).expect("load");
        let t_load =
            run_code(&mut vm, asid2, load.base, map.size, 500, fs.storage_mut()).expect("run");
        // Flash fetches are slower than DRAM but the same order of
        // magnitude — "without loss of performance" vs a disk-based
        // alternative whose fetches would be milliseconds.
        assert!(t_xip >= t_load, "flash fetch is not faster than DRAM");
        assert!(t_xip < t_load * 100, "xip run {t_xip} vs load run {t_load}");
    }

    #[test]
    fn empty_program_is_rejected() {
        let (mut vm, mut fs, _) = setup(4);
        let asid = vm.create_space();
        let empty = FileMap {
            ino: 99,
            size: 0,
            pages: vec![],
        };
        assert!(launch(&mut vm, asid, &empty, true, fs.storage_mut()).is_err());
    }
}
