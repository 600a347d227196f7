//! Differential test of the flash device against a flat reference: one
//! byte array for the whole part and one programmed flag per write unit,
//! the representation the device kept before it recorded same-filled
//! programs as a byte per unit and mixed ones in a per-block store.
//!
//! Seeded sequences of programs (one or several write units; 0x00, 0xA5
//! and 0xFF fills and mixed bytes), erases (worn-out and retired blocks
//! included), clean, prefix and stripe power cuts on either, and power
//! cycles run on both. After every step `read`, `read_borrow`, `peek` and
//! `is_erased` must agree with the reference over random in-block ranges,
//! many of them spanning several programs. The default run covers a few
//! seeds per geometry; the ignored sweep runs many more in release.

use ssmc::device::{BlockId, DeviceError, Flash, FlashSpec, TearMode};
use ssmc::sim::{Clock, SimRng};

/// Base seed for the case generator.
const SEED: u64 = 0x5EED_F1A5;

/// Guaranteed erase cycles: low, so blocks wear out within a sequence.
const ENDURANCE: u64 = 12;

/// Stripe width of [`TearMode::Stripe`], as the device documents it.
const STRIPE: usize = 64;

/// The flat reference device.
struct Model {
    unit: usize,
    block: usize,
    bytes: Vec<u8>,
    programmed: Vec<bool>,
    erases: Vec<u64>,
    bad: Vec<bool>,
    boundary: u64,
    cut: Option<(u64, TearMode)>,
    fired: bool,
}

impl Model {
    fn new(spec: &FlashSpec) -> Self {
        let blocks = spec.total_blocks() as usize;
        Model {
            unit: spec.write_unit as usize,
            block: spec.block_bytes as usize,
            bytes: vec![0xFF; spec.capacity() as usize],
            programmed: vec![false; (spec.capacity() / spec.write_unit) as usize],
            erases: vec![0; blocks],
            bad: vec![false; blocks],
            boundary: 0,
            cut: None,
            fired: false,
        }
    }

    /// Counts one program or erase boundary; the tear to apply if the
    /// armed cut fires on it.
    fn boundary_tear(&mut self) -> Option<TearMode> {
        self.boundary += 1;
        let (at, tear) = self.cut?;
        (at == self.boundary).then(|| {
            self.fired = true;
            tear
        })
    }

    fn program(&mut self, addr: usize, data: &[u8]) -> Result<(), DeviceError> {
        if self.fired {
            return Err(DeviceError::PowerCut);
        }
        let block = addr / self.block;
        if self.bad[block] {
            return Err(DeviceError::BadBlock {
                block: BlockId(block as u32),
            });
        }
        let units = addr / self.unit..(addr + data.len()) / self.unit;
        if units.clone().any(|u| self.programmed[u]) {
            return Err(DeviceError::ProgramToUnerased { addr: addr as u64 });
        }
        let tear = self.boundary_tear();
        let cells = &mut self.bytes[addr..addr + data.len()];
        match tear {
            None => cells.copy_from_slice(data),
            Some(TearMode::Clean) => return Err(DeviceError::PowerCut),
            Some(TearMode::Prefix) => {
                let half = data.len() / 2;
                cells[..half].copy_from_slice(&data[..half]);
            }
            Some(TearMode::Stripe) => {
                for (k, (to, from)) in cells
                    .chunks_mut(STRIPE)
                    .zip(data.chunks(STRIPE))
                    .enumerate()
                {
                    if k % 2 == 0 {
                        to.copy_from_slice(from);
                    }
                }
            }
        }
        self.programmed[units].fill(true);
        if self.fired {
            return Err(DeviceError::PowerCut);
        }
        Ok(())
    }

    fn erase(&mut self, block: usize) -> Result<(), DeviceError> {
        if self.fired {
            return Err(DeviceError::PowerCut);
        }
        let id = BlockId(block as u32);
        if self.bad[block] {
            return Err(DeviceError::BadBlock { block: id });
        }
        if self.erases[block] >= ENDURANCE {
            self.bad[block] = true;
            return Err(DeviceError::WornOut {
                block: id,
                cycles: self.erases[block],
            });
        }
        let tear = self.boundary_tear();
        let start = block * self.block;
        let cells = &mut self.bytes[start..start + self.block];
        let units = start / self.unit..(start + self.block) / self.unit;
        match tear {
            None => {
                cells.fill(0xFF);
                self.programmed[units].fill(false);
                self.erases[block] += 1;
                Ok(())
            }
            Some(TearMode::Clean) => Err(DeviceError::PowerCut),
            Some(TearMode::Prefix) => {
                let half = self.block / 2;
                cells[..half].fill(0xFF);
                let first = units.start;
                self.programmed[first..first + half / self.unit].fill(false);
                Err(DeviceError::PowerCut)
            }
            Some(TearMode::Stripe) => {
                for chunk in cells.chunks_mut(STRIPE).step_by(2) {
                    chunk.fill(0xFF);
                }
                Err(DeviceError::PowerCut)
            }
        }
    }

    fn arm(&mut self, at: u64, tear: TearMode) {
        self.cut = Some((at, tear));
        self.fired = false;
    }

    fn power_cycle(&mut self) {
        self.cut = None;
        self.fired = false;
    }

    fn is_erased(&self, addr: usize, len: usize) -> bool {
        len == 0 || !(addr / self.unit..=(addr + len - 1) / self.unit).any(|u| self.programmed[u])
    }
}

/// Bytes for a program of `len` bytes: a fill of 0x00, 0xA5 or 0xFF,
/// random bytes, or a fill with one byte changed at either end.
fn payload(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let fill = [0x00, 0xA5, 0xFF][rng.below(3) as usize];
    let mut data = vec![fill; len];
    match rng.below(6) {
        0..=2 => {}
        3 => data.iter_mut().for_each(|b| *b = rng.below(256) as u8),
        4 => data[0] ^= 1,
        _ => data[len - 1] ^= 0x80,
    }
    data
}

/// A random range inside one block: within a unit, across a few units,
/// or the whole block.
fn range(rng: &mut SimRng, spec: &FlashSpec) -> (u64, u64) {
    let block = rng.below(spec.total_blocks() as u64) * spec.block_bytes;
    let (unit, bytes) = (spec.write_unit, spec.block_bytes);
    let (off, len) = match rng.below(4) {
        0 => {
            let off = rng.below(bytes);
            (off, rng.range(0, (unit - off % unit).min(bytes - off) + 1))
        }
        1 | 2 => {
            let off = rng.below(bytes);
            (off, rng.range(1, (4 * unit).min(bytes - off) + 1))
        }
        _ => (0, bytes),
    };
    (block + off, len)
}

/// Compares every read path with the model over `ranges` random ranges.
fn compare(flash: &mut Flash, model: &Model, rng: &mut SimRng, ranges: u32, at: &str) {
    let spec = flash.spec().clone();
    for _ in 0..ranges {
        let (addr, len) = range(rng, &spec);
        let want = &model.bytes[addr as usize..(addr + len) as usize];
        assert_eq!(*flash.peek(addr, len), *want, "{at}: peek [{addr}, +{len})");
        let mut buf = vec![0x3C; len as usize];
        flash.read(addr, &mut buf).expect("read in range");
        assert_eq!(buf, want, "{at}: read [{addr}, +{len})");
        let got = flash.read_borrow(addr, len).expect("borrow in range");
        assert_eq!(got, want, "{at}: read_borrow [{addr}, +{len})");
        assert_eq!(
            flash.is_erased(addr, len),
            model.is_erased(addr as usize, len as usize),
            "{at}: is_erased [{addr}, +{len})"
        );
    }
}

/// Runs one seeded sequence of `steps` steps on a 4-block part.
fn run(seed: u64, unit: u64, block_bytes: u64, steps: u32) {
    let spec = FlashSpec {
        banks: 2,
        blocks_per_bank: 2,
        block_bytes,
        write_unit: unit,
        endurance: ENDURANCE,
        ..FlashSpec::default()
    };
    let mut rng = SimRng::seed_from_u64(seed);
    let mut flash = Flash::new(spec.clone(), Clock::shared());
    let mut model = Model::new(&spec);
    let units_per_block = block_bytes / unit;
    let blocks = spec.total_blocks() as u64;
    for step in 0..steps {
        let at = format!("seed {seed:#x} unit {unit} block {block_bytes} step {step}");
        match rng.below(20) {
            0..=13 => {
                // Programs mostly land on erased units, sometimes not.
                let block = rng.below(blocks);
                let first = rng.below(units_per_block);
                let n = rng.range(1, (units_per_block - first).min(4) + 1);
                let addr = block * block_bytes + first * unit;
                let data = payload(&mut rng, (n * unit) as usize);
                let want = model.program(addr as usize, &data);
                let got = flash.program(addr, &data).map(|_| ());
                assert_eq!(got, want, "{at}: program [{addr}, +{})", data.len());
            }
            14..=16 => {
                let block = rng.below(blocks);
                let want = model.erase(block as usize);
                let got = flash.erase(BlockId(block as u32)).map(|_| ());
                assert_eq!(got, want, "{at}: erase {block}");
            }
            17 | 18 if model.cut.is_none() => {
                let tear =
                    [TearMode::Clean, TearMode::Prefix, TearMode::Stripe][rng.below(3) as usize];
                let boundary = flash.boundary_ops() + rng.range(1, 3);
                flash.arm_power_cut(boundary, tear);
                model.arm(boundary, tear);
            }
            _ => {
                flash.power_cycle();
                model.power_cycle();
            }
        }
        assert_eq!(flash.boundary_ops(), model.boundary, "{at}: boundaries");
        assert_eq!(flash.power_cut_fired(), model.fired, "{at}: cut fired");
        compare(&mut flash, &model, &mut rng, 6, &at);
    }
    // Every block, whole, at the end.
    for block in 0..spec.total_blocks() {
        let (start, len) = flash.block_range(BlockId(block));
        let want = &model.bytes[start as usize..(start + len) as usize];
        assert_eq!(
            *flash.peek(start, len),
            *want,
            "seed {seed:#x}: block {block}"
        );
        assert_eq!(
            flash.erase_count(BlockId(block)),
            model.erases[block as usize]
        );
    }
    let bad = model.bad.iter().filter(|&&b| b).count() as u32;
    assert_eq!(
        flash.wear_stats().bad_blocks,
        bad,
        "seed {seed:#x}: bad blocks"
    );
}

/// The geometries as (write unit, erase block): 512 B and 2 KiB units on
/// 4 KiB and 64 KiB blocks, and a unit as large as its block, as on the
/// catalog's 512-byte-sector part.
const GEOMETRIES: [(u64, u64); 5] = [
    (512, 4096),
    (2048, 4096),
    (512, 65536),
    (2048, 65536),
    (512, 512),
];

#[test]
fn flash_matches_flat_reference() {
    for (g, &(unit, block)) in GEOMETRIES.iter().enumerate() {
        for case in 0..4 {
            run(SEED + 100 * g as u64 + case, unit, block, 300);
        }
    }
}

/// The long sweep: `cargo test --release --test model_flash -- --ignored`.
#[test]
#[ignore = "long sweep; run in release"]
fn flash_matches_flat_reference_long_sweep() {
    for (g, &(unit, block)) in GEOMETRIES.iter().enumerate() {
        for case in 0..100 {
            run(SEED + 100_000 * (g as u64 + 1) + case, unit, block, 1_500);
        }
    }
}
