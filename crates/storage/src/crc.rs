//! CRC-32 (IEEE 802.3) over slot payloads.
//!
//! Every data slot header carries the CRC of the page bytes programmed
//! with it ([`crate::segment::SlotMeta::crc`]), the way flash file
//! systems checksum each node so recovery can tell a completed program
//! from one torn by power loss. Tombstone and checkpoint slots program
//! all-zero payloads, so their expected CRC is [`crc32`] of one zeroed
//! page, computed once when the manager is built.
//!
//! Every page the flush path programs is checksummed, so the kernel is
//! built for throughput and yields the same value as the classic
//! byte-at-a-time loop:
//!
//! * **Slicing-by-8.** One 8-byte word is folded per step through eight
//!   tables, where the classic loop folds one byte through one.
//! * **Four lanes per 512-byte block.** A single slicing-by-8 register
//!   is a serial chain of table lookups. Each block is therefore split
//!   into four 128-byte lanes with independent registers, so the CPU
//!   overlaps four chains. Lane 0 starts from the running register and
//!   lanes 1–3 from zero. The register update is linear over GF(2), so
//!   the lanes combine as `Z(384)(r0) ^ Z(256)(r1) ^ Z(128)(r2) ^ r3`,
//!   where `Z(n)` is the 32-bit linear map "fold `n` zero bytes",
//!   applied through four 256-entry tables per shift.
//!
//! Data shorter than a block, and the tail after the last whole block,
//! take the single-register word loop and then the bytewise loop, so
//! any length works. The tables are built at compile time — no
//! allocation, no external crate, no CPU-feature detection.

/// Slicing-by-8 tables for the reflected IEEE polynomial. `TABLES[0]`
/// is the byte-at-a-time table; `TABLES[k][b]` is what byte `b`
/// contributes to the register once `k` more bytes are folded after it.
const TABLES: [[u32; 256]; 8] = build_tables();

/// Bytes per lane of the 4-lane kernel; a block is four lanes.
const LANE: usize = 128;

/// Bytes per 4-lane block.
const BLOCK: usize = 4 * LANE;

/// `SHIFTS[s]` applies `Z((s + 1) · LANE)`: `SHIFTS[s][k][b]` is the
/// image of byte `b` in register byte `k`, so a register's image is the
/// XOR of four lookups.
const SHIFTS: [[[u32; 256]; 4]; 3] = build_shifts();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Folds `n` zero bytes into register `r`, one byte at a time.
const fn fold_zeros(mut r: u32, n: usize) -> u32 {
    let mut i = 0;
    while i < n {
        r = TABLES[0][(r & 0xFF) as usize] ^ (r >> 8);
        i += 1;
    }
    r
}

const fn build_shifts() -> [[[u32; 256]; 4]; 3] {
    let mut t = [[[0u32; 256]; 4]; 3];
    let mut s = 0;
    while s < 3 {
        // The map is linear: fold each register bit once, then every
        // entry is the XOR of the images of its set bits.
        let mut basis = [0u32; 32];
        let mut bit = 0;
        while bit < 32 {
            basis[bit] = fold_zeros(1 << bit, (s + 1) * LANE);
            bit += 1;
        }
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                let mut image = 0;
                let mut j = 0;
                while j < 8 {
                    if (b >> j) & 1 != 0 {
                        image ^= basis[8 * k + j];
                    }
                    j += 1;
                }
                t[s][k][b] = image;
                b += 1;
            }
            k += 1;
        }
        s += 1;
    }
    t
}

/// `TABLES[k][b]`. Every call passes a constant `k` below 8, and a `u8`
/// cannot index past a 256-entry table.
#[inline(always)]
fn lookup(k: usize, b: u8) -> u32 {
    TABLES[k][b as usize]
}

/// One slicing-by-8 step: folds the 8-byte word `w` into register `c`.
#[inline(always)]
fn fold_word(c: u32, w: &[u8; 8]) -> u32 {
    let [b0, b1, b2, b3, b4, b5, b6, b7] = (u64::from_le_bytes(*w) ^ u64::from(c)).to_le_bytes();
    lookup(7, b0)
        ^ lookup(6, b1)
        ^ lookup(5, b2)
        ^ lookup(4, b3)
        ^ lookup(3, b4)
        ^ lookup(2, b5)
        ^ lookup(1, b6)
        ^ lookup(0, b7)
}

/// `Z((s + 1) · LANE)(r)`. Every call passes a constant `s` below 3.
#[inline(always)]
fn shift(s: usize, r: u32) -> u32 {
    let [b0, b1, b2, b3] = r.to_le_bytes();
    let t = &SHIFTS[s];
    t[0][b0 as usize] ^ t[1][b1 as usize] ^ t[2][b2 as usize] ^ t[3][b3 as usize]
}

/// Folds one 512-byte block into register `c` as four interleaved lanes.
#[inline(always)]
fn fold_block(c: u32, block: &[u8; BLOCK]) -> u32 {
    let lane = |k: usize| block[k * LANE..(k + 1) * LANE].as_chunks::<8>().0;
    let (mut r0, mut r1, mut r2, mut r3) = (c, 0u32, 0u32, 0u32);
    for (((w0, w1), w2), w3) in lane(0).iter().zip(lane(1)).zip(lane(2)).zip(lane(3)) {
        r0 = fold_word(r0, w0);
        r1 = fold_word(r1, w1);
        r2 = fold_word(r2, w2);
        r3 = fold_word(r3, w3);
    }
    shift(2, r0) ^ shift(1, r1) ^ shift(0, r2) ^ r3
}

/// CRC-32 of `data` (IEEE polynomial, reflected, init and final XOR
/// `0xFFFF_FFFF` — the same convention as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (blocks, rest) = data.as_chunks::<BLOCK>();
    for block in blocks {
        c = fold_block(c, block);
    }
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        c = fold_word(c, w);
    }
    for &b in tail {
        c = lookup(0, c as u8 ^ b) ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::SimRng;

    /// The byte-at-a-time register update both faster kernels replaced,
    /// kept as the reference they must match (no init or final XOR).
    fn update_bytewise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn crc32_bytewise(data: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // zlib's crc32 of the 43-byte pangram: five whole words plus a
        // 3-byte tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b""), 0);
    }

    /// Every length through two blocks and a tail (A3's 512- and
    /// 1024-byte pages among them), then 1536, 2048 and 4096 bytes plus
    /// or minus one (three, four and eight blocks), from every word
    /// alignment.
    #[test]
    fn slicing_matches_bytewise_at_every_length_and_offset() {
        let mut rng = SimRng::seed_from_u64(0x0C2C_3200);
        let mut buf = vec![0u8; 4097 + 8];
        for chunk in buf.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        let lens = (0..=1100)
            .chain(1535..=1537)
            .chain(2047..=2049)
            .chain(4095..=4097);
        for len in lens {
            for start in 0..8 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn shift_tables_fold_zero_bytes() {
        let mut rng = SimRng::seed_from_u64(0x5A1F_7000);
        let zeros = [0u8; 3 * LANE];
        for s in 0..3 {
            let n = (s + 1) * LANE;
            for r in [0, 1, 0x8000_0000, u32::MAX] {
                assert_eq!(
                    shift(s, r),
                    update_bytewise(r, &zeros[..n]),
                    "shift {n} r {r:#x}"
                );
            }
            for _ in 0..256 {
                let r = rng.next_u64() as u32;
                assert_eq!(
                    shift(s, r),
                    update_bytewise(r, &zeros[..n]),
                    "shift {n} r {r:#x}"
                );
            }
        }
    }

    #[test]
    fn detects_prefix_and_stripe_tears() {
        let full = vec![0xABu8; 512];
        let want = crc32(&full);
        let mut prefix = full.clone();
        for b in &mut prefix[256..] {
            *b = 0xFF;
        }
        assert_ne!(crc32(&prefix), want);
        let mut stripe = full.clone();
        for (i, chunk) in stripe.chunks_mut(64).enumerate() {
            if i % 2 == 1 {
                chunk.fill(0xFF);
            }
        }
        assert_ne!(crc32(&stripe), want);
    }
}
