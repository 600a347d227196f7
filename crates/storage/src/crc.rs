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
//! slicing-by-8: it folds one 8-byte word per step through eight tables
//! where the classic loop folds one byte through one, and yields the same
//! value. The tables are built at compile time — no allocation, no
//! external crate.

/// Slicing-by-8 tables for the reflected IEEE polynomial. `TABLES[0]`
/// is the byte-at-a-time table; `TABLES[k][b]` is what byte `b`
/// contributes to the register once `k` more bytes are folded after it.
const TABLES: [[u32; 256]; 8] = build_tables();

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

/// `TABLES[k][b]`. Every call passes a constant `k` below 8, and a `u8`
/// cannot index past a 256-entry table.
#[inline(always)]
fn lookup(k: usize, b: u8) -> u32 {
    TABLES[k][b as usize]
}

/// CRC-32 of `data` (IEEE polynomial, reflected, init and final XOR
/// `0xFFFF_FFFF` — the same convention as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let [b0, b1, b2, b3, b4, b5, b6, b7] =
            (u64::from_le_bytes(*w) ^ u64::from(c)).to_le_bytes();
        c = lookup(7, b0)
            ^ lookup(6, b1)
            ^ lookup(5, b2)
            ^ lookup(4, b3)
            ^ lookup(3, b4)
            ^ lookup(2, b5)
            ^ lookup(1, b6)
            ^ lookup(0, b7);
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

    /// The byte-at-a-time loop the slicing kernel replaced, kept as the
    /// reference it must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
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

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_offset() {
        let mut rng = SimRng::seed_from_u64(0x0C2C_3200);
        let mut buf = vec![0u8; 1100 + 8];
        for chunk in buf.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        for start in 0..8 {
            for len in 0..=1100 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
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
