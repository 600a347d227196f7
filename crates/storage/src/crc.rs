//! CRC-32 (IEEE 802.3) over slot payloads.
//!
//! Every data slot header carries the CRC of the page bytes programmed
//! with it ([`crate::segment::SlotMeta::crc`]), the way flash file
//! systems checksum each node so recovery can tell a completed program
//! from one torn by power loss. Tombstone and checkpoint slots program
//! all-zero payloads, so their expected CRC is [`crc32_zeros`] of the
//! page size. The table is built at compile time — no allocation, no
//! external crate.

/// Byte-at-a-time lookup table for the reflected IEEE polynomial.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 of `data` (IEEE polynomial, reflected, init and final XOR
/// `0xFFFF_FFFF` — the same convention as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        // lint: allow(P1): the index is masked to 8 bits and TABLE has 256
        // entries.
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// CRC-32 of `len` zero bytes, without materialising them.
pub fn crc32_zeros(len: usize) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut i = 0;
    while i < len {
        c = TABLE[(c & 0xFF) as usize] ^ (c >> 8);
        i += 1;
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn zeros_shortcut_matches_buffer() {
        for len in [0usize, 1, 16, 512, 4096] {
            let buf = vec![0u8; len];
            assert_eq!(crc32_zeros(len), crc32(&buf), "len {len}");
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
