//! CRC-32 (IEEE 802.3) over slot payloads.
//!
//! Every data slot header carries the CRC of the page bytes programmed
//! with it ([`crate::segment::SlotMeta::crc`]), the way flash file
//! systems checksum each node so recovery can tell a completed program
//! from one torn by power loss. Tombstone and checkpoint slots program
//! all-zero payloads, so their expected CRC is [`crc32`] of one zeroed
//! page, computed once when the manager is built.
//!
//! Every page the flush path programs is checksummed, so [`crc32`] is
//! built for throughput. It picks one of two kernels, and both yield
//! the same value as the classic byte-at-a-time loop:
//!
//! * **Carry-less multiply** (x86-64 CPUs that report PCLMULQDQ, for
//!   inputs of at least 64 bytes). Four 128-bit accumulators fold 64
//!   bytes per step: carry-less multiplication by a constant
//!   `x^n mod P(x)` moves an accumulator `n` bits forward, onto the
//!   chunk it is XORed into. The four are folded into one, which takes
//!   the remaining 16-byte chunks, and a Barrett step reduces it to the
//!   32-bit register (Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ", Intel 2009). A tail under 16 bytes
//!   continues in the portable kernel. The CPU is asked on every call
//!   through `is_x86_feature_detected!`, which caches its answer.
//! * **Portable** (every other CPU, every shorter input, and the
//!   carry-less kernel's tail): *slicing-by-8*. One 8-byte word is
//!   folded per step through eight tables, where the classic loop folds
//!   one byte through one; the last few bytes take the bytewise loop, so
//!   any length works. The tables are built at compile time.
//!
//! Neither kernel allocates or uses an external crate. The call into
//! the carry-less kernel is this crate's only `unsafe` block: a
//! `#[target_feature]` function may run only on a CPU that has the
//! feature, and the dispatcher checks that just before the call.

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
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
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

/// CRC-32 of `data` (IEEE polynomial, reflected, init and final XOR
/// `0xFFFF_FFFF` — the same convention as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && is_x86_feature_detected!("pclmulqdq") {
        #[allow(unsafe_code)]
        // SAFETY: `clmul::update` enables PCLMULQDQ on top of the x86-64
        // baseline (which includes SSE2), and the CPU reported PCLMULQDQ.
        let (c, tail) = unsafe { clmul::update(0xFFFF_FFFF, data) };
        return update(c, tail) ^ 0xFFFF_FFFF;
    }
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// The portable kernel: folds `data` into register `c` (no init or
/// final XOR) by words, then bytes.
fn update(mut c: u32, data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        c = fold_word(c, w);
    }
    for &b in tail {
        c = lookup(0, c as u8 ^ b) ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply kernel for x86-64 CPUs with PCLMULQDQ.
///
/// Constants are for the reflected IEEE polynomial, as in Gopal et al.:
/// each `K` is `x^n mod P(x)` for the fold distance `n` it serves,
/// bit-reflected and shifted left by one.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: one 16-byte chunk per accumulator.
    pub(super) const MIN_LEN: usize = 64;

    /// Fold by 4: `x^(4·128+32)` and `x^(4·128−32)`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold by 1: `x^(128+32)` and `x^(128−32)`.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// Second step of the 128 → 64-bit reduction: `x^64`.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P(x)` and the Barrett constant `µ = x^64 / P(x)`.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// One 16-byte chunk as a 128-bit little-endian lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(chunk: &[u8; 16]) -> __m128i {
        let [lo, hi] = chunk.as_chunks::<8>().0 else {
            unreachable!("16 bytes are two words")
        };
        _mm_set_epi64x(i64::from_le_bytes(*hi), i64::from_le_bytes(*lo))
    }

    /// Multiplies accumulator `x` forward by the distance `k` encodes
    /// and adds the chunk `next` that sits there.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Folds every whole 16-byte chunk of `data` into register `c` (no
    /// init or final XOR) and returns the register with the tail of
    /// fewer than 16 bytes left over. `data` must hold at least
    /// [`MIN_LEN`] bytes.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(c: u32, data: &[u8]) -> (u32, &[u8]) {
        let (chunks, tail) = data.as_chunks::<16>();
        let (first, rest) = chunks
            .split_first_chunk::<4>()
            .expect("the dispatcher passes at least MIN_LEN bytes");
        let mut acc = first.map(|chunk| load(&chunk));
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(c as i32));
        let (quads, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (a, chunk) in acc.iter_mut().zip(quad) {
                *a = fold(*a, load(chunk), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [a0, a1, a2, a3] = acc;
        let mut x = fold(fold(fold(a0, a1, k3k4), a2, k3k4), a3, k3k4);
        for chunk in singles {
            x = fold(x, load(chunk), k3k4);
        }
        // 128 → 64 bits, then 64 → 32 bits by Barrett reduction.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let c = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;
        (c, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::SimRng;

    /// The byte-at-a-time register update the faster kernels replaced,
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

    fn crc32_portable(data: &[u8]) -> u32 {
        update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// A kernel under test, by name.
    type Kernel = (&'static str, fn(&[u8]) -> u32);

    /// The kernels under test: the portable one always, and the
    /// dispatcher when the CPU reports PCLMULQDQ, since it then runs the
    /// carry-less kernel on every input of 64 bytes or more.
    fn kernels() -> Vec<Kernel> {
        let portable: Kernel = ("portable", crc32_portable);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") {
            return vec![portable, ("carry-less", crc32)];
        }
        vec![portable]
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

    /// Every length through 1100 bytes (A3's 512- and 1024-byte pages
    /// among them), then 1536, 2048 and 4096 bytes plus or minus one,
    /// from every word alignment, through each kernel.
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
                let want = crc32_bytewise(data);
                for (name, kernel) in kernels() {
                    assert_eq!(kernel(data), want, "{name} start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn detects_prefix_and_stripe_tears() {
        let full = vec![0xABu8; 512];
        let mut prefix = full.clone();
        for b in &mut prefix[256..] {
            *b = 0xFF;
        }
        let mut stripe = full.clone();
        for (i, chunk) in stripe.chunks_mut(64).enumerate() {
            if i % 2 == 1 {
                chunk.fill(0xFF);
            }
        }
        for (name, kernel) in kernels() {
            let want = kernel(&full);
            assert_ne!(kernel(&prefix), want, "{name}");
            assert_ne!(kernel(&stripe), want, "{name}");
        }
    }
}
