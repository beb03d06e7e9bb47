//! The 64-bit integer hash functions compared in the paper's Figure 5.
//!
//! ElGA hashes vertex and agent identifiers on every edge access, so the
//! function must be cheap *and* uniform; the paper selects Thomas Wang's
//! 64-bit mix after comparing it against a multiplicative hash, Abseil's
//! seeded hash, and CRC64. All four are reproduced here so the Figure 5
//! experiment can be regenerated.

/// Thomas Wang's 64-bit integer hash (1997), the function ElGA ships with.
///
/// Full-avalanche mix of a 64-bit key using shifts, adds and xors only.
#[inline]
pub fn wang64(mut key: u64) -> u64 {
    key = (!key).wrapping_add(key << 21); // key = (key << 21) - key - 1
    key ^= key >> 24;
    key = key.wrapping_add(key << 3).wrapping_add(key << 8); // key * 265
    key ^= key >> 14;
    key = key.wrapping_add(key << 2).wrapping_add(key << 4); // key * 21
    key ^= key >> 28;
    key.wrapping_add(key << 31)
}

/// Fibonacci multiplicative hash ("Mult" in the paper, after Steele, Lea
/// and Flood's fast splittable PRNG mixing constant).
///
/// A single multiply: extremely fast, but low bits mix poorly, which is
/// visible as load imbalance on the ring (Figure 5b).
#[inline]
pub fn mult64(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Default process-wide seed for [`abseil64`].
///
/// Abseil's hash is deliberately non-deterministic across processes; we
/// derive a seed once per process from the system clock and ASLR so that
/// repeated runs exercise different placements, exactly as the paper's
/// "Abseil" variant does. Tests needing determinism call
/// [`abseil64_seeded`] directly.
pub fn abseil_process_seed() -> u64 {
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5bd1_e995);
        // Mix in an address to pick up ASLR entropy.
        let a = &SEED as *const _ as u64;
        wang64(t ^ a.rotate_left(17))
    })
}

/// Abseil-style seeded hash: a 128-bit multiply of the seeded key folded
/// back to 64 bits (the core of `absl::Hash`'s `Mix`).
#[inline]
pub fn abseil64_seeded(key: u64, seed: u64) -> u64 {
    const K_MUL: u64 = 0x9DDF_EA08_EB38_2D69;
    let m = (key ^ seed) as u128 * K_MUL as u128;
    let folded = (m >> 64) as u64 ^ m as u64;
    let m2 = folded as u128 * K_MUL as u128;
    (m2 >> 64) as u64 ^ m2 as u64
}

/// Abseil-style hash with the per-process seed.
#[inline]
pub fn abseil64(key: u64) -> u64 {
    abseil64_seeded(key, abseil_process_seed())
}

/// CRC64 table for the ECMA-182 polynomial used by the paper's CRC64
/// variant ("Data interchange on 12,7 mm 48-track magnetic tape").
const CRC64_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1u64 << 63) != 0 {
                (crc << 1) ^ CRC64_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// CRC64/ECMA-182 over the key's eight little-endian bytes.
///
/// High quality but the slowest of the four candidates (eight dependent
/// table lookups per hash).
#[inline]
pub fn crc64(key: u64) -> u64 {
    let mut crc = !0u64;
    let bytes = key.to_le_bytes();
    let mut i = 0;
    while i < 8 {
        let idx = ((crc >> 56) as u8 ^ bytes[i]) as usize;
        crc = (crc << 8) ^ CRC64_TABLE[idx];
        i += 1;
    }
    !crc
}

/// The hash-function choices evaluated in the paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashKind {
    /// Thomas Wang's 64-bit hash — ElGA's default.
    #[default]
    Wang,
    /// Fibonacci multiplicative hash.
    Mult,
    /// Abseil-style seeded hash (non-deterministic per process).
    Abseil,
    /// CRC64/ECMA-182.
    Crc64,
}

impl HashKind {
    /// All candidates, in the order the paper plots them.
    pub const ALL: [HashKind; 4] = [
        HashKind::Wang,
        HashKind::Mult,
        HashKind::Abseil,
        HashKind::Crc64,
    ];

    /// Hash a 64-bit key with this function.
    #[inline]
    pub fn hash(self, key: u64) -> u64 {
        match self {
            HashKind::Wang => wang64(key),
            HashKind::Mult => mult64(key),
            HashKind::Abseil => abseil64(key),
            HashKind::Crc64 => crc64(key),
        }
    }

    /// Short display name used by the benchmark harnesses.
    pub fn name(self) -> &'static str {
        match self {
            HashKind::Wang => "Wang",
            HashKind::Mult => "Mult",
            HashKind::Abseil => "Abseil",
            HashKind::Crc64 => "CRC64",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wang_is_deterministic_and_mixing() {
        assert_eq!(wang64(0), wang64(0));
        assert_ne!(wang64(0), wang64(1));
        // Consecutive keys should land far apart.
        let a = wang64(100);
        let b = wang64(101);
        assert!(a.abs_diff(b) > 1 << 32);
    }

    #[test]
    fn wang_injective_on_small_range() {
        // Wang's mix is a bijection on u64; no collisions may appear on
        // any sampled range.
        let mut seen = std::collections::HashSet::new();
        for k in 0..10_000u64 {
            assert!(seen.insert(wang64(k)), "collision at {k}");
        }
    }

    #[test]
    fn mult_is_multiplicative() {
        assert_eq!(mult64(1), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(mult64(0), 0);
    }

    #[test]
    fn abseil_seeded_depends_on_seed() {
        assert_ne!(abseil64_seeded(42, 1), abseil64_seeded(42, 2));
        assert_eq!(abseil64_seeded(42, 7), abseil64_seeded(42, 7));
    }

    #[test]
    fn abseil_process_seed_is_stable_within_process() {
        assert_eq!(abseil_process_seed(), abseil_process_seed());
        assert_eq!(abseil64(9), abseil64(9));
    }

    #[test]
    fn crc64_zero_and_nonzero() {
        // CRC of 0 with init !0 and final xor is a fixed nonzero value.
        assert_ne!(crc64(0), 0);
        assert_eq!(crc64(123), crc64(123));
        assert_ne!(crc64(123), crc64(124));
    }

    #[test]
    fn kind_dispatch_matches_functions() {
        for k in [5u64, 1 << 40, u64::MAX] {
            assert_eq!(HashKind::Wang.hash(k), wang64(k));
            assert_eq!(HashKind::Mult.hash(k), mult64(k));
            assert_eq!(HashKind::Abseil.hash(k), abseil64(k));
            assert_eq!(HashKind::Crc64.hash(k), crc64(k));
        }
    }

    #[test]
    fn all_kinds_listed_once() {
        let names: Vec<_> = HashKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["Wang", "Mult", "Abseil", "CRC64"]);
    }

    /// A crude avalanche check: flipping one input bit should flip a
    /// substantial number of output bits for the quality hashes.
    #[test]
    fn wang_and_crc_avalanche() {
        for f in [wang64 as fn(u64) -> u64, crc64] {
            let mut total = 0u32;
            let trials = 64 * 16;
            for i in 0..16u64 {
                let x = i.wrapping_mul(0x1234_5678_9abc_def1);
                for bit in 0..64 {
                    total += (f(x) ^ f(x ^ (1 << bit))).count_ones();
                }
            }
            let avg = total as f64 / trials as f64;
            assert!(
                (20.0..44.0).contains(&avg),
                "poor avalanche: {avg} bits flipped on average"
            );
        }
    }
}
