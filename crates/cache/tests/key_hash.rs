//! Property tests of the key hash: `CacheKey::hash` is the 64-bit FNV-1a
//! of the key's canonical bytes, however the key was built — field by
//! field from scratch, from a cloned prefix, or from a prefix extended by
//! `Fingerprinter::finish_extended`.

use dosa_cache::Fingerprinter;
use proptest::prelude::*;

/// FNV-1a (64-bit) over `bytes`, written out as the reference.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Append one field of kind `kind % 6`, its value drawn from `v`.
fn write(fp: Fingerprinter, (kind, v): (u8, u64)) -> Fingerprinter {
    match kind % 6 {
        0 => fp.u64(v),
        1 => fp.i64(v as i64),
        2 => fp.f64(f64::from_bits(v)),
        3 => fp.bool(v & 1 == 1),
        4 => fp.str(&"s".repeat((v % 9) as usize)),
        _ => fp.field(&"f".repeat((v % 5) as usize)),
    }
}

fn write_all(fp: Fingerprinter, fields: &[(u8, u64)]) -> Fingerprinter {
    fields.iter().fold(fp, |fp, &f| write(fp, f))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any field sequence: the hash is FNV-1a of the bytes.
    #[test]
    fn hash_is_fnv1a_of_the_bytes(fields in proptest::collection::vec((0u8..6, 0u64..u64::MAX), 0..24)) {
        let key = write_all(Fingerprinter::new("hash-v1"), &fields).finish();
        prop_assert_eq!(key.hash(), fnv1a(key.as_bytes()));
    }

    /// A prefix extended by the rest of the fields, through a clone or
    /// `finish_extended`, is the from-scratch key: same bytes, so the
    /// same hash, and that hash is FNV-1a of the bytes.
    #[test]
    fn extended_prefix_hash_is_fnv1a_of_the_bytes(fields in proptest::collection::vec((0u8..6, 0u64..u64::MAX), 0..24), split in 0usize..25) {
        let split = split.min(fields.len());
        let (head, tail) = fields.split_at(split);
        let scratch = write_all(Fingerprinter::new("hash-v1"), &fields).finish();
        let prefix = write_all(Fingerprinter::new("hash-v1"), head);
        let extended = prefix.finish_extended(|fp| write_all(fp, tail));
        let cloned = write_all(prefix.clone(), tail).finish();
        for key in [&extended, &cloned] {
            prop_assert_eq!(key.hash(), fnv1a(key.as_bytes()));
            prop_assert_eq!(key.as_bytes(), scratch.as_bytes());
            prop_assert_eq!(key.hash(), scratch.hash());
            prop_assert_eq!(key, &scratch);
        }
        // Extending leaves the prefix as it was.
        prop_assert_eq!(prefix.finish(), write_all(Fingerprinter::new("hash-v1"), head).finish());
    }
}
