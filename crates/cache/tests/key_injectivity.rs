//! Property tests of the fingerprint encoding: distinct contents never
//! collide, equal contents always do, and float canonicalization conflates
//! exactly the values IEEE `==` conflates.

use dosa_cache::{CacheKey, Fingerprinter};
use proptest::prelude::*;

/// One fingerprint over a mixed field tuple, mirroring how the search
/// layer writes keys (schema, then tagged named fields).
fn mixed_key(schema: &str, a: u64, b: i64, c: f64, d: bool, s: &str) -> CacheKey {
    Fingerprinter::new(schema)
        .field("a")
        .u64(a)
        .field("b")
        .i64(b)
        .field("c")
        .f64(c)
        .field("d")
        .bool(d)
        .field("s")
        .str(s)
        .finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same content → same key, bit for bit, across independent builders.
    #[test]
    fn equal_content_equal_key(a in 0u64..u64::MAX, b in i64::MIN..i64::MAX, c in -1.0e12f64..1.0e12, d in 0u8..2, n in 0usize..8) {
        let s = "x".repeat(n);
        let k1 = mixed_key("prop-v1", a, b, c, d == 1, &s);
        let k2 = mixed_key("prop-v1", a, b, c, d == 1, &s);
        prop_assert_eq!(&k1, &k2);
        prop_assert_eq!(k1.hash(), k2.hash());
        prop_assert_eq!(k1.as_bytes(), k2.as_bytes());
    }

    /// Varying any single field changes the key (no collisions). Floats
    /// are perturbed to the next representable value so the delta is the
    /// smallest the type can express.
    #[test]
    fn single_field_difference_never_collides(a in 0u64..u64::MAX - 1, b in i64::MIN..i64::MAX - 1, c in -1.0e12f64..1.0e12, n in 0usize..8) {
        let s = "x".repeat(n);
        let base = mixed_key("prop-v1", a, b, c, false, &s);
        prop_assert!(base != mixed_key("prop-v1", a + 1, b, c, false, &s), "u64 field ignored");
        prop_assert!(base != mixed_key("prop-v1", a, b + 1, c, false, &s), "i64 field ignored");
        let c_next = if c == 0.0 { f64::MIN_POSITIVE } else { f64::from_bits(c.to_bits() + 1) };
        prop_assert!(base != mixed_key("prop-v1", a, b, c_next, false, &s), "f64 field ignored");
        prop_assert!(base != mixed_key("prop-v1", a, b, c, true, &s), "bool field ignored");
        let mut s2 = s.clone();
        s2.push('y');
        prop_assert!(base != mixed_key("prop-v1", a, b, c, false, &s2), "str field ignored");
        prop_assert!(base != mixed_key("prop-v2", a, b, c, false, &s), "schema ignored");
    }

    /// Float canonicalization conflates exactly what IEEE `==` conflates:
    /// the two zeros collapse, every NaN collapses, and everything else
    /// keeps its bits.
    #[test]
    fn float_canonicalization_matches_ieee_equality(x in -1.0e12f64..1.0e12, nan_payload in 1u64..0xF_FFFF_FFFF_FFFF) {
        let via = |v: f64| Fingerprinter::new("float-v1").f64(v).finish();
        prop_assert_eq!(via(0.0), via(-0.0));
        prop_assert_eq!(via(f64::NAN), via(f64::from_bits(0x7FF0_0000_0000_0000 | nan_payload)));
        prop_assert_eq!(via(x) == via(-x), x == -x);
        if x != 0.0 {
            let next = f64::from_bits(x.to_bits() + 1);
            prop_assert!(via(x) != via(next), "adjacent floats must not collide");
        }
    }

    /// A cloned prefix, once extended, is the key of the same fields
    /// written from scratch: same bytes, same hash. Extending one clone
    /// leaves the prefix and its other clones untouched.
    #[test]
    fn extended_prefix_clone_equals_key_built_from_scratch(a in 0u64..u64::MAX, b in i64::MIN..i64::MAX, c in -1.0e12f64..1.0e12, d in 0u8..2, n in 0usize..8) {
        let s = "x".repeat(n);
        let prefix = Fingerprinter::new("prop-v1")
            .field("a")
            .u64(a)
            .field("b")
            .i64(b)
            .field("c")
            .f64(c);
        let extend = |fp: Fingerprinter| fp.field("d").bool(d == 1).field("s").str(&s).finish();
        let from_clone = extend(prefix.clone());
        let from_scratch = mixed_key("prop-v1", a, b, c, d == 1, &s);
        prop_assert_eq!(from_clone.hash(), from_scratch.hash());
        prop_assert_eq!(from_clone.as_bytes(), from_scratch.as_bytes());
        prop_assert_eq!(&from_clone, &from_scratch);
        prop_assert_eq!(extend(prefix), from_scratch);
    }

    /// Splitting the same character stream differently across string
    /// fields never collides (length prefixes hold the boundaries).
    #[test]
    fn string_boundaries_are_preserved(n in 1usize..10, split in 0usize..10) {
        let text = "abcdefghij"[..n].to_string();
        let split = split % (n + 1);
        let joined = Fingerprinter::new("split-v1").str(&text).str("").finish();
        let parts = Fingerprinter::new("split-v1")
            .str(&text[..split])
            .str(&text[split..])
            .finish();
        prop_assert_eq!(joined == parts, split == n);
    }
}
