//! Canonical cache keys: an injective, tagged byte encoding of a work
//! item's inputs plus a precomputed bucket hash.

use std::fmt;
use std::sync::Arc;

/// Every NaN canonicalizes to this quiet-NaN payload before its bits are
/// fingerprinted, so `0.0 / 0.0` and `f64::NAN` (and any signalling NaN)
/// address the same cache line.
const CANONICAL_NAN_BITS: u64 = 0x7FF8_0000_0000_0000;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Per-field type tags. Each encoded value starts with one of these, which
/// is what makes the encoding prefix-free across types: `u64(1)` and
/// `f64(1.0)` (or a `str` whose bytes happen to spell either) can never
/// collide because their tag bytes differ before any payload is compared.
#[repr(u8)]
enum Tag {
    U64 = 0x01,
    I64 = 0x02,
    F64 = 0x03,
    Bool = 0x04,
    Str = 0x05,
    /// Marks the start of a named field; the name is length-prefixed like
    /// a `Str` payload.
    Field = 0x06,
}

/// A finished content-address: the canonical bytes of a fingerprint and
/// their 64-bit FNV-1a hash.
///
/// Equality and `Hash` are **collision-proof by construction**: `Eq`
/// compares the full canonical bytes (the precomputed hash is only a fast
/// reject / bucket index), so two distinct fingerprints can never be
/// conflated no matter how the 64-bit hashes land. Cloning is cheap — the
/// bytes are behind an `Arc`.
#[derive(Clone)]
pub struct CacheKey {
    bytes: Arc<[u8]>,
    hash: u64,
}

impl CacheKey {
    /// The precomputed FNV-1a hash of the canonical bytes: a cheap first
    /// check in equality, and a bucket for hash-based stores.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The canonical byte encoding this key addresses.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        // Hash first (cheap reject), then the bytes (correctness).
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for CacheKey {}

// Keys order by their canonical bytes — a total order consistent with
// `Eq` (the hash is a pure function of the bytes, so it never needs to
// participate). This is what lets deterministic containers (`BTreeMap`)
// hold keys: any scan over cached entries visits them in one fixed,
// run-independent order.
impl PartialOrd for CacheKey {
    fn partial_cmp(&self, other: &CacheKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CacheKey {
    fn cmp(&self, other: &CacheKey) -> std::cmp::Ordering {
        self.bytes.cmp(&other.bytes)
    }
}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheKey({:016x}, {} bytes)",
            self.hash,
            self.bytes.len()
        )
    }
}

/// Builder of [`CacheKey`]s: append tagged fields, then
/// [`finish`](Fingerprinter::finish).
///
/// The encoding is injective over field sequences: every value carries a
/// type tag, variable-length payloads (strings, field names) carry a
/// length prefix, and floats are canonicalized before their bits are
/// written (`-0.0` encodes as `0.0`; every NaN encodes as one quiet-NaN
/// pattern). Two fingerprints collide only if the exact same sequence of
/// (tag, canonical payload) pairs was written — i.e. if they describe the
/// same content.
///
/// ```
/// use dosa_cache::Fingerprinter;
/// let a = Fingerprinter::new("demo-v1").f64(-0.0).finish();
/// let b = Fingerprinter::new("demo-v1").f64(0.0).finish();
/// assert_eq!(a, b); // -0.0 canonicalizes to 0.0
/// let c = Fingerprinter::new("demo-v1").u64(1).finish();
/// let d = Fingerprinter::new("demo-v1").f64(1.0).finish();
/// assert_ne!(c, d); // type tags keep distinct types apart
/// ```
///
/// The hash is folded as bytes are written, so a clone of a shared prefix
/// carries the prefix's hash: extending the clone hashes only the bytes
/// it appends, and finishing yields the same key as writing every field
/// from scratch.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    buf: Vec<u8>,
    /// FNV-1a of `buf`.
    hash: u64,
}

impl Fingerprinter {
    /// Start a fingerprint under `schema` — a version-carrying namespace
    /// (e.g. `"gd-item-v1"`). Bump the schema string whenever the meaning
    /// of the downstream fields changes, so stale persisted entries can
    /// never alias new keys.
    pub fn new(schema: &str) -> Fingerprinter {
        let mut fp = Fingerprinter {
            buf: Vec::with_capacity(64),
            hash: FNV_OFFSET,
        };
        fp.write_len_prefixed(Tag::Str, schema.as_bytes());
        fp
    }

    /// Append `bytes` and fold them into the hash.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.buf.extend_from_slice(bytes);
    }

    fn write_tag(&mut self, tag: Tag) {
        self.write(&[tag as u8]);
    }

    fn write_len_prefixed(&mut self, tag: Tag, bytes: &[u8]) {
        self.write_tag(tag);
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    /// Mark the start of a named field. Purely structural — it keeps
    /// adjacent same-typed values from different conceptual fields
    /// visually and byte-wise separated in the encoding.
    pub fn field(mut self, name: &str) -> Fingerprinter {
        self.write_len_prefixed(Tag::Field, name.as_bytes());
        self
    }

    /// Append an unsigned integer.
    pub fn u64(mut self, v: u64) -> Fingerprinter {
        self.write_tag(Tag::U64);
        self.write(&v.to_le_bytes());
        self
    }

    /// Append a signed integer.
    pub fn i64(mut self, v: i64) -> Fingerprinter {
        self.write_tag(Tag::I64);
        self.write(&v.to_le_bytes());
        self
    }

    /// Append a float, canonicalized first: `-0.0` encodes as `0.0`
    /// (IEEE `==` treats them as equal, so a config carrying either must
    /// address the same result) and every NaN encodes as one quiet-NaN
    /// bit pattern. All other values keep their exact bits — `1.0` and
    /// `1.0 + f64::EPSILON` are different contents.
    pub fn f64(mut self, v: f64) -> Fingerprinter {
        // dosa-lint: allow(float-eq) — IEEE `==` is the point: it conflates
        // -0.0 with 0.0, which is exactly the canonicalization being applied.
        let bits = if v == 0.0 {
            0u64 // covers -0.0: IEEE == conflates the two zeros
        } else if v.is_nan() {
            CANONICAL_NAN_BITS
        } else {
            v.to_bits()
        };
        self.write_tag(Tag::F64);
        self.write(&bits.to_le_bytes());
        self
    }

    /// Append a boolean.
    pub fn bool(mut self, v: bool) -> Fingerprinter {
        self.write_tag(Tag::Bool);
        self.write(&[v as u8]);
        self
    }

    /// Append a string (length-prefixed, so `"ab" + "c"` and `"a" + "bc"`
    /// cannot collide).
    pub fn str(mut self, s: &str) -> Fingerprinter {
        self.write_len_prefixed(Tag::Str, s.as_bytes());
        self
    }

    /// Finish: return the key of the canonical bytes and their FNV-1a
    /// (64-bit) hash, folded as they were written.
    pub fn finish(self) -> CacheKey {
        CacheKey {
            bytes: self.buf.into(),
            hash: self.hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_produce_equal_keys() {
        let make = || {
            Fingerprinter::new("t-v1")
                .field("a")
                .u64(7)
                .field("b")
                .f64(0.04)
                .str("name")
                .bool(true)
                .finish()
        };
        assert_eq!(make(), make());
        assert_eq!(make().hash(), make().hash());
    }

    #[test]
    fn zero_signs_and_nans_canonicalize() {
        let pos = Fingerprinter::new("t-v1").f64(0.0).finish();
        let neg = Fingerprinter::new("t-v1").f64(-0.0).finish();
        assert_eq!(pos, neg);
        let quiet = Fingerprinter::new("t-v1").f64(f64::NAN).finish();
        let computed = Fingerprinter::new("t-v1")
            .f64(f64::INFINITY - f64::INFINITY)
            .finish();
        let weird = Fingerprinter::new("t-v1")
            .f64(f64::from_bits(0x7FF0_DEAD_BEEF_0001))
            .finish();
        assert_eq!(quiet, computed);
        assert_eq!(quiet, weird);
    }

    #[test]
    fn type_tags_keep_lookalike_payloads_apart() {
        let as_u64 = Fingerprinter::new("t-v1").u64(1.0_f64.to_bits()).finish();
        let as_f64 = Fingerprinter::new("t-v1").f64(1.0).finish();
        let as_i64 = Fingerprinter::new("t-v1")
            .i64(1.0_f64.to_bits() as i64)
            .finish();
        assert_ne!(as_u64, as_f64);
        assert_ne!(as_u64, as_i64);
    }

    #[test]
    fn length_prefixes_keep_string_boundaries() {
        let ab_c = Fingerprinter::new("t-v1").str("ab").str("c").finish();
        let a_bc = Fingerprinter::new("t-v1").str("a").str("bc").finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn schema_separates_namespaces() {
        let v1 = Fingerprinter::new("t-v1").u64(3).finish();
        let v2 = Fingerprinter::new("t-v2").u64(3).finish();
        assert_ne!(v1, v2);
    }
}
