//! Canonical cache keys: an injective, tagged byte encoding of a work
//! item's inputs, with an FNV-1a hash of it computed on demand.

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

/// A finished content-address: the canonical bytes of a fingerprint.
///
/// Equality and order compare the full canonical bytes, so two distinct
/// fingerprints can never be conflated, and deterministic containers
/// (`BTreeMap`) visit keys in one fixed, run-independent order. Nothing
/// is hashed while a key is built: [`hash`](CacheKey::hash) computes the
/// bytes' 64-bit FNV-1a when asked, for `Hash`, `Debug` and callers that
/// want a digest. Cloning is cheap — the bytes are behind an `Arc`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    bytes: Arc<[u8]>,
}

impl CacheKey {
    /// The 64-bit FNV-1a hash of the canonical bytes, computed on each
    /// call.
    pub fn hash(&self) -> u64 {
        self.bytes.iter().fold(FNV_OFFSET, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        })
    }

    /// The canonical byte encoding this key addresses.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(CacheKey::hash(self));
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheKey({:016x}, {} bytes)",
            self.hash(),
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
/// Writing a field only appends its bytes, so a clone of a shared prefix
/// extended by more fields finishes to the same key as writing every
/// field from scratch.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    buf: Vec<u8>,
}

// The appending methods are `#[inline]`: a network's key prefix writes a
// few hundred values, and an out-of-line call per value into this crate
// cost more than the writes themselves.
impl Fingerprinter {
    /// Start a fingerprint under `schema` — a version-carrying namespace
    /// (e.g. `"gd-item-v1"`). Bump the schema string whenever the meaning
    /// of the downstream fields changes, so stale persisted entries can
    /// never alias new keys.
    pub fn new(schema: &str) -> Fingerprinter {
        Fingerprinter::with_capacity(schema, 64)
    }

    /// [`new`](Fingerprinter::new), with room for `capacity` bytes before
    /// the buffer grows.
    pub fn with_capacity(schema: &str, capacity: usize) -> Fingerprinter {
        let mut fp = Fingerprinter {
            buf: Vec::with_capacity(capacity),
        };
        fp.write_len_prefixed(Tag::Str, schema.as_bytes());
        fp
    }

    /// Append one value: its tag byte, then `payload`.
    fn write<const N: usize>(&mut self, tag: Tag, payload: [u8; N]) {
        self.buf.push(tag as u8);
        self.buf.extend_from_slice(&payload);
    }

    #[inline]
    fn write_len_prefixed(&mut self, tag: Tag, bytes: &[u8]) {
        self.write(tag, (bytes.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(bytes);
    }

    /// Mark the start of a named field. Purely structural — it keeps
    /// adjacent same-typed values from different conceptual fields
    /// visually and byte-wise separated in the encoding.
    #[inline]
    pub fn field(mut self, name: &str) -> Fingerprinter {
        self.write_len_prefixed(Tag::Field, name.as_bytes());
        self
    }

    /// Append an unsigned integer.
    #[inline]
    pub fn u64(mut self, v: u64) -> Fingerprinter {
        self.write(Tag::U64, v.to_le_bytes());
        self
    }

    /// Append a signed integer.
    #[inline]
    pub fn i64(mut self, v: i64) -> Fingerprinter {
        self.write(Tag::I64, v.to_le_bytes());
        self
    }

    /// Append a float, canonicalized first: `-0.0` encodes as `0.0`
    /// (IEEE `==` treats them as equal, so a config carrying either must
    /// address the same result) and every NaN encodes as one quiet-NaN
    /// bit pattern. All other values keep their exact bits — `1.0` and
    /// `1.0 + f64::EPSILON` are different contents.
    #[inline]
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
        self.write(Tag::F64, bits.to_le_bytes());
        self
    }

    /// Append a boolean.
    #[inline]
    pub fn bool(mut self, v: bool) -> Fingerprinter {
        self.write(Tag::Bool, [v as u8]);
        self
    }

    /// Append a string (length-prefixed, so `"ab" + "c"` and `"a" + "bc"`
    /// cannot collide).
    #[inline]
    pub fn str(mut self, s: &str) -> Fingerprinter {
        self.write_len_prefixed(Tag::Str, s.as_bytes());
        self
    }

    /// Finish: return the key of the canonical bytes.
    pub fn finish(self) -> CacheKey {
        CacheKey {
            bytes: self.buf.into(),
        }
    }

    /// The key `extend(self.clone()).finish()` returns, with the bytes
    /// written once, straight into a buffer of the key's exact size: a
    /// shared prefix extended per item costs one copy of the prefix per
    /// key.
    ///
    /// ```
    /// use dosa_cache::Fingerprinter;
    /// let prefix = Fingerprinter::new("demo-v1").str("network");
    /// let a = prefix.finish_extended(|fp| fp.field("item").u64(3));
    /// assert_eq!(a, prefix.field("item").u64(3).finish());
    /// ```
    pub fn finish_extended(&self, extend: impl FnOnce(Fingerprinter) -> Fingerprinter) -> CacheKey {
        let suffix = extend(Fingerprinter {
            buf: Vec::with_capacity(32),
        })
        .buf;
        let len = self.buf.len() + suffix.len();
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        // Not yet shared, so this borrows the new buffer and copies nothing.
        let (head, tail) = Arc::make_mut(&mut bytes).split_at_mut(self.buf.len());
        head.copy_from_slice(&self.buf);
        tail.copy_from_slice(&suffix);
        CacheKey { bytes }
    }

    /// The keys `self.clone().field(name).u64(i).finish()` for each `i`
    /// of `indices`, in order, written into one buffer of which only the
    /// index bytes change from key to key. A key dropped before the next
    /// is made costs no allocation or copy; one still held keeps its
    /// bytes (the buffer is copied before it is rewritten).
    ///
    /// ```
    /// use dosa_cache::Fingerprinter;
    /// let prefix = Fingerprinter::new("demo-v1").str("network");
    /// let keys: Vec<_> = prefix.indexed_keys("item", [4, 9]).collect();
    /// assert_eq!(keys[1], prefix.field("item").u64(9).finish());
    /// ```
    pub fn indexed_keys<I: IntoIterator<Item = u64>>(
        &self,
        name: &str,
        indices: I,
    ) -> impl Iterator<Item = CacheKey> + use<I> {
        let mut key = self.finish_extended(|fp| fp.field(name).u64(0));
        indices.into_iter().map(move |index| {
            // The key ends in the index's eight payload bytes.
            let bytes = Arc::make_mut(&mut key.bytes);
            let at = bytes.len() - 8;
            bytes[at..].copy_from_slice(&index.to_le_bytes());
            key.clone()
        })
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
    fn indexed_keys_equal_keys_built_field_by_field() {
        let prefix = Fingerprinter::new("t-v1").field("a").u64(7);
        let scratch = |i: u64| prefix.clone().field("item").u64(i).finish();
        let indices = [0, 1, 255, 256, u64::MAX, 3];
        // Dropped one by one: the buffer is rewritten in place.
        for (key, i) in prefix.indexed_keys("item", indices).zip(indices) {
            assert_eq!(key.as_bytes(), scratch(i).as_bytes());
        }
        // Held: every key keeps its own bytes.
        let held: Vec<CacheKey> = prefix.indexed_keys("item", indices).collect();
        for (key, i) in held.iter().zip(indices) {
            assert_eq!(key, &scratch(i));
            assert_eq!(key.hash(), scratch(i).hash());
        }
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
