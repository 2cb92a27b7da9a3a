//! # dosa-cache
//!
//! The content-addressed result store underneath the search service's
//! result cache: every work item of a search job — a `(network, start)`
//! gradient descent, a `(network, design)` black-box evaluation — is a
//! pure function of (workload dims, strategy config, seed, stream id,
//! surrogate id), so its result can be addressed by a **canonical
//! fingerprint** of those inputs and served from a cache instead of
//! recomputed.
//!
//! This crate is deliberately free of search-domain types; it provides
//! three pieces the search layer composes:
//!
//! * [`Fingerprinter`] — builds a [`CacheKey`] from an **injective**
//!   canonical byte encoding: every field is written with a type tag and
//!   (for variable-length data) a length prefix, so two distinct field
//!   sequences can never serialize to the same bytes, and floats are
//!   canonicalized (`-0.0` → `0.0`, every NaN → one quiet-NaN bit
//!   pattern) before their bits are written.
//! * [`CacheKey`] — the finished key: the canonical bytes. Equality and
//!   order compare the **full bytes**, so two different work items can
//!   never alias; [`CacheKey::hash`] computes a 64-bit FNV-1a of them on
//!   demand and no store reads it.
//! * [`CacheStore`] — the storage trait ([`get`](CacheStore::get) /
//!   [`put`](CacheStore::put)), implemented today by the in-memory
//!   [`ShardedLru`] and designed so a persistent backend (disk, redis,
//!   ...) can slot in behind the same service wiring later.
//!
//! The search-facing wrapper — which inputs go into a key, lookup and
//! journaling — lives in `dosa-search`'s `cache` module;
//! the end-to-end contract ("a cached result is bit-identical to a cold
//! run") is documented in the repository's `ARCHITECTURE.md`.

#![warn(missing_docs)]

mod key;
mod lru;

pub use key::{CacheKey, Fingerprinter};
pub use lru::{CacheStore, ShardedLru};
