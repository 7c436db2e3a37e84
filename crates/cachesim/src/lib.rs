//! # cachesim — the on-chip cache table of CAESAR and CASE
//!
//! Models the paper's fast on-chip memory (§3.1): a table of `M`
//! entries, each `(flow_id, partial_count)` with per-entry capacity
//! `y`. Packets update the cache; the slow off-chip memory only sees
//! *eviction events*, which this crate emits as a stream:
//!
//! * **Overflow** — an entry reached `y` ("fulfilled"), its value `y`
//!   is evicted and the entry keeps counting from zero;
//! * **Replacement** — the table is full and a victim chosen by the
//!   replacement policy (LRU or random in the paper; FIFO added for
//!   ablation) is flushed to make room for a new flow;
//! * **FinalDump** — at the end of measurement "we dump all the cache
//!   entries to the SRAM counters".
//!
//! The table is O(1) per packet: an identity-hashed index map plus an
//! intrusive doubly-linked recency list over a slab of slots, kept
//! only under the policies that read it (LRU and FIFO).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table;

pub use table::{
    CacheConfig, CachePolicy, CacheStats, CacheTable, CacheTableState, Eviction, EvictionReason,
    Recorded,
};
