//! # lsv-cache — set-associative cache hierarchy simulator
//!
//! Models the memory system of the evaluation platform (paper Section 7):
//! per-core L1D and L2, a shared banked LLC, and main memory. The simulator
//! is *trace-driven by real addresses*: the convolution kernels in
//! `lsv-conv` run over tensors placed in a flat simulated address space, so
//! the cache conflict misses that the paper analyses (Section 5.2) emerge
//! from the actual blocked memory layouts rather than from a hand-wired
//! penalty.
//!
//! Features:
//!
//! * [`SetAssocCache`] — LRU set-associative cache with write-back /
//!   write-allocate semantics and per-level hit/miss statistics.
//! * **Conflict-miss classification** (Hill & Smith, ref. 13 in the paper's
//!   bibliography): each level can carry a same-capacity fully-associative
//!   LRU *shadow*; a miss in the set-associative array that hits in the
//!   shadow is a conflict miss — it would have been avoided by full
//!   associativity. This is how the MPKI study distinguishes the paper's
//!   "conflict" misses from capacity misses.
//! * [`Hierarchy`] — a three-level inclusive hierarchy returning the level
//!   serviced and its load-to-use latency.
//! * **Two fast paths, no changed outcome.** A [`SetAssocCache`] re-touch
//!   of its most recently used line skips the set scan and the shadow (the
//!   MRU shortcut). [`Hierarchy::load_round`] serves a group of scalar
//!   loads in one call, and a round that repeats the previous round's line
//!   sequence, which hit purely in L1, only counts its hits: the repeat
//!   provably changes no residency, LRU order, prefetch flag or shadow
//!   order (the invariant and what drops it are in [`hierarchy`]).
//! * [`banks`] — the LLC line-interleaved banking model used to reproduce
//!   the gather/scatter serialization behaviour of Section 8 (`bwdw` pass).

pub mod banks;
pub mod hierarchy;
pub mod set_assoc;
pub mod stats;

pub use banks::bank_of_line;
pub use hierarchy::{shared_llc, AccessOutcome, Hierarchy, Level, SharedLlc};
pub use set_assoc::{SetAssocCache, ShadowLru};
pub use stats::{HierarchyStats, LevelStats};
