//! A single set-associative, write-back/write-allocate, LRU cache level with
//! optional fully-associative shadow for conflict-miss classification.
//!
//! This module sits on the simulator's hottest path — every simulated scalar
//! load and every vector-touched cache line goes through
//! [`SetAssocCache::access_line`] — so the data structures are built for
//! constant-time, allocation-free accesses:
//!
//! * the ways of all sets live in one flat array (no per-set `Vec` pointer
//!   chase; LRU order is maintained by shifting at most `ways` copies of an
//!   8-byte way: the line address with the dirty and prefetched flags packed
//!   into its low bits),
//! * construction costs what a run touches, not the cache's capacity: the
//!   way array is never written until a line fills it (the per-set
//!   occupancy says which ways are valid; nothing past it is read), so it
//!   is allocated zeroed, or taken without clearing from a cache of the
//!   same size that this thread dropped, instead of being filled up front,
//! * set lookup is shift/mask (all practical geometries have power-of-two
//!   set counts; a modulo fallback keeps odd geometries correct),
//! * the conflict-classification shadow is an exact fully-associative LRU in
//!   O(1) per access: a fixed-capacity open-addressing table over an
//!   intrusive doubly-linked recency list (no `HashMap`, no `BTreeMap`),
//! * repeated accesses to the most-recently-used line take an early-out that
//!   skips the set scan and the shadow probe entirely while updating the
//!   same statistics — the common case inside a register block, where a
//!   kernel reads several consecutive scalars from one line.
//!
//! [`crate::Hierarchy::load_round`] adds a second fast path one level up: a
//! round of scalar loads that repeats the previous round's pure-hit line
//! sequence only counts its hits here.
//!
//! None of this changes a single simulated outcome: hit/miss/conflict
//! classification, writebacks and LRU victims are bit-identical to the
//! straightforward implementation (pinned by `tests/golden_cycles.rs` at the
//! workspace root and by the equivalence tests below).

use crate::stats::LevelStats;
use lsv_arch::CacheGeometry;
use std::cell::Cell;

/// Way flag: the line was written since it was filled.
const DIRTY: u64 = 1;
/// Way flag: filled by a prefetch and not yet demand-hit (stream-training
/// state).
const PREFETCHED: u64 = 2;
/// One way is a `u64`: the line address (lines are at least 4 bytes, so its
/// two low bits are zero) with [`DIRTY`] and [`PREFETCHED`] in those bits.
const FLAGS: u64 = DIRTY | PREFETCHED;

/// Whether the packed `way` holds `line_addr` (whatever its flags).
#[inline]
fn holds(way: u64, line_addr: u64) -> bool {
    way & !FLAGS == line_addr
}

const NO_NODE: u32 = u32::MAX;
const NO_LINE: u64 = u64::MAX;

/// Fully-associative exact-LRU model of the same capacity as the main array.
///
/// Used for miss classification (Hill & Smith): a line that the shadow
/// retains but the set-associative array evicted was lost to a *conflict*,
/// not capacity. Every operation is O(1): residency is tracked by a
/// fixed-capacity open-addressing hash table (linear probing with
/// backward-shift deletion, ≤50% load factor) whose entries index an
/// intrusive doubly-linked recency list. The structure never allocates
/// after construction.
#[derive(Debug)]
pub struct ShadowLru {
    capacity: usize,
    /// slot -> node index, `NO_NODE` = empty. Power-of-two length.
    table: Box<[u32]>,
    /// `table.len() - 1` (for masking probe positions).
    slot_mask: usize,
    /// `64 - log2(table.len())` (Fibonacci-hash shift).
    hash_shift: u32,
    /// node -> line address.
    line: Box<[u64]>,
    /// node -> more-recent neighbour (towards MRU).
    prev: Box<[u32]>,
    /// node -> less-recent neighbour (towards LRU).
    next: Box<[u32]>,
    head: u32,
    tail: u32,
    len: usize,
}

impl ShadowLru {
    /// A shadow retaining the `capacity` most recently used lines.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "shadow capacity must be at least 1");
        let slots = (capacity * 2).next_power_of_two();
        Self {
            capacity,
            table: vec![NO_NODE; slots].into_boxed_slice(),
            slot_mask: slots - 1,
            hash_shift: 64 - slots.trailing_zeros(),
            line: vec![NO_LINE; capacity].into_boxed_slice(),
            prev: vec![NO_NODE; capacity].into_boxed_slice(),
            next: vec![NO_NODE; capacity].into_boxed_slice(),
            head: NO_NODE,
            tail: NO_NODE,
            len: 0,
        }
    }

    /// Lines currently retained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the shadow holds no lines yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home_slot(&self, line_addr: u64) -> usize {
        // Fibonacci hashing; line addresses are line-aligned, the
        // multiplication spreads the high-entropy middle bits into the top.
        (line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.hash_shift) as usize
    }

    /// Slot currently holding `line_addr`, if resident.
    #[inline]
    fn find_slot(&self, line_addr: u64) -> Option<usize> {
        let mut s = self.home_slot(line_addr);
        loop {
            let node = self.table[s];
            if node == NO_NODE {
                return None;
            }
            if self.line[node as usize] == line_addr {
                return Some(s);
            }
            s = (s + 1) & self.slot_mask;
        }
    }

    /// Insert `node` for `line_addr` into the first free probe slot.
    #[inline]
    fn insert_slot(&mut self, line_addr: u64, node: u32) {
        let mut s = self.home_slot(line_addr);
        while self.table[s] != NO_NODE {
            s = (s + 1) & self.slot_mask;
        }
        self.table[s] = node;
    }

    /// Backward-shift deletion: empty `slot` and compact the probe chain
    /// behind it so lookups never need tombstones.
    fn remove_slot(&mut self, slot: usize) {
        let mut i = slot;
        let mut j = slot;
        loop {
            j = (j + 1) & self.slot_mask;
            let node = self.table[j];
            if node == NO_NODE {
                break;
            }
            let home = self.home_slot(self.line[node as usize]);
            // `j`'s occupant may move into `i` iff its home slot is not in
            // the cyclic interval (i, j] — i.e. the probe chain still passes
            // through `i`.
            if (j.wrapping_sub(home) & self.slot_mask) >= (j.wrapping_sub(i) & self.slot_mask) {
                self.table[i] = self.table[j];
                i = j;
            }
        }
        self.table[i] = NO_NODE;
    }

    #[inline]
    fn unlink(&mut self, node: u32) {
        let (p, n) = (self.prev[node as usize], self.next[node as usize]);
        if p == NO_NODE {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NO_NODE {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    #[inline]
    fn push_head(&mut self, node: u32) {
        self.prev[node as usize] = NO_NODE;
        self.next[node as usize] = self.head;
        if self.head != NO_NODE {
            self.prev[self.head as usize] = node;
        }
        self.head = node;
        if self.tail == NO_NODE {
            self.tail = node;
        }
    }

    /// The line at the head of the recency list (most recently touched).
    #[inline]
    fn mru_line(&self) -> Option<u64> {
        (self.head != NO_NODE).then(|| self.line[self.head as usize])
    }

    /// Touch a line; returns whether it was resident. Evicts the
    /// least-recently-used line when inserting into a full shadow.
    pub fn access(&mut self, line_addr: u64) -> bool {
        // Re-touching the head changes no recency state: skip the hash probe.
        if self.head != NO_NODE && self.line[self.head as usize] == line_addr {
            return true;
        }
        if let Some(slot) = self.find_slot(line_addr) {
            let node = self.table[slot];
            if self.head != node {
                self.unlink(node);
                self.push_head(node);
            }
            return true;
        }
        let node = if self.len == self.capacity {
            // Recycle the LRU node for the incoming line.
            let victim = self.tail;
            let victim_line = self.line[victim as usize];
            let slot = self
                .find_slot(victim_line)
                .expect("shadow LRU victim must be in the table");
            self.remove_slot(slot);
            self.unlink(victim);
            victim
        } else {
            let n = self.len as u32;
            self.len += 1;
            n
        };
        self.line[node as usize] = line_addr;
        self.insert_slot(line_addr, node);
        self.push_head(node);
        false
    }
}

/// The result of one line access against a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineAccess {
    /// The line was resident.
    pub hit: bool,
    /// The miss is classified as a conflict miss (only meaningful when
    /// `hit == false` and the cache has a shadow).
    pub conflict: bool,
    /// A dirty line was evicted to make room (write-back traffic).
    pub writeback: bool,
    /// The access hit a line that a prefetch filled and had not been
    /// demand-referenced yet — the stream prefetcher should continue.
    pub first_hit_on_prefetch: bool,
}

const HIT_MRU: LineAccess = LineAccess {
    hit: true,
    conflict: false,
    writeback: false,
    first_hit_on_prefetch: false,
};

/// An LRU set-associative cache over line-aligned addresses.
///
/// The cache stores no data — the simulated memory lives in
/// `lsv_vengine::Arena` — only residency metadata. Ways within a set are
/// kept in LRU order (index 0 = most recently used) in one flat array;
/// associativities in this workload are small (2-16), so shifting a few
/// packed ways beats pointer chasing.
#[derive(Debug)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    /// `log2(line)` — line offsets strip with one shift.
    line_shift: u32,
    /// `sets - 1` when the set count is a power of two (the practical case).
    set_mask: u64,
    /// Whether `set_mask` is usable; otherwise fall back to a modulo.
    sets_po2: bool,
    ways: usize,
    /// `sets * ways` packed ways; set `s` owns `[s*ways, s*ways + len[s])`.
    /// A way past its set's `len` is never read, so its bits are arbitrary.
    entries: Box<[u64]>,
    /// Occupancy per set.
    lens: Box<[u8]>,
    /// Most-recently-accessed line (fast path), `NO_LINE` when invalid.
    mru_line: u64,
    /// Set index of `mru_line` (its way is at position 0 of that set).
    mru_set: usize,
    shadow: Option<ShadowLru>,
    stats: LevelStats,
}

impl SetAssocCache {
    /// Create an empty cache. `classify_conflicts` enables the
    /// fully-associative shadow (adds memory/time overhead, typically enabled
    /// for L1 where the paper's conflict phenomenon lives, and for the MPKI
    /// study).
    pub fn new(geom: CacheGeometry, classify_conflicts: bool) -> Self {
        let sets = geom.sets();
        assert!(geom.ways <= u8::MAX as usize, "associativity fits a u8");
        assert!(
            geom.line >= 4,
            "a {}-byte line leaves no two low address bits for the way flags",
            geom.line
        );
        let shadow = classify_conflicts.then(|| ShadowLru::new(geom.lines()));
        Self {
            geom,
            line_shift: geom.line.trailing_zeros(),
            set_mask: sets as u64 - 1,
            sets_po2: sets.is_power_of_two(),
            ways: geom.ways,
            entries: take_ways(sets * geom.ways),
            lens: vec![0; sets].into_boxed_slice(),
            mru_line: NO_LINE,
            mru_set: 0,
            shadow,
            stats: LevelStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// Drop all contents and counters.
    pub fn flush(&mut self) {
        // Emptying every set invalidates its ways; their stale bits are never
        // read again.
        self.lens.fill(0);
        self.mru_line = NO_LINE;
        if let Some(sh) = &mut self.shadow {
            *sh = ShadowLru::new(self.geom.lines());
        }
        self.stats = LevelStats::default();
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        let line_idx = addr >> self.line_shift;
        if self.sets_po2 {
            (line_idx & self.set_mask) as usize
        } else {
            (line_idx % (self.lens.len() as u64)) as usize
        }
    }

    /// Access one cache line (the address may be anywhere inside the line).
    /// `write` marks the line dirty. Missing lines are allocated
    /// (write-allocate), evicting the set's LRU way.
    pub fn access_line(&mut self, addr: u64, write: bool) -> LineAccess {
        let line_addr = (addr >> self.line_shift) << self.line_shift;

        // Fast path: the immediately preceding access touched this line, so
        // it is resident at MRU position with its prefetch flag cleared, and
        // it is also at the head of the shadow's recency list — re-touching
        // changes no LRU state anywhere. Only the counters move.
        if line_addr == self.mru_line {
            self.stats.hits += 1;
            if write {
                self.entries[self.mru_set * self.ways] |= DIRTY;
            }
            return HIT_MRU;
        }

        let set_idx = self.set_of(addr);
        let shadow_hit = self
            .shadow
            .as_mut()
            .map(|s| s.access(line_addr))
            .unwrap_or(false);

        let base = set_idx * self.ways;
        let len = self.lens[set_idx] as usize;
        let set = &mut self.entries[base..base + len];
        if let Some(pos) = set.iter().position(|&w| holds(w, line_addr)) {
            let way = set[pos];
            let first_hit_on_prefetch = way & PREFETCHED != 0;
            set.copy_within(0..pos, 1);
            set[0] = (way & !PREFETCHED) | if write { DIRTY } else { 0 };
            self.stats.hits += 1;
            self.mru_line = line_addr;
            self.mru_set = set_idx;
            return LineAccess {
                hit: true,
                conflict: false,
                writeback: false,
                first_hit_on_prefetch,
            };
        }

        // Miss: allocate, possibly evicting the LRU way.
        self.stats.misses += 1;
        let conflict = shadow_hit;
        if conflict {
            self.stats.conflict_misses += 1;
        }
        let mut writeback = false;
        if len == self.ways {
            if set[len - 1] & DIRTY != 0 {
                writeback = true;
                self.stats.writebacks += 1;
            }
        } else {
            self.lens[set_idx] = len as u8 + 1;
        }
        let shift = len.min(self.ways - 1);
        let set = &mut self.entries[base..base + self.ways];
        set.copy_within(0..shift, 1);
        set[0] = line_addr | if write { DIRTY } else { 0 };
        self.mru_line = line_addr;
        self.mru_set = set_idx;
        LineAccess {
            hit: false,
            conflict,
            writeback,
            first_hit_on_prefetch: false,
        }
    }

    /// Count `n` hits that change no other state: the repeat of a run of
    /// pure hits (see [`crate::Hierarchy::load_round`]).
    pub(crate) fn count_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Insert a line without touching statistics (hardware prefetch fill).
    /// The shadow is updated too: the fully-associative reference sees the
    /// same (demand + prefetch) stream.
    pub fn insert_silent(&mut self, addr: u64) {
        let line_addr = (addr >> self.line_shift) << self.line_shift;
        let set_idx = self.set_of(addr);
        // Fast path (hot under the streaming prefetcher, which re-fills the
        // same lines on every stream-continuation trigger): the line is
        // already this set's MRU way and — when a shadow exists — also the
        // shadow's most recent line. Re-inserting would reshuffle nothing,
        // so no state (including the demand MRU shortcut) needs touching.
        if self.lens[set_idx] > 0 && holds(self.entries[set_idx * self.ways], line_addr) {
            match &self.shadow {
                None => return,
                Some(sh) if sh.mru_line() == Some(line_addr) => return,
                _ => {}
            }
        }
        if let Some(sh) = self.shadow.as_mut() {
            sh.access(line_addr);
        }
        // A silent fill reshuffles its set (and can even evict a one-way
        // set's resident line). It also moves a line to the head of the
        // fully-associative shadow, so when a shadow exists the previous MRU
        // line is no longer the shadow's most recent entry — the fast path's
        // "re-touch changes no LRU state" argument breaks and the shortcut
        // must be dropped unconditionally.
        if self.shadow.is_some() || set_idx == self.mru_set {
            self.mru_line = NO_LINE;
        }
        let base = set_idx * self.ways;
        let len = self.lens[set_idx] as usize;
        let set = &mut self.entries[base..base + len];
        if let Some(pos) = set.iter().position(|&w| holds(w, line_addr)) {
            let way = set[pos];
            set.copy_within(0..pos, 1);
            set[0] = way;
            return;
        }
        if len < self.ways {
            self.lens[set_idx] = len as u8 + 1;
        }
        let shift = len.min(self.ways - 1);
        let set = &mut self.entries[base..base + self.ways];
        set.copy_within(0..shift, 1);
        set[0] = line_addr | PREFETCHED;
    }

    /// Whether a line is currently resident (no LRU update, no stats).
    pub fn probe(&self, addr: u64) -> bool {
        let line_addr = (addr >> self.line_shift) << self.line_shift;
        let set_idx = self.set_of(addr);
        let base = set_idx * self.ways;
        let len = self.lens[set_idx] as usize;
        self.entries[base..base + len]
            .iter()
            .any(|&w| holds(w, line_addr))
    }
}

/// Way arrays of at least 64 KiB (an LLC's, not an L1's or L2's) are
/// recycled: zeroing a smaller one costs less than the rest of a cache's
/// construction.
const RECYCLE_MIN_WAYS: usize = (64 << 10) / std::mem::size_of::<u64>();

thread_local! {
    /// The way array of the last large cache this thread dropped. A zeroed
    /// allocation of a megabyte-sized LLC array is cheap only the first
    /// time: once freed, the allocator hands the chunk back and must clear
    /// all of it. Runs that build cores back to back (a fuzz case, a tuner
    /// sweep) have one LLC alive at a time.
    static SPARE_WAYS: Cell<Option<Box<[u64]>>> = const { Cell::new(None) };
}

/// A way array of `n` ways: this thread's spare one if it has that size
/// (its stale bits are never read), else a zeroed allocation.
fn take_ways(n: usize) -> Box<[u64]> {
    if n >= RECYCLE_MIN_WAYS {
        if let Some(ways) = SPARE_WAYS.take().filter(|w| w.len() == n) {
            return ways;
        }
    }
    vec![0; n].into_boxed_slice()
}

impl Drop for SetAssocCache {
    fn drop(&mut self) {
        let ways = std::mem::take(&mut self.entries);
        if ways.len() >= RECYCLE_MIN_WAYS {
            // During thread teardown the slot may be gone: then the array
            // is simply freed.
            let _ = SPARE_WAYS.try_with(|spare| spare.set(Some(ways)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512B.
        SetAssocCache::new(CacheGeometry::new(512, 64, 2), true)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access_line(0, false).hit);
        assert!(c.access_line(0, false).hit);
        assert!(c.access_line(63, false).hit, "same line, different offset");
        assert!(!c.access_line(64, false).hit, "next line");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 256, 512 all map to set 0 (stride = 4 sets * 64B).
        c.access_line(0, false);
        c.access_line(256, false);
        c.access_line(0, false); // 0 is now MRU, 256 LRU
        c.access_line(512, false); // evicts 256
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn conflict_classification() {
        let mut c = tiny();
        // Three lines in the same set: set-associative (2-way) thrashes while
        // the 8-line fully-associative shadow retains all three.
        for &a in &[0u64, 256, 512] {
            c.access_line(a, false);
        }
        let r = c.access_line(0, false); // evicted by 512, shadow still holds it
        assert!(!r.hit);
        assert!(r.conflict, "classified as conflict miss");
        assert_eq!(c.stats().conflict_misses, 1);
    }

    #[test]
    fn capacity_miss_not_conflict() {
        let mut c = tiny();
        // Touch 16 distinct lines (2x capacity): revisiting line 0 is a
        // capacity miss — the shadow evicted it too.
        for i in 0..16u64 {
            c.access_line(i * 64, false);
        }
        let r = c.access_line(0, false);
        assert!(!r.hit);
        assert!(!r.conflict, "shadow also evicted it: capacity miss");
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = tiny();
        c.access_line(0, true); // dirty
        c.access_line(256, false);
        let r = c.access_line(512, false); // evicts LRU = line 0 (dirty)
        assert!(r.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn stats_accesses_conserved() {
        let mut c = tiny();
        for i in 0..1000u64 {
            c.access_line((i * 37) % 4096, i % 3 == 0);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 1000);
        assert!(s.conflict_misses <= s.misses);
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = tiny();
        c.access_line(0, false);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn repeated_same_line_accesses_count_hits() {
        // The MRU fast path must update statistics exactly like the slow
        // path: n accesses = 1 miss + (n-1) hits, and a write through the
        // fast path still marks the line dirty (visible as a writeback).
        let mut c = tiny();
        c.access_line(128, false);
        for _ in 0..9 {
            c.access_line(130, false);
        }
        c.access_line(132, true); // fast-path write: marks dirty
        assert_eq!(c.stats().hits, 10);
        assert_eq!(c.stats().misses, 1);
        // Force line 128's eviction (set 2 on this geometry: lines 128+256k).
        c.access_line(128 + 256, false);
        let r = c.access_line(128 + 512, false);
        assert!(r.writeback, "dirty bit set through the fast path");
    }

    #[test]
    fn a_recycled_way_array_starts_empty() {
        // 8192 ways (64 KiB): recycled when its cache drops.
        let geom = CacheGeometry::new(8192 * 64, 64, 2);
        let mut old = SetAssocCache::new(geom, false);
        for i in 0..8192u64 {
            old.access_line(i * 64, true);
        }
        let ways = old.entries.as_ptr();
        drop(old);
        let mut new = SetAssocCache::new(geom, true);
        assert_eq!(new.entries.as_ptr(), ways, "the dropped cache's array");
        assert!((0..8192u64).all(|i| !new.probe(i * 64)), "no line survives");
        let r = new.access_line(0, false);
        assert!(!r.hit && !r.conflict && !r.writeback);
    }

    #[test]
    fn insert_silent_invalidates_mru_shortcut_in_same_set() {
        // One-way cache: a silent fill replaces the set's only line, so a
        // following access to the old line must be a miss.
        let mut c = SetAssocCache::new(CacheGeometry::new(256, 64, 1), false);
        c.access_line(0, false);
        assert!(c.access_line(0, false).hit);
        c.insert_silent(1024); // same set (4 sets: 1024 = set 0), evicts line 0
        assert!(!c.access_line(0, false).hit, "old line was evicted");
    }

    /// Reference fully-associative LRU (the data structure the O(1) shadow
    /// replaced), used to prove behavioural equivalence.
    struct NaiveLru {
        capacity: usize,
        order: Vec<u64>, // front = MRU
    }

    impl NaiveLru {
        fn access(&mut self, line: u64) -> bool {
            let hit = if let Some(p) = self.order.iter().position(|&l| l == line) {
                self.order.remove(p);
                true
            } else {
                false
            };
            self.order.insert(0, line);
            if self.order.len() > self.capacity {
                self.order.pop();
            }
            hit
        }
    }

    #[test]
    fn shadow_matches_naive_lru_on_adversarial_streams() {
        for capacity in [1usize, 2, 3, 8, 64] {
            let mut fast = ShadowLru::new(capacity);
            let mut slow = NaiveLru {
                capacity,
                order: Vec::new(),
            };
            // Deterministic mixed stream: sequential runs, strided sweeps,
            // hot-line re-touches, and pseudo-random jumps — enough churn to
            // exercise eviction, backward-shift deletion and re-insertion.
            let mut x = 0x243F_6A88_85A3_08D3u64;
            for i in 0..20_000u64 {
                let line = match i % 4 {
                    0 => (i / 4 % 97) * 64,
                    1 => (i % 7) * 64,
                    2 => ((i * 37) % 256) * 64,
                    _ => {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % 211) * 64
                    }
                };
                assert_eq!(
                    fast.access(line),
                    slow.access(line),
                    "capacity {capacity}, step {i}, line {line:#x}"
                );
            }
            assert_eq!(fast.len(), slow.order.len());
        }
    }

    #[test]
    fn shadow_capacity_one() {
        let mut s = ShadowLru::new(1);
        assert!(!s.access(0));
        assert!(s.access(0));
        assert!(!s.access(64));
        assert!(!s.access(0), "capacity-1 shadow keeps only the last line");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn non_power_of_two_set_count_stays_correct() {
        // 3 sets x 2 ways x 64B = 384B: the modulo fallback path.
        let mut c = SetAssocCache::new(CacheGeometry::new(384, 64, 2), false);
        assert_eq!(c.geometry().sets(), 3);
        c.access_line(0, false); // set 0
        c.access_line(3 * 64, false); // set 0 again (wraps)
        c.access_line(6 * 64, false); // set 0: evicts line 0
        assert!(!c.probe(0));
        assert!(c.probe(3 * 64));
        assert!(c.probe(6 * 64));
        assert!(!c.access_line(64, false).hit, "set 1 cold");
    }
}
