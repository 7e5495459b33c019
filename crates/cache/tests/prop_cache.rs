//! Property tests for the cache simulator: accounting invariants, LRU
//! behaviour, the conflict-miss classifier's defining property, and
//! step-by-step equivalence of `SetAssocCache` with a plain reference model.

use lsv_arch::{ArchParams, CacheGeometry};
use lsv_cache::set_assoc::LineAccess;
use lsv_cache::{Hierarchy, LevelStats, SetAssocCache};
use proptest::prelude::*;

fn small_geom() -> CacheGeometry {
    CacheGeometry::new(1024, 64, 2) // 8 sets x 2 ways
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accounting_conserved(addrs in proptest::collection::vec(0u64..65536, 1..400)) {
        let mut c = SetAssocCache::new(small_geom(), true);
        for &a in &addrs {
            c.access_line(a, a % 3 == 0);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, addrs.len() as u64);
        prop_assert!(s.conflict_misses <= s.misses);
        prop_assert!(s.writebacks <= s.misses);
    }

    #[test]
    fn repeat_access_always_hits(addr in 0u64..65536) {
        let mut c = SetAssocCache::new(small_geom(), false);
        c.access_line(addr, false);
        let r = c.access_line(addr, false);
        prop_assert!(r.hit);
    }

    #[test]
    fn working_set_within_one_set_capacity_never_misses_twice(
        base in 0u64..1024,
        reps in 2usize..6,
    ) {
        // Two lines mapping to the same set fit a 2-way set: after the
        // first touch they hit forever regardless of interleaving.
        let stride = 512u64; // 8 sets x 64B
        let mut c = SetAssocCache::new(small_geom(), false);
        let a = base * 4;
        let b = a + stride;
        c.access_line(a, false);
        c.access_line(b, false);
        for _ in 0..reps {
            prop_assert!(c.access_line(a, false).hit);
            prop_assert!(c.access_line(b, false).hit);
        }
    }

    #[test]
    fn conflict_classification_requires_shadow_hit(
        addrs in proptest::collection::vec(0u64..32768, 1..300),
    ) {
        // A conflict miss can only happen to a line that was touched before
        // (the fully-associative shadow can only retain previously seen
        // lines). First-touch misses are never conflict-classified.
        let mut c = SetAssocCache::new(small_geom(), true);
        let mut seen = std::collections::HashSet::new();
        for &a in &addrs {
            let line = a & !63;
            let r = c.access_line(a, false);
            if r.conflict {
                prop_assert!(seen.contains(&line), "conflict on first touch of {line:#x}");
            }
            seen.insert(line);
        }
    }
}

fn tiny_arch() -> ArchParams {
    let mut a = lsv_arch::presets::sx_aurora();
    a.l1d = CacheGeometry::new(1024, 64, 2);
    a.l2 = CacheGeometry::new(4096, 64, 4);
    a.llc = CacheGeometry::new(16384, 64, 4);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hierarchy_latency_matches_level(addrs in proptest::collection::vec(0u64..8192, 1..200)) {
        let arch = tiny_arch();
        let mut h = Hierarchy::for_core(&arch);
        for &a in &addrs {
            let out = h.access_line(a, false);
            let expected = h.latency_of(out.level);
            prop_assert_eq!(out.latency, expected);
        }
    }

    #[test]
    fn hierarchy_l1_stats_count_all_accesses(addrs in proptest::collection::vec(0u64..8192, 1..200)) {
        let arch = tiny_arch();
        let mut h = Hierarchy::for_core(&arch);
        for &a in &addrs {
            h.access_line(a, false);
        }
        let s = h.stats();
        prop_assert_eq!(s.l1.accesses(), addrs.len() as u64);
        // Inclusive-ish hierarchy: deeper levels see at most the misses of
        // the level above (prefetch fills are silent).
        prop_assert!(s.l2.accesses() <= s.l1.misses);
        prop_assert!(s.llc.accesses() <= s.l2.misses + s.l2.hits);
    }
}

/// Naive fully-associative LRU: the same-capacity shadow the conflict
/// classifier is defined against (front = most recently used).
struct NaiveLru {
    capacity: usize,
    order: Vec<u64>,
}

impl NaiveLru {
    fn access(&mut self, line: u64) -> bool {
        let hit = match self.order.iter().position(|&l| l == line) {
            Some(p) => {
                self.order.remove(p);
                true
            }
            None => false,
        };
        self.order.insert(0, line);
        self.order.truncate(self.capacity);
        hit
    }
}

#[derive(Debug, Clone, Copy)]
struct RefWay {
    line: u64,
    dirty: bool,
    prefetched: bool,
}

/// The straightforward set-associative cache: one `Vec` per set in LRU
/// order (front = most recently used), no packing, no fast paths.
struct RefCache {
    line: u64,
    ways: usize,
    sets: Vec<Vec<RefWay>>,
    shadow: Option<NaiveLru>,
    stats: LevelStats,
}

impl RefCache {
    fn new(geom: CacheGeometry, classify_conflicts: bool) -> Self {
        Self {
            line: geom.line as u64,
            ways: geom.ways,
            sets: vec![Vec::new(); geom.sets()],
            shadow: classify_conflicts.then(|| NaiveLru {
                capacity: geom.lines(),
                order: Vec::new(),
            }),
            stats: LevelStats::default(),
        }
    }

    /// (set index, line address) of a byte address.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line;
        ((line % self.sets.len() as u64) as usize, line * self.line)
    }

    fn access_line(&mut self, addr: u64, write: bool) -> LineAccess {
        let (s, line) = self.locate(addr);
        let shadow_hit = self.shadow.as_mut().is_some_and(|sh| sh.access(line));
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|w| w.line == line) {
            let mut way = set.remove(pos);
            let first_hit_on_prefetch = way.prefetched;
            way.dirty |= write;
            way.prefetched = false;
            set.insert(0, way);
            self.stats.hits += 1;
            return LineAccess {
                hit: true,
                conflict: false,
                writeback: false,
                first_hit_on_prefetch,
            };
        }
        self.stats.misses += 1;
        if shadow_hit {
            self.stats.conflict_misses += 1;
        }
        let writeback = set.len() == self.ways && set.pop().is_some_and(|victim| victim.dirty);
        if writeback {
            self.stats.writebacks += 1;
        }
        set.insert(
            0,
            RefWay {
                line,
                dirty: write,
                prefetched: false,
            },
        );
        LineAccess {
            hit: false,
            conflict: shadow_hit,
            writeback,
            first_hit_on_prefetch: false,
        }
    }

    fn insert_silent(&mut self, addr: u64) {
        let (s, line) = self.locate(addr);
        if let Some(sh) = self.shadow.as_mut() {
            sh.access(line);
        }
        let set = &mut self.sets[s];
        let way = match set.iter().position(|w| w.line == line) {
            Some(pos) => set.remove(pos),
            None => {
                if set.len() == self.ways {
                    set.pop();
                }
                RefWay {
                    line,
                    dirty: false,
                    prefetched: true,
                }
            }
        };
        set.insert(0, way);
    }

    fn probe(&self, addr: u64) -> bool {
        let (s, line) = self.locate(addr);
        self.sets[s].iter().any(|w| w.line == line)
    }
}

/// Direct-mapped, 2-way, non-power-of-two set counts (3 and 5 sets, one
/// with 3 ways), a single fully-associative set, and the smallest line
/// the packed ways allow (4 bytes), once with 8192 ways: a cache that large
/// reuses the way array an earlier case of its size dropped.
fn reference_geometries() -> [CacheGeometry; 7] {
    [
        CacheGeometry::new(256, 64, 1),
        CacheGeometry::new(512, 64, 2),
        CacheGeometry::new(384, 64, 2),
        CacheGeometry::new(960, 64, 3),
        CacheGeometry::new(256, 64, 4),
        CacheGeometry::new(32, 4, 2),
        CacheGeometry::new(8192 * 4, 4, 1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn set_assoc_matches_reference_model(
        geom_idx in 0usize..7,
        shadow in 0u8..2,
        ops in proptest::collection::vec((0u8..8, 0u64..1 << 20), 1..600),
    ) {
        // Ops: 0 read, 1 write, 2 silent (prefetch) fill, 3 probe; 4-7 do the
        // same at the last read or write's address, so re-touches of the MRU
        // line (the fast paths) interleave with fills elsewhere. Addresses
        // span three capacities so sets both hit and thrash.
        let geom = reference_geometries()[geom_idx];
        let span = 3 * geom.size as u64;
        let mut fast = SetAssocCache::new(geom, shadow == 1);
        let mut slow = RefCache::new(geom, shadow == 1);
        let mut last_demand = 0;
        for (step, &(op, raw)) in ops.iter().enumerate() {
            let addr = if op < 4 { raw % span } else { last_demand };
            let op = op % 4;
            if op < 2 {
                last_demand = addr;
            }
            match op {
                0 | 1 => {
                    let got = fast.access_line(addr, op == 1);
                    let want = slow.access_line(addr, op == 1);
                    prop_assert_eq!(got, want, "step {} op {} addr {:#x}", step, op, addr);
                }
                2 => {
                    fast.insert_silent(addr);
                    slow.insert_silent(addr);
                }
                _ => prop_assert_eq!(
                    fast.probe(addr),
                    slow.probe(addr),
                    "step {} probe addr {:#x}",
                    step,
                    addr
                ),
            }
        }
        prop_assert_eq!(fast.stats(), slow.stats);
        for line in 0..span / geom.line as u64 {
            let addr = line * geom.line as u64;
            prop_assert_eq!(fast.probe(addr), slow.probe(addr), "final residency of {:#x}", addr);
        }
    }
}

/// One step between or as load rounds: the op selector, a scalar knob and
/// up to a dozen addresses.
type RoundStep = (u8, usize, Vec<u64>);

/// A hierarchy whose L1 is one fully-associative set of four lines: every
/// prefetch fill and every LRU move shows up in later hits and misses.
fn cramped_arch() -> ArchParams {
    let mut a = tiny_arch();
    a.l1d = CacheGeometry::new(256, 64, 4);
    a.l2 = CacheGeometry::new(1024, 64, 2);
    a.llc = CacheGeometry::new(4096, 64, 4);
    a
}

/// The addresses of a load round. Ops 0-1 draw fresh addresses (in-round
/// duplicate lines are common in the small span); 2 repeats the previous
/// round exactly; 3 repeats its lines at other byte offsets, the next
/// channel of a line-blocked scalar stream; 4 shifts it by one line, onto
/// lines a stream's prefetches filled; 5 walks `k % 6 + 1` consecutive
/// lines from a fresh base, whose first pass trains the prefetcher.
fn round_addrs(op: u8, k: usize, fresh: &[u64], prev: &[u64], line: u64) -> Vec<u64> {
    match op {
        0 | 1 => fresh.to_vec(),
        2 => prev.to_vec(),
        3 => prev
            .iter()
            .map(|&a| (a & !(line - 1)) + (a + 4 * k as u64 + 4) % line)
            .collect(),
        4 => prev.iter().map(|&a| a + line).collect(),
        _ => {
            let base = fresh.first().copied().unwrap_or(0) & !(line - 1);
            (0..=(k % 6) as u64).map(|i| base + i * line).collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // A load round is its per-line `access_line` sequence: equal per-access
    // latencies and equal stats on every level after each step, for rounds
    // that repeat (exactly, or line for line at other offsets), carry
    // in-round duplicate lines or hit prefetched lines, with LLC-only
    // walks, L1 scalar loads and stores, flushes and prefetch-degree
    // changes between rounds, on an 8-set and a one-set L1. A trailing
    // probe stream of loads, stores and rounds then sees equal outcomes, so
    // the repeat fast path leaves no state behind.
    #[test]
    fn load_round_is_the_per_line_access_sequence(
        cramped in 0u8..2,
        steps in proptest::collection::vec(
            (0u8..12, 0usize..64, proptest::collection::vec(0u64..6144, 0..12)),
            1..60,
        ),
        probe in proptest::collection::vec((0u8..3, 0u64..8192), 1..80),
    ) {
        let arch = if cramped == 1 { cramped_arch() } else { tiny_arch() };
        let line = arch.l1d.line as u64;
        let mut fast = Hierarchy::for_core(&arch);
        let mut slow = Hierarchy::for_core(&arch);
        let mut prev: Vec<u64> = Vec::new();
        let mut latencies = Vec::new();
        let round = |fast: &mut Hierarchy, slow: &mut Hierarchy, addrs: &[u64], lat: &mut Vec<u64>| {
            fast.load_round(addrs.iter().copied(), lat);
            let want: Vec<u64> = addrs.iter().map(|&a| slow.access_line(a, false).latency).collect();
            (lat.clone(), want)
        };
        let steps: &[RoundStep] = &steps;
        for (step, (op, k, addrs)) in steps.iter().enumerate() {
            let a0 = addrs.first().copied().unwrap_or(0);
            match op {
                0..=5 => {
                    let addrs = round_addrs(*op, *k, addrs, &prev, line);
                    let (got, want) = round(&mut fast, &mut slow, &addrs, &mut latencies);
                    prop_assert_eq!(got, want, "step {} round {:?}", step, addrs);
                    prev = addrs;
                }
                6 => {
                    // LLC-only traffic: ranges, strided and block walks,
                    // single lines and warm-ups.
                    let bytes = (k * 37) as u64;
                    prop_assert_eq!(
                        fast.access_range_llc(a0, bytes, k % 2 == 1),
                        slow.access_range_llc(a0, bytes, k % 2 == 1)
                    );
                    prop_assert_eq!(
                        fast.access_strided_llc(a0, 4 + (k % 5) as u64 * 60, k % 9, false),
                        slow.access_strided_llc(a0, 4 + (k % 5) as u64 * 60, k % 9, false)
                    );
                    let (mut lf, mut ls) = (Vec::new(), Vec::new());
                    prop_assert_eq!(
                        fast.access_blocks_llc(addrs, 48, k % 3 == 0, &mut lf),
                        slow.access_blocks_llc(addrs, 48, k % 3 == 0, &mut ls)
                    );
                    prop_assert_eq!(lf, ls);
                    prop_assert_eq!(fast.access_line_llc(a0, false), slow.access_line_llc(a0, false));
                    fast.warm_llc_range(a0 + 2048, bytes);
                    slow.warm_llc_range(a0 + 2048, bytes);
                }
                7 | 8 => {
                    // L1 scalar loads (7) or stores (8), some on the
                    // previous round's lines.
                    for (i, &a) in addrs.iter().enumerate() {
                        let a = if i % 2 == 0 { prev.get(i).copied().unwrap_or(a) } else { a };
                        prop_assert_eq!(fast.access_line(a, *op == 8), slow.access_line(a, *op == 8));
                    }
                }
                9 => {
                    fast.flush();
                    slow.flush();
                }
                _ => {
                    fast.set_prefetch_degree((k % 4) as u64);
                    slow.set_prefetch_degree((k % 4) as u64);
                }
            }
            prop_assert_eq!(fast.stats(), slow.stats(), "step {} op {}", step, op);
        }
        for (i, &(op, a)) in probe.iter().enumerate() {
            match op {
                0 | 1 => prop_assert_eq!(
                    fast.access_line(a, op == 1),
                    slow.access_line(a, op == 1),
                    "probe {} at {:#x}", i, a
                ),
                _ => {
                    let addrs: Vec<u64> = prev.iter().map(|&p| p ^ (a & 64)).collect();
                    let (got, want) = round(&mut fast, &mut slow, &addrs, &mut latencies);
                    prop_assert_eq!(got, want, "probe round {}", i);
                    prev = addrs;
                }
            }
        }
        prop_assert_eq!(fast.stats(), slow.stats());
    }
}
