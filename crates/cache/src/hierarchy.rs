//! A three-level cache hierarchy (L1D -> L2 -> LLC -> memory).
//!
//! The hierarchy is mostly-inclusive and write-allocate at every level. Each
//! access walks down until it finds the line, allocating it in every level on
//! the way back up, and reports the level that serviced the request together
//! with its load-to-use latency.
//!
//! ## Load rounds
//!
//! [`Hierarchy::load_round`] serves a group of scalar loads (one
//! micro-kernel `B_seq` group) as one call, with the latencies that
//! [`Hierarchy::access_line`] would return one by one. When a round's line
//! sequence equals the previous round's, that round was all L1 hits on
//! lines not flagged prefetched, and no L1 access came between, the repeat
//! is all L1 hits again and changes no state but the L1 hit count:
//!
//! * every line of the sequence is L1-resident (hits evict nothing and a
//!   hit on an unflagged line triggers no prefetch fill), and so a
//!   fully-associative shadow of the L1's capacity holds them as its most
//!   recent entries;
//! * after any run of hits, an LRU order is the touched lines by their
//!   last touch, then the untouched ones in their old order. Replaying the
//!   same sequence reproduces the L1 sets' order, the shadow's order and
//!   the MRU shortcut exactly, and clears no prefetch flag (none is set);
//! * reads leave the dirty bits alone, and L2 and the LLC are not reached.
//!
//! LLC-only traffic (vector loads and stores, gathers, scatters, warm-ups)
//! between two rounds keeps the remembered round: it touches no L1 state.
//! Any other [`Hierarchy::access_line`], a [`Hierarchy::flush`] or a
//! [`Hierarchy::set_prefetch_degree`] drops it.

use crate::set_assoc::SetAssocCache;
use crate::stats::HierarchyStats;
use lsv_arch::ArchParams;
use std::cell::RefCell;
use std::rc::Rc;

/// A last-level cache that can be private to one core or shared between
/// the simulated cores of a chip (the SX-Aurora LLC is physically shared;
/// `lsv_conv::multicore` exploits this for the detailed multi-core model).
pub type SharedLlc = Rc<RefCell<SetAssocCache>>;

/// Create a shareable LLC for `arch` (full capacity).
pub fn shared_llc(arch: &ArchParams) -> SharedLlc {
    Rc::new(RefCell::new(SetAssocCache::new(arch.llc, false)))
}

/// The memory level that serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// L1 data cache hit.
    L1,
    /// L2 hit.
    L2,
    /// Last-level cache hit.
    Llc,
    /// Serviced by main memory.
    Mem,
}

/// Outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The level that serviced the request.
    pub level: Level,
    /// Load-to-use latency in cycles for that level.
    pub latency: u64,
    /// The L1 miss (if any) was a conflict miss.
    pub l1_conflict: bool,
}

/// Per-core cache hierarchy.
///
/// The LLC is physically shared between cores on the modelled machine.
/// [`Hierarchy::for_core`] gives one core a private LLC of the full
/// capacity (all 16 MB on SX-Aurora), not a fair share: the representative
/// core of `lsv-conv`'s performance model runs without its peers' LLC
/// traffic. DESIGN.md notes the approximation; the detailed multi-core
/// simulation, which builds every core with
/// [`Hierarchy::for_core_with_llc`] over one shared instance, measures the
/// gap.
#[derive(Debug)]
pub struct Hierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    llc: SharedLlc,
    lat: lsv_arch::MemLatencies,
    line: u64,
    /// Next-line prefetch degree of the scalar L1 (0 disables).
    prefetch_degree: u64,
    /// The line sequence of the last [`Hierarchy::load_round`] while it is
    /// repeatable (see the module docs); empty once dropped.
    round: Vec<u64>,
}

impl Hierarchy {
    /// Build a hierarchy for one core of `arch` with a private, full-capacity
    /// LLC.
    pub fn for_core(arch: &ArchParams) -> Self {
        Self::for_core_with_llc(arch, shared_llc(arch))
    }

    /// Build a per-core hierarchy whose LLC is the given shared instance
    /// (full-capacity, physically shared between cores).
    pub fn for_core_with_llc(arch: &ArchParams, llc: SharedLlc) -> Self {
        Self {
            l1: SetAssocCache::new(arch.l1d, true),
            l2: SetAssocCache::new(arch.l2, false),
            llc,
            lat: arch.lat,
            line: arch.l1d.line as u64,
            prefetch_degree: 2,
            round: Vec::new(),
        }
    }

    /// Disable or change the scalar L1 next-line prefetch degree (used by
    /// the prefetcher ablation bench).
    pub fn set_prefetch_degree(&mut self, degree: u64) {
        self.round.clear();
        self.prefetch_degree = degree;
    }

    /// Access one line. `write` marks it dirty in L1 (write-back propagation
    /// of dirty evictions between levels is tracked as writeback counts, not
    /// as extra latency — see DESIGN.md).
    pub fn access_line(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.round.clear();
        self.walk_line(addr, write).0
    }

    /// Scalar loads of `addrs`, in order: `latencies` receives each one's
    /// latency, exactly as [`Hierarchy::access_line`] per address would
    /// return it and with the same effect on every level. A repeat of the
    /// previous round's line sequence costs O(1) per access in the cache
    /// (see the module docs).
    pub fn load_round<I>(&mut self, addrs: I, latencies: &mut Vec<u64>)
    where
        I: ExactSizeIterator<Item = u64> + Clone,
    {
        let mask = !(self.line - 1);
        let n = addrs.len();
        latencies.clear();
        if n > 0
            && n == self.round.len()
            && addrs.clone().zip(&self.round).all(|(a, &l)| a & mask == l)
        {
            self.l1.count_hits(n as u64);
            latencies.resize(n, self.lat.l1);
            return;
        }
        let mut round = std::mem::take(&mut self.round);
        round.clear();
        round.extend(addrs.map(|a| a & mask));
        let mut repeatable = true;
        latencies.extend(round.iter().map(|&line| {
            let (out, pure_hit) = self.walk_line(line, false);
            repeatable &= pure_hit;
            out.latency
        }));
        if !repeatable {
            round.clear();
        }
        self.round = round;
    }

    /// One line through L1 → L2 → LLC → memory, and whether it was an L1
    /// hit on a line not flagged prefetched (a hit that leaves every level
    /// as it was but for the L1's LRU order and hit count).
    #[inline]
    fn walk_line(&mut self, addr: u64, write: bool) -> (AccessOutcome, bool) {
        let r1 = self.l1.access_line(addr, write);
        if r1.hit {
            if r1.first_hit_on_prefetch {
                // Stream continuation: keep the prefetcher ahead of a
                // sequential/short-stride stream.
                self.issue_prefetches(addr);
            }
            let out = AccessOutcome {
                level: Level::L1,
                latency: self.lat.l1,
                l1_conflict: false,
            };
            return (out, !r1.first_hit_on_prefetch);
        }
        let l1_conflict = r1.conflict;
        // Hardware next-line prefetch: a demand miss trains a fill of the
        // following line(s) into every level, silently (no demand stats).
        self.issue_prefetches(addr);
        let r2 = self.l2.access_line(addr, false);
        let level = if r2.hit {
            Level::L2
        } else if self.llc.borrow_mut().access_line(addr, false).hit {
            Level::Llc
        } else {
            Level::Mem
        };
        let out = AccessOutcome {
            level,
            latency: self.latency_of(level),
            l1_conflict,
        };
        (out, false)
    }

    /// Fill the next `prefetch_degree` lines into every level, silently.
    fn issue_prefetches(&mut self, addr: u64) {
        for d in 1..=self.prefetch_degree {
            let pf = addr + d * self.line;
            self.l1.insert_silent(pf);
            self.l2.insert_silent(pf);
            self.llc.borrow_mut().insert_silent(pf);
        }
    }

    /// Probe the LLC only (used by the banked-gather model: gathers bypass
    /// the scalar L1/L2 on the modelled machine and are serviced by the LLC,
    /// as on SX-Aurora where vector memory instructions talk to the LLC
    /// directly).
    pub fn access_line_llc(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let r = self.llc.borrow_mut().access_line(addr, write);
        if r.hit {
            AccessOutcome {
                level: Level::Llc,
                latency: self.lat.llc,
                l1_conflict: false,
            }
        } else {
            AccessOutcome {
                level: Level::Mem,
                latency: self.lat.mem,
                l1_conflict: false,
            }
        }
    }

    /// Access every line overlapped by `[addr, addr + bytes)` against the
    /// LLC (vector-traffic path, same semantics as calling
    /// [`Hierarchy::access_line_llc`] per line) and return the worst
    /// single-line latency plus the number of lines that missed to memory.
    ///
    /// Borrows the shared LLC cell once for the whole range instead of once
    /// per line — on unit-stride vector loads this is the hottest loop in
    /// the simulator.
    pub fn access_range_llc(&mut self, addr: u64, bytes: u64, write: bool) -> (u64, u64) {
        if bytes == 0 {
            return (0, 0);
        }
        let mut llc = self.llc.borrow_mut();
        let mut worst = 0u64;
        let mut mem_lines = 0u64;
        self.walk_range(
            &mut llc,
            addr,
            bytes,
            write,
            &mut worst,
            &mut mem_lines,
            None,
        );
        (worst, mem_lines)
    }

    /// Strided LLC walk: touch the line under each of `count` elements spaced
    /// `stride_bytes` apart, skipping an element whose line equals the
    /// immediately preceding element's line (sub-line strides touch each line
    /// once per run, matching a per-element walk with consecutive-line
    /// deduplication). Returns the worst latency and memory line count.
    pub fn access_strided_llc(
        &mut self,
        addr: u64,
        stride_bytes: u64,
        count: usize,
        write: bool,
    ) -> (u64, u64) {
        let line = self.line;
        let mut llc = self.llc.borrow_mut();
        let mut worst = 0u64;
        let mut mem_lines = 0u64;
        let mut last_line = u64::MAX;
        for i in 0..count {
            let a = (addr + i as u64 * stride_bytes) & !(line - 1);
            if a != last_line {
                let r = llc.access_line(a, write);
                worst = worst.max(if r.hit { self.lat.llc } else { self.lat.mem });
                if !r.hit {
                    mem_lines += 1;
                }
                last_line = a;
            }
        }
        (worst, mem_lines)
    }

    /// Gather/scatter LLC walk: touch every line of each `[b, b + block_bytes)`
    /// block, appending each touched line address to `lines` (the caller feeds
    /// them to the bank-serialization model). Returns the worst latency and
    /// memory line count.
    pub fn access_blocks_llc(
        &mut self,
        blocks: &[u64],
        block_bytes: u64,
        write: bool,
        lines: &mut Vec<u64>,
    ) -> (u64, u64) {
        let mut llc = self.llc.borrow_mut();
        let mut worst = 0u64;
        let mut mem_lines = 0u64;
        for &b in blocks {
            self.walk_range(
                &mut llc,
                b,
                block_bytes,
                write,
                &mut worst,
                &mut mem_lines,
                Some(lines),
            );
        }
        (worst, mem_lines)
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_range(
        &self,
        llc: &mut SetAssocCache,
        addr: u64,
        bytes: u64,
        write: bool,
        worst: &mut u64,
        mem_lines: &mut u64,
        mut lines: Option<&mut Vec<u64>>,
    ) {
        if bytes == 0 {
            return;
        }
        let line = self.line;
        let first = addr & !(line - 1);
        let last = (addr + bytes - 1) & !(line - 1);
        let mut a = first;
        loop {
            let r = llc.access_line(a, write);
            *worst = (*worst).max(if r.hit { self.lat.llc } else { self.lat.mem });
            if !r.hit {
                *mem_lines += 1;
            }
            if let Some(ls) = lines.as_deref_mut() {
                ls.push(a);
            }
            if a == last {
                break;
            }
            a += line;
        }
    }

    /// Silently fill every line of `[addr, addr + bytes)` into the LLC
    /// (benchmark warm-up), borrowing the shared cell once.
    pub fn warm_llc_range(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let line = self.line;
        let mut llc = self.llc.borrow_mut();
        let mut a = addr & !(line - 1);
        let last = (addr + bytes - 1) & !(line - 1);
        loop {
            llc.insert_silent(a);
            if a == last {
                break;
            }
            a += line;
        }
    }

    /// Snapshot of per-level statistics.
    pub fn stats(&self) -> HierarchyStats {
        let llc = self.llc.borrow().stats();
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            llc,
            mem_fetches: llc.misses,
        }
    }

    /// Drop contents and statistics (cold start).
    pub fn flush(&mut self) {
        self.round.clear();
        self.l1.flush();
        self.l2.flush();
        self.llc.borrow_mut().flush();
    }

    /// The L1 line size in bytes (used by callers to split ranges).
    pub fn line_bytes(&self) -> usize {
        self.l1.geometry().line
    }

    /// Latency of a given level under this hierarchy's timing parameters.
    pub fn latency_of(&self, level: Level) -> u64 {
        match level {
            Level::L1 => self.lat.l1,
            Level::L2 => self.lat.l2,
            Level::Llc => self.lat.llc,
            Level::Mem => self.lat.mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;

    #[test]
    fn miss_walks_down_then_hits_up() {
        let arch = sx_aurora();
        let mut h = Hierarchy::for_core(&arch);
        let first = h.access_line(0x1000, false);
        assert_eq!(first.level, Level::Mem);
        assert_eq!(first.latency, arch.lat.mem);
        let second = h.access_line(0x1000, false);
        assert_eq!(second.level, Level::L1);
        assert_eq!(second.latency, arch.lat.l1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let arch = sx_aurora();
        let mut h = Hierarchy::for_core(&arch);
        // Fill one L1 set (2 ways, 32KB stride) with 3 lines, then revisit.
        h.access_line(0, false);
        h.access_line(32 * 1024, false);
        h.access_line(64 * 1024, false);
        let r = h.access_line(0, false);
        assert_eq!(r.level, Level::L2, "L1 conflict victim still in L2");
        assert!(r.l1_conflict);
    }

    #[test]
    fn stats_mem_fetches_match_llc_misses() {
        let arch = sx_aurora();
        let mut h = Hierarchy::for_core(&arch);
        h.set_prefetch_degree(0);
        for i in 0..100u64 {
            h.access_line(i * 128, false);
        }
        let s = h.stats();
        assert_eq!(s.mem_fetches, 100);
        assert_eq!(s.l1.misses, 100);
    }

    #[test]
    fn next_line_prefetch_hides_sequential_stream() {
        let arch = sx_aurora();
        let mut h = Hierarchy::for_core(&arch);
        for i in 0..99u64 {
            h.access_line(i * 128, false);
        }
        let s = h.stats();
        // Degree-2 next-line prefetch with stream continuation: a sequential
        // stream misses only on its very first line.
        assert_eq!(s.l1.misses, 1, "prefetched stream misses once");
        // A 3-line-stride stream defeats the degree-2 prefetcher entirely.
        let mut h2 = Hierarchy::for_core(&arch);
        for i in 0..50u64 {
            h2.access_line(0x100_0000 + i * 3 * 128, false);
        }
        assert_eq!(h2.stats().l1.misses, 50);
    }

    #[test]
    fn range_llc_matches_per_line_walk() {
        let arch = sx_aurora();
        let mut bulk = Hierarchy::for_core(&arch);
        let mut step = Hierarchy::for_core(&arch);
        // Mixed unaligned ranges, re-touches and a write pass.
        let ranges = [
            (0x2000u64, 1024u64, false),
            (0x2040, 300, false), // re-hits, unaligned start
            (0x9f00, 33, true),   // straddles a line boundary
            (0x2000, 4096, false),
            (0x2000, 0, false), // empty range is free
        ];
        for &(addr, bytes, write) in &ranges {
            let (worst, mem_lines) = bulk.access_range_llc(addr, bytes, write);
            let mut want_worst = 0;
            let mut want_mem = 0;
            if bytes > 0 {
                let line = arch.l1d.line as u64;
                let mut a = addr & !(line - 1);
                let last = (addr + bytes - 1) & !(line - 1);
                loop {
                    let o = step.access_line_llc(a, write);
                    want_worst = want_worst.max(o.latency);
                    if o.level == Level::Mem {
                        want_mem += 1;
                    }
                    if a == last {
                        break;
                    }
                    a += line;
                }
            }
            assert_eq!((worst, mem_lines), (want_worst, want_mem));
        }
        assert_eq!(bulk.stats(), step.stats());
    }
}
