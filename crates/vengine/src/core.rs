//! The simulated vector core: functional register file + issue-order
//! timing scoreboard + cache-aware memory system.
//!
//! ## Core kinds
//!
//! Every core *counts* the instruction stream ([`InstCounters`]). On top of
//! that a core *times* it or not, and *computes* it or not:
//!
//! | | functional (registers and arena data) | data-free ([`ExecutionMode::TimingOnly`]) |
//! |---|---|---|
//! | **timed** ([`VCore::new`]) | tests, profiling, the fuzz harness's mode check | every simulated cycle of a sweep, tuner or model |
//! | **untimed** ([`VCore::new_untimed`]) | validation: outputs and counters, no cycles | the counting core ([`VCore::new_counting`]) of the tuner's instruction bound |
//!
//! Any kind can also record a trace ([`VCore::enable_trace`]); the
//! introspection core ([`VCore::new_introspect`]) is a tracing counting
//! core. Each instruction method runs in one order: count, trace, time if
//! timed, compute if functional. An untimed core has no scoreboard and a
//! one-line-per-level stub hierarchy, so `drain().cycles` and every cache
//! counter are 0, while its registers, arena contents and counters equal a
//! timed core's of the same mode.
//!
//! ## Pipeline model
//!
//! The core has two coupled pipelines, mirroring the SX-Aurora organization
//! (a scalar processor that decodes everything and dispatches vector work to
//! a deep vector-unit queue):
//!
//! * **Frontend / scalar pipe** — issues `scalar_issue_width` instructions
//!   per cycle in program order. Scalar loads are non-blocking
//!   (scoreboarded), but an instruction that *consumes* a scalar value —
//!   e.g. the broadcast operand of a vector FMA — blocks the frontend until
//!   the value is ready. This is what exposes L1 conflict-miss latency in
//!   the DC kernels (paper Section 5.2: "the SIMD lanes starve waiting on
//!   data dependencies from L1").
//! * **Vector pipe** — vector instructions are queued and start in order;
//!   each waits for its source registers and for a free FMA port. A length-
//!   `vl` instruction occupies its port for `ceil(vl/lanes)` cycles and its
//!   destination is ready `occupancy + L_fma` cycles after start. Dependent
//!   FMAs on the same accumulator therefore need `occupancy + L_fma` cycles
//!   of independent work in between — the Formula 1/2/4 mechanism.
//!
//! Vector memory instructions bypass the scalar L1/L2 and are serviced by
//! the LLC (the SX-Aurora vector unit has no L1 allocation for vector
//! accesses); scalar loads walk L1 → L2 → LLC → memory.

use crate::arena::Arena;
use crate::profile::{Profiler, RegionProfile, Snapshot};
use lsv_arch::{ArchParams, CacheGeometry};
use lsv_cache::{banks, Hierarchy, HierarchyStats, Level};

/// Whether to perform the functional f32 arithmetic alongside timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Compute real values (tests, validation).
    Functional,
    /// Addresses and timing only; register data is not moved (fast sweeps).
    TimingOnly,
}

impl ExecutionMode {
    /// Whether this mode computes real register/memory values (as opposed to
    /// timing alone). Execution backends use this to decide if a simulated
    /// run's output buffers are meaningful.
    pub fn is_functional(self) -> bool {
        matches!(self, ExecutionMode::Functional)
    }
}

/// A scalar value produced by [`VCore::scalar_load`]: the loaded f32 plus the
/// cycle at which it becomes available to consumers.
#[derive(Debug, Clone, Copy)]
pub struct ScalarValue {
    /// The loaded value (0.0 in timing-only mode).
    pub value: f32,
    /// Cycle at which a consumer may read it.
    pub ready: u64,
}

impl ScalarValue {
    /// An immediate constant (ready at cycle 0).
    pub fn constant(value: f32) -> Self {
        Self { value, ready: 0 }
    }
}

/// Dynamic instruction counters (the "kilo instructions" of MPKI).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InstCounters {
    /// Scalar loads issued.
    pub scalar_loads: u64,
    /// Scalar ALU/address instructions issued.
    pub scalar_ops: u64,
    /// Unit-stride vector loads.
    pub vloads: u64,
    /// Unit-stride vector stores.
    pub vstores: u64,
    /// Vector FMA instructions.
    pub vfmas: u64,
    /// Block gathers.
    pub gathers: u64,
    /// Block scatters.
    pub scatters: u64,
    /// Total f32 multiply-add element operations performed (2 flops each).
    pub fma_elems: u64,
}

impl InstCounters {
    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.scalar_loads
            + self.scalar_ops
            + self.vloads
            + self.vstores
            + self.vfmas
            + self.gathers
            + self.scatters
    }

    /// The fewest cycles a core of frontend width `scalar_issue_width` can
    /// report after issuing these instructions: `ceil(total / width) - 1`
    /// (the issue-slot invariant on [`VCore`]).
    pub fn issue_cycles_lower_bound(&self, scalar_issue_width: usize) -> u64 {
        self.total()
            .div_ceil(scalar_issue_width.max(1) as u64)
            .saturating_sub(1)
    }

    /// Accumulate counters from another core.
    pub fn merge(&mut self, o: &InstCounters) {
        self.scalar_loads += o.scalar_loads;
        self.scalar_ops += o.scalar_ops;
        self.vloads += o.vloads;
        self.vstores += o.vstores;
        self.vfmas += o.vfmas;
        self.gathers += o.gathers;
        self.scatters += o.scatters;
        self.fma_elems += o.fma_elems;
    }
}

/// One retired instruction in the optional trace (see [`VCore::enable_trace`]).
///
/// Memory events carry the base address, the byte `span` of the whole access
/// footprint (`[addr, addr + span)`, including any internal stride gaps), and
/// the arena [`Region`](crate::Region) index the base address falls in —
/// `None` when the address lies outside every recorded allocation. The
/// `lsv-analyze` bounds sanitizer replays kernels with tracing on and checks
/// each footprint against the owning tensor's extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Scalar ALU / address instruction.
    ScalarOp,
    /// Scalar load from `addr`.
    ScalarLoad {
        /// Byte address read.
        addr: u64,
        /// Arena region containing `addr`, if any.
        region: Option<u32>,
    },
    /// Scalar store to `addr`.
    ScalarStore {
        /// Byte address written.
        addr: u64,
        /// Arena region containing `addr`, if any.
        region: Option<u32>,
    },
    /// Unit-stride / 2-D / strided vector load into `vr`.
    VLoad {
        /// Destination vector register.
        vr: usize,
        /// First byte address of the footprint.
        addr: u64,
        /// Footprint size in bytes (stride gaps included).
        span: u64,
        /// Arena region containing `addr`, if any.
        region: Option<u32>,
        /// Vector length in elements.
        vl: usize,
    },
    /// Vector store from `vr`.
    VStore {
        /// Source vector register.
        vr: usize,
        /// First byte address of the footprint.
        addr: u64,
        /// Footprint size in bytes (stride gaps included).
        span: u64,
        /// Arena region containing `addr`, if any.
        region: Option<u32>,
        /// Vector length in elements.
        vl: usize,
    },
    /// Register `vr` zeroed (accumulator init, no memory access).
    VZero {
        /// Zeroed vector register.
        vr: usize,
        /// Vector length in elements.
        vl: usize,
    },
    /// Vector FMA writing accumulator `acc` from multiplicand register `w`
    /// (and, for the register-register form, second multiplicand `w2`).
    VFma {
        /// Accumulator register (read-modify-write).
        acc: usize,
        /// Vector multiplicand register.
        w: usize,
        /// Second vector multiplicand (`None` for the broadcast-scalar form).
        w2: Option<usize>,
        /// Vector length in elements.
        vl: usize,
    },
    /// Horizontal reduction of `vr` to a scalar (drains the accumulator).
    VReduce {
        /// Reduced vector register.
        vr: usize,
        /// Vector length in elements.
        vl: usize,
    },
    /// Block gather into `vr`.
    VGather {
        /// Destination vector register.
        vr: usize,
        /// Lowest block base address.
        addr: u64,
        /// Bytes from the lowest block base to the end of the highest block.
        span: u64,
        /// Arena region containing `addr`, if any.
        region: Option<u32>,
        /// Vector length in elements.
        vl: usize,
    },
    /// Block scatter from `vr`.
    VScatter {
        /// Source vector register.
        vr: usize,
        /// Lowest block base address.
        addr: u64,
        /// Bytes from the lowest block base to the end of the highest block.
        span: u64,
        /// Arena region containing `addr`, if any.
        region: Option<u32>,
        /// Vector length in elements.
        vl: usize,
    },
}

/// Aggregate result of a simulated kernel execution on one core.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Total cycles from reset to drain.
    pub cycles: u64,
    /// Dynamic instruction counts.
    pub insts: InstCounters,
    /// Cache hierarchy counters.
    pub cache: HierarchyStats,
    /// Cycles the frontend spent blocked waiting on scalar load data.
    pub stall_scalar: u64,
    /// Cycles vector instructions waited on source registers.
    pub stall_dep: u64,
    /// Cycles vector instructions waited on a free FMA port.
    pub stall_port: u64,
    /// Extra cycles gathers/scatters spent serialized on LLC banks.
    pub bank_serial_cycles: u64,
}

/// Labels of the stall categories, in [`CoreStats::stall_breakdown`] order.
/// Every renderer (probe/report bins, the profiler exports) uses these so the
/// categories stay consistent across the repo.
pub const STALL_LABELS: [&str; 4] = ["stall_scalar", "stall_dep", "stall_port", "bank"];

/// Pair the four stall counters with [`STALL_LABELS`].
pub(crate) fn stall_breakdown_of(
    stall_scalar: u64,
    stall_dep: u64,
    stall_port: u64,
    bank_serial_cycles: u64,
) -> [(&'static str, u64); 4] {
    [
        (STALL_LABELS[0], stall_scalar),
        (STALL_LABELS[1], stall_dep),
        (STALL_LABELS[2], stall_port),
        (STALL_LABELS[3], bank_serial_cycles),
    ]
}

impl CoreStats {
    /// The stall counters as named (label, cycles) pairs — the single source
    /// of truth for rendering stall categories.
    pub fn stall_breakdown(&self) -> [(&'static str, u64); 4] {
        stall_breakdown_of(
            self.stall_scalar,
            self.stall_dep,
            self.stall_port,
            self.bank_serial_cycles,
        )
    }
}

/// Per-instruction timing constants of a broadcast FMA of one vector length
/// (computed once per [`VCore::fma_bcast_group`]).
#[derive(Debug, Clone, Copy)]
struct FmaTiming {
    /// Port occupancy, `ceil(vl / lanes_per_port)`.
    occ: u64,
    /// FMA latency after the occupancy.
    l_fma: u64,
    /// Cycles before its ready time a scalar operand may be consumed.
    window: u64,
}

/// The simulated core. One `VCore` models one hardware core; multi-core runs
/// instantiate several over the same [`Arena`].
///
/// # Issue-slot invariant
///
/// Every instruction counted in [`InstCounters::total`] claims exactly one
/// frontend issue slot, `scalar_issue_width` of them per cycle. A blocked
/// frontend (a `vfma_bcast` waiting on its scalar operand) gives up the rest
/// of its cycle's slots but moves the frontier forward by at least one
/// cycle, so `width * frontier + slots_used` never falls behind the number
/// of instructions issued. Hence, for any instruction stream,
/// `drain().cycles >= ceil(insts.total() / scalar_issue_width) - 1`
/// ([`InstCounters::issue_cycles_lower_bound`]). An untimed core
/// ([`VCore::new_untimed`], [`VCore::new_counting`]) produces the same
/// counters without timing the stream, which makes that bound cheap to get.
#[derive(Debug)]
pub struct VCore {
    arch: ArchParams,
    mode: ExecutionMode,
    hier: Hierarchy,
    // --- frontend state ---
    frontier: u64,
    slots_used: usize,
    // --- vector pipe state (empty on an untimed core) ---
    vreg_ready: Vec<u64>,
    ports: Vec<u64>,
    vpipe_last_start: u64,
    // --- functional register file ---
    /// Architected vector length (elements per register).
    vlen: usize,
    /// Flat register arena: register `vr` owns `[vr * vlen, (vr + 1) * vlen)`.
    /// Empty in [`ExecutionMode::TimingOnly`]. One allocation for the whole
    /// file — per-instruction paths only ever borrow slices of it.
    vregs: Vec<f32>,
    /// Reusable line-address buffer for the gather/scatter banking model
    /// (grown once, then recycled via `mem::take` on every call).
    line_scratch: Vec<u64>,
    /// Reusable per-load latency buffer of a timed `fma_bcast_group`.
    lat_scratch: Vec<u64>,
    // --- accounting ---
    /// Whether the core times the stream: walks the cache hierarchy and
    /// the scoreboard. An untimed core only counts, traces and (when
    /// functional) computes.
    timed: bool,
    trace: Option<Vec<TraceEvent>>,
    profiler: Option<Box<Profiler>>,
    counters: InstCounters,
    stall_scalar: u64,
    stall_dep: u64,
    stall_port: u64,
    bank_serial_cycles: u64,
}

impl VCore {
    /// Build a core for `arch` with a private, full-capacity LLC (see
    /// [`Hierarchy::for_core`]).
    pub fn new(arch: &ArchParams, mode: ExecutionMode) -> Self {
        Self::with_hierarchy(arch, mode, Hierarchy::for_core(arch), true)
    }

    /// Build a core whose LLC is a shared instance (the detailed multi-core
    /// model: every core's misses and fills land in the same physical LLC).
    pub fn new_with_shared_llc(
        arch: &ArchParams,
        mode: ExecutionMode,
        llc: lsv_cache::SharedLlc,
    ) -> Self {
        Self::with_hierarchy(arch, mode, Hierarchy::for_core_with_llc(arch, llc), true)
    }

    fn with_hierarchy(
        arch: &ArchParams,
        mode: ExecutionMode,
        hier: Hierarchy,
        timed: bool,
    ) -> Self {
        let n_vlen = arch.n_vlen();
        let vregs = match mode {
            ExecutionMode::Functional => vec![0.0; n_vlen * arch.n_vregs],
            ExecutionMode::TimingOnly => Vec::new(),
        };
        let scoreboard = |n: usize| if timed { vec![0; n] } else { Vec::new() };
        Self {
            hier,
            timed,
            trace: None,
            profiler: None,
            vreg_ready: scoreboard(arch.n_vregs),
            ports: scoreboard(arch.n_fma),
            vpipe_last_start: 0,
            vlen: n_vlen,
            vregs,
            line_scratch: Vec::new(),
            lat_scratch: Vec::new(),
            frontier: 0,
            slots_used: 0,
            counters: InstCounters::default(),
            stall_scalar: 0,
            stall_dep: 0,
            stall_port: 0,
            bank_serial_cycles: 0,
            mode,
            arch: arch.clone(),
        }
    }

    /// Build a core that counts and, in [`ExecutionMode::Functional`],
    /// computes the instruction stream without timing it: no cache
    /// hierarchy walk, no scoreboard. Its registers, arena contents and
    /// [`InstCounters`] equal those of [`VCore::new`] in the same mode fed
    /// the same stream; `drain().cycles` and every cache counter stay 0.
    /// Validation runs here, as benchdnn's correctness mode runs a kernel
    /// without timing it.
    pub fn new_untimed(arch: &ArchParams, mode: ExecutionMode) -> Self {
        // The hierarchy is never accessed: one line per level stands in for
        // caches that would cost megabytes to build.
        let mut stub = arch.clone();
        for level in [&mut stub.l1d, &mut stub.l2, &mut stub.llc] {
            *level = CacheGeometry::new(level.line, level.line, 1);
        }
        Self::with_hierarchy(arch, mode, Hierarchy::for_core(&stub), false)
    }

    /// Build a core that only *counts* the instruction stream: the untimed,
    /// data-free core. Its counters equal those of a timing core fed the
    /// same stream, and [`VCore::scalar_ops`] and
    /// [`VCore::fma_bcast_group`] add their counts in O(1). The counters
    /// bound a timing core's cycles through the issue-slot invariant.
    pub fn new_counting(arch: &ArchParams) -> Self {
        Self::new_untimed(arch, ExecutionMode::TimingOnly)
    }

    /// Build a core that only *records* the instruction stream: a counting
    /// core with a trace. Every instruction is traced with its operands,
    /// footprint, and arena region. This is the stream-introspection hook
    /// the `lsv-analyze` symbolic lift runs kernels through — orders of
    /// magnitude cheaper than a simulated replay, and deliberately
    /// permissive: illegal register indices or vector lengths are recorded
    /// (so the analyzer can *deny* them) instead of asserting.
    pub fn new_introspect(arch: &ArchParams) -> Self {
        let mut core = Self::new_counting(arch);
        core.trace = Some(Vec::new());
        core
    }

    /// Whether this core times the stream ([`VCore::new`],
    /// [`VCore::new_with_shared_llc`]) rather than only counting and
    /// computing it ([`VCore::new_untimed`] and the cores built on it).
    pub fn is_timed(&self) -> bool {
        self.timed
    }

    /// Take ownership of the recorded trace, leaving tracing enabled with an
    /// empty buffer (so one introspect core can record several streams).
    pub fn take_trace(&mut self) -> Option<Vec<TraceEvent>> {
        self.trace.replace(Vec::new())
    }

    /// The architecture this core models.
    pub fn arch(&self) -> &ArchParams {
        &self.arch
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Record every retired instruction into an in-memory trace (testing /
    /// kernel-structure inspection; costs memory proportional to the run).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded trace, if [`VCore::enable_trace`] was called.
    pub fn trace(&self) -> Option<&[TraceEvent]> {
        self.trace.as_deref()
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }

    /// Region lookup for trace tagging; skipped entirely when tracing is off
    /// so the hot path pays nothing for the richer events.
    #[inline]
    fn trace_region(&self, arena: &Arena, addr: u64) -> Option<u32> {
        if self.trace.is_some() {
            arena.region_of(addr)
        } else {
            None
        }
    }

    // ---------------------------------------------------------------- profiling

    /// Attribute cycles, stalls, instructions, and cache events to named
    /// kernel regions (see [`crate::profile`]). Profiling is cycle-neutral:
    /// region markers never touch the timing state, so enabling it changes no
    /// simulated result. Disabled (the default), each marker costs one branch.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Box::new(Profiler::new()));
    }

    /// Whether [`VCore::enable_profiler`] was called (and the profile not yet
    /// taken).
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Capture every monotonic counter plus the current timing horizon — the
    /// same maximum [`VCore::drain`] reports as total cycles.
    fn profile_snapshot(&self, horizon: u64) -> Snapshot {
        Snapshot {
            horizon,
            stall_scalar: self.stall_scalar,
            stall_dep: self.stall_dep,
            stall_port: self.stall_port,
            bank_serial_cycles: self.bank_serial_cycles,
            insts: self.counters,
            cache: self.hier.stats(),
        }
    }

    /// Enter a named profiling region (nestable). No-op unless
    /// [`VCore::enable_profiler`] was called.
    #[inline]
    pub fn region_enter(&mut self, name: &'static str) {
        if self.profiler.is_none() {
            return;
        }
        let snap = self.profile_snapshot(self.horizon());
        if let Some(p) = self.profiler.as_mut() {
            p.enter(name, snap);
        }
    }

    /// Exit the innermost profiling region. No-op unless
    /// [`VCore::enable_profiler`] was called.
    #[inline]
    pub fn region_exit(&mut self) {
        if self.profiler.is_none() {
            return;
        }
        let snap = self.profile_snapshot(self.horizon());
        if let Some(p) = self.profiler.as_mut() {
            p.exit(snap);
        }
    }

    /// Drain the core and take the finished profile. Returns `None` if the
    /// profiler was never enabled. `profile.total` holds the same
    /// [`CoreStats`] a plain [`VCore::drain`] would return.
    pub fn take_profile(&mut self) -> Option<RegionProfile> {
        let total = self.drain();
        self.profiler.take().map(|p| p.finish(total))
    }

    // ---------------------------------------------------------------- frontend

    /// Claim one frontend issue slot, returning the issue cycle.
    #[inline]
    fn issue_slot(&mut self) -> u64 {
        if self.slots_used >= self.arch.scalar_issue_width {
            self.frontier += 1;
            self.slots_used = 0;
        }
        self.slots_used += 1;
        self.frontier
    }

    /// Block the frontend until `cycle` (operand-use stall).
    #[inline]
    fn block_frontend(&mut self, cycle: u64, kind_scalar: bool) {
        if cycle > self.frontier {
            let d = cycle - self.frontier;
            if kind_scalar {
                self.stall_scalar += d;
            }
            self.frontier = cycle;
            self.slots_used = 0;
        }
    }

    /// One scalar ALU / address-update instruction.
    #[inline]
    pub fn scalar_op(&mut self) {
        self.counters.scalar_ops += 1;
        self.record(TraceEvent::ScalarOp);
        if self.timed {
            self.issue_slot();
        }
    }

    /// `n` scalar ALU instructions (loop bookkeeping). Equivalent to `n`
    /// [`VCore::scalar_op`] calls, but the frontier advances arithmetically
    /// in O(1) instead of claiming issue slots one at a time.
    #[inline]
    pub fn scalar_ops(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        if self.trace.is_some() {
            for _ in 0..n {
                self.scalar_op();
            }
            return;
        }
        self.counters.scalar_ops += n as u64;
        if self.timed {
            let w = self.arch.scalar_issue_width;
            let total = self.slots_used + n - 1;
            self.frontier += (total / w) as u64;
            self.slots_used = total % w + 1;
        }
    }

    /// A scalar load through L1 → L2 → LLC → memory.
    #[inline]
    pub fn scalar_load(&mut self, arena: &Arena, addr: u64) -> ScalarValue {
        self.counters.scalar_loads += 1;
        let region = self.trace_region(arena, addr);
        self.record(TraceEvent::ScalarLoad { addr, region });
        let ready = if self.timed {
            let t = self.issue_slot();
            t + self.hier.access_line(addr, false).latency
        } else {
            0
        };
        let value = match self.mode {
            ExecutionMode::Functional => arena.read(addr),
            ExecutionMode::TimingOnly => 0.0,
        };
        ScalarValue { value, ready }
    }

    /// A scalar store through the data-cache hierarchy.
    #[inline]
    pub fn scalar_store(&mut self, arena: &mut Arena, addr: u64, value: f32) {
        self.counters.scalar_ops += 1;
        let region = self.trace_region(arena, addr);
        self.record(TraceEvent::ScalarStore { addr, region });
        if self.timed {
            self.issue_slot();
            self.hier.access_line(addr, true);
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            arena.write(addr, value);
        }
    }

    // ------------------------------------------------------------- vector pipe

    /// Start a vector instruction on the vector pipe: waits for in-order
    /// start, source registers, and (if `use_port`) a free FMA port.
    /// Returns (start_cycle, port_index or usize::MAX).
    fn vpipe_start(&mut self, dispatch: u64, srcs_ready: u64, use_port: bool) -> (u64, usize) {
        let mut start = dispatch.max(self.vpipe_last_start);
        if srcs_ready > start {
            self.stall_dep += srcs_ready - start;
            start = srcs_ready;
        }
        let port = if use_port {
            let mut idx = 0;
            let mut free = self.ports[0];
            for (i, &f) in self.ports.iter().enumerate().skip(1) {
                if f < free {
                    idx = i;
                    free = f;
                }
            }
            if free > start {
                self.stall_port += free - start;
                start = free;
            }
            idx
        } else {
            usize::MAX
        };
        self.vpipe_last_start = start;
        (start, port)
    }

    /// Touch every line of `[addr, addr+bytes)` at the LLC; returns the
    /// worst serviced latency and the number of lines that went to memory.
    #[inline]
    fn touch_llc_range(&mut self, addr: u64, bytes: u64, write: bool) -> (u64, u64) {
        self.hier.access_range_llc(addr, bytes, write)
    }

    /// Borrow register `vr`'s live prefix (functional mode only).
    #[inline]
    fn reg(&self, vr: usize, vl: usize) -> &[f32] {
        &self.vregs[vr * self.vlen..vr * self.vlen + vl]
    }

    /// Mutably borrow register `vr`'s live prefix (functional mode only).
    #[inline]
    fn reg_mut(&mut self, vr: usize, vl: usize) -> &mut [f32] {
        &mut self.vregs[vr * self.vlen..vr * self.vlen + vl]
    }

    /// Charge main-memory bandwidth: vector transfers of lines that missed
    /// all caches occupy the memory pipe for `mem_line_cycles` per line.
    #[inline]
    fn charge_mem_bw(&mut self, start: u64, mem_lines: u64) -> u64 {
        let bw = mem_lines * self.arch.mem_line_cycles;
        if bw > 0 {
            self.vpipe_last_start = self.vpipe_last_start.max(start + bw);
        }
        bw
    }

    fn assert_vr(&self, vr: usize, vl: usize) {
        if !self.timed && !self.mode.is_functional() {
            // Introspection deliberately records illegal operands so the
            // symbolic analyzer can deny them (VL-EXCEEDS, REG-PRESSURE)
            // instead of the simulator asserting.
            return;
        }
        debug_assert!(vr < self.arch.n_vregs, "vector register {vr} out of range");
        debug_assert!(vl >= 1 && vl <= self.arch.n_vlen(), "vl {vl} out of range");
    }

    /// Unit-stride vector load of `vl` elements into register `vr`.
    ///
    /// Serviced by the LLC (vector memory accesses bypass the scalar L1/L2 on
    /// the modelled machine); charges the worst line's latency once plus the
    /// port-free occupancy (streaming transfer).
    pub fn vload(&mut self, arena: &Arena, vr: usize, addr: u64, vl: usize) {
        self.assert_vr(vr, vl);
        self.counters.vloads += 1;
        let region = self.trace_region(arena, addr);
        self.record(TraceEvent::VLoad {
            vr,
            addr,
            span: (vl * 4) as u64,
            region,
            vl,
        });
        if self.timed {
            let dispatch = self.issue_slot();
            let (worst, mem_lines) = self.touch_llc_range(addr, (vl * 4) as u64, false);
            let (start, _) = self.vpipe_start(dispatch, 0, false);
            let occ = self.arch.vector_occupancy(vl);
            let bw = self.charge_mem_bw(start, mem_lines);
            self.vreg_ready[vr] = start + worst + occ + bw;
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            let src = arena.slice(addr, vl);
            self.reg_mut(vr, vl).copy_from_slice(src);
        }
    }

    /// Unit-stride vector store of `vl` elements from register `vr`.
    pub fn vstore(&mut self, arena: &mut Arena, vr: usize, addr: u64, vl: usize) {
        self.assert_vr(vr, vl);
        self.counters.vstores += 1;
        let region = self.trace_region(arena, addr);
        self.record(TraceEvent::VStore {
            vr,
            addr,
            span: (vl * 4) as u64,
            region,
            vl,
        });
        if self.timed {
            let dispatch = self.issue_slot();
            let (_worst, mem_lines) = self.touch_llc_range(addr, (vl * 4) as u64, true);
            let srcs = self.vreg_ready[vr];
            let (start, _) = self.vpipe_start(dispatch, srcs, false);
            self.charge_mem_bw(start, mem_lines);
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            // `vregs` and the arena are distinct objects: the register file
            // is borrowed in place, no staging copy.
            arena.store_slice(addr, &self.vregs[vr * self.vlen..vr * self.vlen + vl]);
        }
    }

    /// Two-dimensional vector load (the SX-Aurora `vld2d` style used by
    /// vendor libraries): `rows` segments of `row_elems` contiguous elements
    /// each, consecutive segments `row_stride_bytes` apart, concatenated
    /// into `vr`. Serviced by the LLC like all vector memory accesses.
    pub fn vload_rows(
        &mut self,
        arena: &Arena,
        vr: usize,
        addr: u64,
        row_elems: usize,
        row_stride_bytes: u64,
        rows: usize,
    ) {
        let vl = row_elems * rows;
        self.assert_vr(vr, vl);
        self.counters.vloads += 1;
        let region = self.trace_region(arena, addr);
        self.record(TraceEvent::VLoad {
            vr,
            addr,
            span: (rows as u64 - 1) * row_stride_bytes + (row_elems * 4) as u64,
            region,
            vl,
        });
        if self.timed {
            let dispatch = self.issue_slot();
            let mut worst = 0u64;
            let mut mem_lines = 0u64;
            for r in 0..rows {
                let base = addr + r as u64 * row_stride_bytes;
                let (w, m) = self.touch_llc_range(base, (row_elems * 4) as u64, false);
                worst = worst.max(w);
                mem_lines += m;
            }
            let (start, _) = self.vpipe_start(dispatch, 0, false);
            let occ = self.arch.vector_occupancy(vl);
            let bw = self.charge_mem_bw(start, mem_lines);
            self.vreg_ready[vr] = start + worst + occ + bw;
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            let dst = self.reg_mut(vr, vl);
            for r in 0..rows {
                let base = addr + r as u64 * row_stride_bytes;
                let src = arena.slice(base, row_elems);
                dst[r * row_elems..(r + 1) * row_elems].copy_from_slice(src);
            }
        }
    }

    /// Two-dimensional vector store: the inverse of [`VCore::vload_rows`].
    pub fn vstore_rows(
        &mut self,
        arena: &mut Arena,
        vr: usize,
        addr: u64,
        row_elems: usize,
        row_stride_bytes: u64,
        rows: usize,
    ) {
        let vl = row_elems * rows;
        self.assert_vr(vr, vl);
        self.counters.vstores += 1;
        let region = self.trace_region(arena, addr);
        self.record(TraceEvent::VStore {
            vr,
            addr,
            span: (rows as u64 - 1) * row_stride_bytes + (row_elems * 4) as u64,
            region,
            vl,
        });
        if self.timed {
            let dispatch = self.issue_slot();
            let mut mem_lines = 0u64;
            for r in 0..rows {
                let base = addr + r as u64 * row_stride_bytes;
                let (_w, m) = self.touch_llc_range(base, (row_elems * 4) as u64, true);
                mem_lines += m;
            }
            let srcs = self.vreg_ready[vr];
            let (start, _) = self.vpipe_start(dispatch, srcs, false);
            self.charge_mem_bw(start, mem_lines);
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            let src = &self.vregs[vr * self.vlen..vr * self.vlen + vl];
            for r in 0..rows {
                let base = addr + r as u64 * row_stride_bytes;
                arena.store_slice(base, &src[r * row_elems..(r + 1) * row_elems]);
            }
        }
    }

    /// Strided vector load: `count` elements spaced `stride_bytes` apart
    /// (e.g. a stride-2 convolution reading every other pixel). Touches
    /// every covered line, so a stride of `2*elem` costs roughly twice the
    /// line traffic of a unit-stride load of the same length.
    pub fn vload_strided(
        &mut self,
        arena: &Arena,
        vr: usize,
        addr: u64,
        stride_bytes: u64,
        count: usize,
    ) {
        self.assert_vr(vr, count);
        self.counters.vloads += 1;
        let region = self.trace_region(arena, addr);
        self.record(TraceEvent::VLoad {
            vr,
            addr,
            span: (count as u64 - 1) * stride_bytes + 4,
            region,
            vl: count,
        });
        if self.timed {
            let dispatch = self.issue_slot();
            let (worst, mem_lines) = self
                .hier
                .access_strided_llc(addr, stride_bytes, count, false);
            let (start, _) = self.vpipe_start(dispatch, 0, false);
            let occ = self.arch.vector_occupancy(count);
            let bw = self.charge_mem_bw(start, mem_lines);
            // Strided accesses cannot use the full line bandwidth: charge the
            // stride expansion on the transfer.
            let expansion = (stride_bytes / 4).clamp(1, 4);
            self.vreg_ready[vr] = start + worst + occ * expansion + bw;
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            let dst = &mut self.vregs[vr * self.vlen..vr * self.vlen + count];
            for (i, d) in dst.iter_mut().enumerate() {
                *d = arena.read(addr + i as u64 * stride_bytes);
            }
        }
    }

    /// Strided vector store: the inverse of [`VCore::vload_strided`].
    pub fn vstore_strided(
        &mut self,
        arena: &mut Arena,
        vr: usize,
        addr: u64,
        stride_bytes: u64,
        count: usize,
    ) {
        self.assert_vr(vr, count);
        self.counters.vstores += 1;
        let region = self.trace_region(arena, addr);
        self.record(TraceEvent::VStore {
            vr,
            addr,
            span: (count as u64 - 1) * stride_bytes + 4,
            region,
            vl: count,
        });
        if self.timed {
            let dispatch = self.issue_slot();
            let (_worst, mem_lines) = self
                .hier
                .access_strided_llc(addr, stride_bytes, count, true);
            let srcs = self.vreg_ready[vr];
            let (start, _) = self.vpipe_start(dispatch, srcs, false);
            self.charge_mem_bw(start, mem_lines);
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            let src = &self.vregs[vr * self.vlen..vr * self.vlen + count];
            for (i, &v) in src.iter().enumerate() {
                arena.write(addr + i as u64 * stride_bytes, v);
            }
        }
    }

    /// Zero register `vr` (accumulator init without a memory access).
    pub fn vbroadcast_zero(&mut self, vr: usize, vl: usize) {
        self.assert_vr(vr, vl);
        self.counters.scalar_ops += 1; // modelled as a cheap vector-mask op
        self.record(TraceEvent::VZero { vr, vl });
        if self.timed {
            let dispatch = self.issue_slot();
            let (start, _) = self.vpipe_start(dispatch, 0, false);
            self.vreg_ready[vr] = start + 1;
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            self.reg_mut(vr, vl).fill(0.0);
        }
    }

    /// Vector FMA with broadcast scalar multiplicand:
    /// `acc[0..vl] += w[0..vl] * scalar` (Algorithm 2 line 17).
    ///
    /// The frontend blocks until the scalar operand is ready (dispatch-time
    /// read of the scalar register file); the vector pipe then waits for the
    /// accumulator, the weights register, and a free FMA port.
    pub fn vfma_bcast(&mut self, acc: usize, w: usize, scalar: ScalarValue, vl: usize) {
        self.assert_vr(acc, vl);
        self.assert_vr(w, vl);
        self.counters.vfmas += 1;
        self.counters.fma_elems += vl as u64;
        self.record(TraceEvent::VFma {
            acc,
            w,
            w2: None,
            vl,
        });
        if self.timed {
            let fma = self.fma_timing(vl);
            self.time_fma_bcast(acc, w, scalar.ready, fma);
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            self.compute_fma_bcast(acc, w, scalar.value, vl);
        }
    }

    /// The timing constants of a length-`vl` broadcast FMA.
    #[inline]
    fn fma_timing(&self, vl: usize) -> FmaTiming {
        FmaTiming {
            occ: self.arch.vector_occupancy(vl),
            l_fma: self.arch.l_fma as u64,
            window: self.arch.scalar_forward_window,
        }
    }

    /// Time one broadcast FMA into `acc` whose scalar operand is ready at
    /// `scalar_ready`: the frontend blocks until the operand is within the
    /// forward window, then the vector pipe waits for the accumulator, the
    /// multiplicand `w` and a free FMA port. The one timing definition of
    /// [`VCore::vfma_bcast`] and [`VCore::fma_bcast_group`].
    #[inline]
    fn time_fma_bcast(&mut self, acc: usize, w: usize, scalar_ready: u64, fma: FmaTiming) {
        let mut dispatch = self.issue_slot();
        let blocking = scalar_ready.saturating_sub(fma.window);
        if blocking > dispatch {
            self.block_frontend(blocking, true);
            dispatch = self.frontier;
        }
        let srcs = self.vreg_ready[acc].max(self.vreg_ready[w]);
        let (start, port) = self.vpipe_start(dispatch, srcs, true);
        self.ports[port] = start + fma.occ;
        self.vreg_ready[acc] = start + fma.occ + fma.l_fma;
    }

    /// `acc[0..vl] += w[0..vl] * s` on the functional register file.
    #[inline]
    fn compute_fma_bcast(&mut self, acc: usize, w: usize, s: f32, vl: usize) {
        // Split borrows: `acc` and `w` are distinct registers.
        debug_assert_ne!(acc, w, "FMA accumulator aliases weights register");
        let vlen = self.vlen;
        let (a_slice, w_slice) = if acc < w {
            let (lo, hi) = self.vregs.split_at_mut(w * vlen);
            (&mut lo[acc * vlen..acc * vlen + vl], &hi[..vl])
        } else {
            let (lo, hi) = self.vregs.split_at_mut(acc * vlen);
            (&mut hi[..vl], &lo[w * vlen..w * vlen + vl])
        };
        for (a, &b) in a_slice.iter_mut().zip(w_slice.iter()) {
            *a += b * s;
        }
    }

    /// One group of the micro-kernels' `B_seq` triple, all with the
    /// multiplicand register `w`: for each `(acc, off)` in order, a scalar
    /// pointer update, a scalar load from `base + off` and a
    /// [`VCore::vfma_bcast`] of that scalar into `acc`.
    ///
    /// Every core ends in the state those [`VCore::scalar_op`],
    /// [`VCore::scalar_load`] and [`VCore::vfma_bcast`] calls leave, and
    /// the group has no timing model of its own. A tracing core issues the
    /// calls one by one. Any other core adds the counters in O(1), as
    /// [`VCore::scalar_ops`] does. A timed core then serves the loads as
    /// one [`Hierarchy::load_round`] (the cache accesses keep their program
    /// order; no FMA touches the cache) and times the triples in one loop,
    /// through the per-FMA timing of [`VCore::vfma_bcast`] with the group's
    /// occupancy, FMA latency and forward window computed once. A
    /// functional core computes each triple in order.
    pub fn fma_bcast_group(
        &mut self,
        arena: &Arena,
        w: usize,
        vl: usize,
        base: u64,
        group: &[(usize, u64)],
    ) {
        if self.trace.is_some() {
            for &(acc, off) in group {
                self.scalar_op();
                let sv = self.scalar_load(arena, base + off);
                self.vfma_bcast(acc, w, sv, vl);
            }
            return;
        }
        self.assert_vr(w, vl);
        for &(acc, _) in group {
            self.assert_vr(acc, vl);
        }
        let n = group.len() as u64;
        self.counters.scalar_ops += n;
        self.counters.scalar_loads += n;
        self.counters.vfmas += n;
        self.counters.fma_elems += n * vl as u64;
        if self.timed {
            let mut latencies = std::mem::take(&mut self.lat_scratch);
            self.hier
                .load_round(group.iter().map(|&(_, off)| base + off), &mut latencies);
            let fma = self.fma_timing(vl);
            for (&(acc, _), &latency) in group.iter().zip(&latencies) {
                self.issue_slot(); // the pointer update
                let ready = self.issue_slot() + latency;
                self.time_fma_bcast(acc, w, ready, fma);
            }
            self.lat_scratch = latencies;
        }
        if self.mode.is_functional() {
            for &(acc, off) in group {
                self.compute_fma_bcast(acc, w, arena.read(base + off), vl);
            }
        }
    }

    /// Elementwise vector multiply-accumulate of two vector registers:
    /// `acc[0..vl] += x[0..vl] * y[0..vl]` (used by the vednn baseline and
    /// the bwd-weights kernels where both multiplicands are vectors).
    pub fn vfma_vv(&mut self, acc: usize, x: usize, y: usize, vl: usize) {
        self.assert_vr(acc, vl);
        self.assert_vr(x, vl);
        self.assert_vr(y, vl);
        self.counters.vfmas += 1;
        self.counters.fma_elems += vl as u64;
        self.record(TraceEvent::VFma {
            acc,
            w: x,
            w2: Some(y),
            vl,
        });
        if self.timed {
            let dispatch = self.issue_slot();
            let srcs = self.vreg_ready[acc]
                .max(self.vreg_ready[x])
                .max(self.vreg_ready[y]);
            let (start, port) = self.vpipe_start(dispatch, srcs, true);
            let occ = self.arch.vector_occupancy(vl);
            self.ports[port] = start + occ;
            self.vreg_ready[acc] = start + occ + self.arch.l_fma as u64;
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            // Disjoint borrows around the accumulator's block: the sources may
            // alias each other (`x == y` squares a register) but never the
            // accumulator.
            debug_assert!(acc != x && acc != y, "FMA accumulator aliases a source");
            let vlen = self.vlen;
            let (below, rest) = self.vregs.split_at_mut(acc * vlen);
            let (a_slice, above) = rest.split_at_mut(vlen);
            let a_slice = &mut a_slice[..vl];
            let side = |r: usize| -> &[f32] {
                if r < acc {
                    &below[r * vlen..r * vlen + vl]
                } else {
                    let off = (r - acc - 1) * vlen;
                    &above[off..off + vl]
                }
            };
            let (xs, ys) = (side(x), side(y));
            for ((a, &b), &c) in a_slice.iter_mut().zip(xs).zip(ys) {
                *a += b * c;
            }
        }
    }

    /// Horizontal sum of `vl` elements of register `vr`, returned as a scalar
    /// (used by bwd-weights reductions). Costs one vector instruction with a
    /// log-depth tail.
    pub fn vreduce_sum(&mut self, vr: usize, vl: usize) -> ScalarValue {
        self.assert_vr(vr, vl);
        self.counters.vfmas += 1;
        self.record(TraceEvent::VReduce { vr, vl });
        let ready = if self.timed {
            let dispatch = self.issue_slot();
            let srcs = self.vreg_ready[vr];
            let (start, port) = self.vpipe_start(dispatch, srcs, true);
            let occ = self.arch.vector_occupancy(vl);
            self.ports[port] = start + occ;
            let tail = (usize::BITS - (vl.max(2) - 1).leading_zeros()) as u64;
            start + occ + self.arch.l_fma as u64 + tail
        } else {
            0
        };
        let value = match self.mode {
            ExecutionMode::Functional => self.reg(vr, vl).iter().sum(),
            ExecutionMode::TimingOnly => 0.0,
        };
        ScalarValue { value, ready }
    }

    /// Coarse-grain block gather (Section 6.3): load `blocks.len()` blocks of
    /// `block_elems` contiguous elements each into `vr`, concatenated.
    ///
    /// Serviced by the LLC with bank serialization: the transfer takes the
    /// worst line's latency plus `max_lines_per_bank * service` cycles.
    pub fn vgather_blocks(&mut self, arena: &Arena, vr: usize, blocks: &[u64], block_elems: usize) {
        let vl = blocks.len() * block_elems;
        self.assert_vr(vr, vl);
        self.counters.gathers += 1;
        if self.trace.is_some() {
            let lo = blocks.iter().copied().min().unwrap_or(0);
            let hi = blocks.iter().copied().max().unwrap_or(0);
            self.record(TraceEvent::VGather {
                vr,
                addr: lo,
                span: hi - lo + (block_elems * 4) as u64,
                region: arena.region_of(lo),
                vl,
            });
        }
        if self.timed {
            let dispatch = self.issue_slot();
            let line = self.hier.line_bytes() as u64;
            let mut line_addrs = std::mem::take(&mut self.line_scratch);
            line_addrs.clear();
            let (worst, mem_lines) = self.hier.access_blocks_llc(
                blocks,
                (block_elems * 4) as u64,
                false,
                &mut line_addrs,
            );
            let serial = banks::gather_service_cycles(
                line_addrs.iter().copied(),
                line as usize,
                &self.arch.llc_banking,
            );
            self.line_scratch = line_addrs;
            let parallel_floor = self.arch.llc_banking.service_cycles;
            let extra = serial.saturating_sub(parallel_floor);
            self.bank_serial_cycles += extra;
            let (start, _) = self.vpipe_start(dispatch, 0, false);
            let occ = self.arch.vector_occupancy(vl);
            let bw = self.charge_mem_bw(start, mem_lines);
            // Serialized bank service occupies the LLC pipe: later vector
            // memory instructions queue behind it (throughput cost, not just
            // latency).
            self.vpipe_last_start = self.vpipe_last_start.max(start + extra);
            self.vreg_ready[vr] = start + worst + occ + extra + bw;
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            let dst = self.reg_mut(vr, vl);
            for (i, &b) in blocks.iter().enumerate() {
                let src = arena.slice(b, block_elems);
                dst[i * block_elems..(i + 1) * block_elems].copy_from_slice(src);
            }
        }
    }

    /// Coarse-grain block scatter: store `blocks.len()` blocks of
    /// `block_elems` contiguous elements each from `vr`.
    pub fn vscatter_blocks(
        &mut self,
        arena: &mut Arena,
        vr: usize,
        blocks: &[u64],
        block_elems: usize,
    ) {
        let vl = blocks.len() * block_elems;
        self.assert_vr(vr, vl);
        self.counters.scatters += 1;
        if self.trace.is_some() {
            let lo = blocks.iter().copied().min().unwrap_or(0);
            let hi = blocks.iter().copied().max().unwrap_or(0);
            self.record(TraceEvent::VScatter {
                vr,
                addr: lo,
                span: hi - lo + (block_elems * 4) as u64,
                region: arena.region_of(lo),
                vl,
            });
        }
        if self.timed {
            let dispatch = self.issue_slot();
            let line = self.hier.line_bytes() as u64;
            let mut line_addrs = std::mem::take(&mut self.line_scratch);
            line_addrs.clear();
            let (_worst, mem_lines) = self.hier.access_blocks_llc(
                blocks,
                (block_elems * 4) as u64,
                true,
                &mut line_addrs,
            );
            let serial = banks::gather_service_cycles(
                line_addrs.iter().copied(),
                line as usize,
                &self.arch.llc_banking,
            );
            self.line_scratch = line_addrs;
            let extra = serial.saturating_sub(self.arch.llc_banking.service_cycles);
            self.bank_serial_cycles += extra;
            let srcs = self.vreg_ready[vr];
            let (start, _) = self.vpipe_start(dispatch, srcs, false);
            // The scatter holds the vector pipe for the serialized portion.
            self.vpipe_last_start = start + extra;
            self.charge_mem_bw(start, mem_lines);
        }
        if matches!(self.mode, ExecutionMode::Functional) {
            let src = &self.vregs[vr * self.vlen..vr * self.vlen + vl];
            for (i, &b) in blocks.iter().enumerate() {
                arena.store_slice(b, &src[i * block_elems..(i + 1) * block_elems]);
            }
        }
    }

    // ------------------------------------------------------------- accounting

    /// Read a functional register (tests only).
    ///
    /// # Panics
    /// Panics with a description of the failing condition if `vr` is outside
    /// the architected register file or the core was built in
    /// [`ExecutionMode::TimingOnly`] (which keeps no register data).
    pub fn vreg(&self, vr: usize) -> &[f32] {
        assert!(
            vr < self.arch.n_vregs,
            "VCore::vreg({vr}): register index out of range, \
             the architecture has {} vector registers",
            self.arch.n_vregs
        );
        assert!(
            matches!(self.mode, ExecutionMode::Functional),
            "VCore::vreg({vr}): register data is only kept in Functional mode, \
             this core runs in TimingOnly mode"
        );
        &self.vregs[vr * self.vlen..(vr + 1) * self.vlen]
    }

    /// The cycle at which all in-flight work completes: the maximum over the
    /// frontend frontier, every register's ready time, every port's busy
    /// time, and the vector pipe's last start. [`VCore::drain`] reports this
    /// as total cycles; the profiler snapshots it at region boundaries.
    fn horizon(&self) -> u64 {
        let mut end = self.frontier;
        for &r in &self.vreg_ready {
            end = end.max(r);
        }
        for &p in &self.ports {
            end = end.max(p);
        }
        end.max(self.vpipe_last_start)
    }

    /// Wait for all in-flight work and return the final statistics.
    pub fn drain(&mut self) -> CoreStats {
        let end = self.horizon();
        if self.profiler.is_some() {
            let snap = self.profile_snapshot(end);
            if let Some(p) = self.profiler.as_mut() {
                p.sync(snap);
            }
        }
        CoreStats {
            cycles: end,
            insts: self.counters,
            cache: self.hier.stats(),
            stall_scalar: self.stall_scalar,
            stall_dep: self.stall_dep,
            stall_port: self.stall_port,
            bank_serial_cycles: self.bank_serial_cycles,
        }
    }

    /// Access the hierarchy (diagnostics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Warm the LLC with an address range (no stats, no cycles). Models the
    /// benchmark methodology of repeated timed iterations over the same
    /// operand buffers: inputs are LLC-resident when the measured iteration
    /// starts (the artifact's benchdnn loop).
    pub fn warm_llc(&mut self, addr: u64, bytes: u64) {
        self.hier.warm_llc_range(addr, bytes);
    }

    /// Latency the hierarchy charges for `level` (re-exported for models).
    pub fn latency_of(&self, level: Level) -> u64 {
        self.hier.latency_of(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;

    fn functional_core() -> (VCore, Arena) {
        (
            VCore::new(&sx_aurora(), ExecutionMode::Functional),
            Arena::new(),
        )
    }

    #[test]
    fn vload_vfma_vstore_roundtrip() {
        let (mut c, mut a) = functional_core();
        let src = a.alloc(512);
        let dst = a.alloc(512);
        let w: Vec<f32> = (0..512).map(|i| i as f32).collect();
        a.store_slice(src, &w);
        c.vload(&a, 1, src, 512);
        c.vbroadcast_zero(0, 512);
        c.vfma_bcast(0, 1, ScalarValue::constant(2.0), 512);
        c.vstore(&mut a, 0, dst, 512);
        let out = a.load_vec(dst, 512);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 2.0 * i as f32);
        }
        let stats = c.drain();
        assert_eq!(stats.insts.vfmas, 1);
        assert_eq!(stats.insts.fma_elems, 512);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn dependent_fmas_expose_latency() {
        // A single accumulator chain of FMAs is latency-bound:
        // each FMA waits occupancy + l_fma after the previous start.
        let arch = sx_aurora();
        let (mut c, mut a) = functional_core();
        let src = a.alloc(512);
        c.vload(&a, 1, src, 512);
        c.vbroadcast_zero(0, 512);
        let n = 100;
        for _ in 0..n {
            c.vfma_bcast(0, 1, ScalarValue::constant(1.0), 512);
        }
        let chain = c.drain();
        let min_chain = n * (arch.vector_occupancy(512) + arch.l_fma as u64);
        assert!(
            chain.cycles >= min_chain,
            "chained FMAs: {} cycles < {}",
            chain.cycles,
            min_chain
        );
        assert!(chain.stall_dep > 0);
    }

    #[test]
    fn independent_chains_hide_latency() {
        // 24 independent accumulators reach (near) port-limited throughput.
        let arch = sx_aurora();
        let (mut c, mut a) = functional_core();
        let src = a.alloc(512);
        c.vload(&a, 30, src, 512);
        for vr in 0..24 {
            c.vbroadcast_zero(vr, 512);
        }
        let rounds = 100u64;
        for _ in 0..rounds {
            for vr in 0..24 {
                c.vfma_bcast(vr, 30, ScalarValue::constant(1.0), 512);
            }
        }
        let s = c.drain();
        // Port-limited bound: total_fmas * occ / n_fma.
        let port_bound = rounds * 24 * arch.vector_occupancy(512) / arch.n_fma as u64;
        assert!(
            s.cycles < port_bound * 12 / 10,
            "interleaved FMAs should be near port bound: {} vs {}",
            s.cycles,
            port_bound
        );
    }

    #[test]
    fn scalar_load_blocks_consumer_not_issue() {
        let (mut c, mut a) = functional_core();
        let base = a.alloc(16);
        a.write(base, 7.0);
        let sv = c.scalar_load(&a, base);
        assert_eq!(sv.value, 7.0);
        // first touch misses all the way to memory
        assert!(sv.ready >= sx_aurora().lat.mem);
        // second load of the same line is an L1 hit
        let sv2 = c.scalar_load(&a, base + 4);
        assert!(sv2.ready < sv.ready + sx_aurora().lat.l1 + 4);
    }

    #[test]
    fn gather_bank_serialization_charged() {
        let arch = sx_aurora();
        let (mut c, mut a) = functional_core();
        // 16 blocks of 32 elements, block stride = 16 lines -> same bank.
        let stride_bytes = 16 * 128u64;
        let total = (16 * stride_bytes / 4) as usize + 32;
        let base = a.alloc(total);
        let blocks: Vec<u64> = (0..16).map(|i| base + i * stride_bytes).collect();
        for (i, &b) in blocks.iter().enumerate() {
            for e in 0..32 {
                a.write(b + e * 4, (i * 32) as f32 + e as f32);
            }
        }
        c.vgather_blocks(&a, 2, &blocks, 32);
        let serial = c.drain();
        assert!(
            serial.bank_serial_cycles
                >= 15 * arch.llc_banking.service_cycles - arch.llc_banking.service_cycles,
            "same-bank gather must be serialized, got {}",
            serial.bank_serial_cycles
        );
        // Functional correctness of the gather:
        for i in 0..512 {
            assert_eq!(c.vreg(2)[i], i as f32);
        }
    }

    #[test]
    fn gather_bijective_banks_fast() {
        let (mut c, mut a) = functional_core();
        // 49-line stride: gcd(49,16)=1 -> one line per bank.
        let stride_bytes = 49 * 128u64;
        let total = (16 * stride_bytes / 4) as usize + 32;
        let base = a.alloc(total);
        let blocks: Vec<u64> = (0..16).map(|i| base + i * stride_bytes).collect();
        c.vgather_blocks(&a, 2, &blocks, 32);
        let s = c.drain();
        assert_eq!(
            s.bank_serial_cycles, 0,
            "bijective mapping: no serialization"
        );
    }

    #[test]
    fn scatter_roundtrip() {
        let (mut c, mut a) = functional_core();
        let base = a.alloc(4096);
        let src = a.alloc(512);
        let vals: Vec<f32> = (0..512).map(|i| (i * 3) as f32).collect();
        a.store_slice(src, &vals);
        c.vload(&a, 0, src, 512);
        let blocks: Vec<u64> = (0..16).map(|i| base + i * 49 * 128).collect();
        // need room for the last block
        let _ = a.alloc(49 * 16 * 32);
        c.vscatter_blocks(&mut a, 0, &blocks, 32);
        for (i, &b) in blocks.iter().enumerate() {
            for e in 0..32usize {
                assert_eq!(a.read(b + (e as u64) * 4), ((i * 32 + e) * 3) as f32);
            }
        }
    }

    #[test]
    fn timing_only_mode_skips_data() {
        let arch = sx_aurora();
        let mut c = VCore::new(&arch, ExecutionMode::TimingOnly);
        let mut a = Arena::new();
        let src = a.alloc(512);
        c.vload(&a, 0, src, 512);
        c.vfma_bcast(1, 0, ScalarValue::constant(1.0), 512);
        c.vstore(&mut a, 1, src, 512);
        let s = c.drain();
        assert_eq!(s.insts.vfmas, 1);
        assert!(s.cycles > 0);
    }

    #[test]
    fn vreduce_sums() {
        let (mut c, mut a) = functional_core();
        let src = a.alloc(64);
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        a.store_slice(src, &vals);
        c.vload(&a, 0, src, 64);
        let s = c.vreduce_sum(0, 64);
        assert_eq!(s.value, (0..64).sum::<i32>() as f32);
    }

    #[test]
    fn vload_rows_concatenates_segments() {
        let (mut c, mut a) = functional_core();
        let base = a.alloc(1024);
        for i in 0..1024usize {
            a.write(base + (i as u64) * 4, i as f32);
        }
        // 4 rows of 8 elements, row stride 100 elements.
        c.vload_rows(&a, 0, base, 8, 400, 4);
        for r in 0..4 {
            for e in 0..8 {
                assert_eq!(c.vreg(0)[r * 8 + e], (r * 100 + e) as f32);
            }
        }
        let dst = a.alloc(1024);
        c.vstore_rows(&mut a, 0, dst, 8, 200, 4);
        for r in 0..4u64 {
            for e in 0..8u64 {
                assert_eq!(a.read(dst + r * 200 + e * 4), (r * 100 + e) as f32);
            }
        }
    }

    #[test]
    fn vload_strided_gathers_every_other() {
        let (mut c, mut a) = functional_core();
        let base = a.alloc(256);
        for i in 0..256usize {
            a.write(base + (i as u64) * 4, i as f32);
        }
        c.vload_strided(&a, 1, base, 8, 64);
        for i in 0..64 {
            assert_eq!(c.vreg(1)[i], (2 * i) as f32);
        }
    }

    #[test]
    fn strided_load_touches_more_lines_than_unit() {
        let arch = sx_aurora();
        let mut c1 = VCore::new(&arch, ExecutionMode::TimingOnly);
        let mut c2 = VCore::new(&arch, ExecutionMode::TimingOnly);
        let mut a = Arena::new();
        let base = a.alloc(8192);
        c1.vload(&a, 0, base, 512);
        c2.vload_strided(&a, 0, base, 8, 512);
        let s1 = c1.drain();
        let s2 = c2.drain();
        assert!(
            s2.cache.llc.accesses() > s1.cache.llc.accesses(),
            "stride-2 touches ~2x lines"
        );
    }

    #[test]
    fn trace_records_program_order() {
        let (mut c, mut a) = functional_core();
        c.enable_trace();
        let x = a.alloc(512);
        c.scalar_op();
        let sv = c.scalar_load(&a, x);
        c.vload(&a, 1, x, 64);
        c.vfma_bcast(0, 1, sv, 64);
        c.vstore(&mut a, 0, x, 64);
        c.scalar_store(&mut a, x, 1.0);
        let t = c.trace().unwrap();
        let r = Some(0); // the single allocation is region #0
        assert_eq!(
            t,
            &[
                TraceEvent::ScalarOp,
                TraceEvent::ScalarLoad { addr: x, region: r },
                TraceEvent::VLoad {
                    vr: 1,
                    addr: x,
                    span: 256,
                    region: r,
                    vl: 64
                },
                TraceEvent::VFma {
                    acc: 0,
                    w: 1,
                    w2: None,
                    vl: 64
                },
                TraceEvent::VStore {
                    vr: 0,
                    addr: x,
                    span: 256,
                    region: r,
                    vl: 64
                },
                TraceEvent::ScalarStore { addr: x, region: r },
            ]
        );
    }

    #[test]
    fn trace_tags_regions_and_footprints() {
        let arch = sx_aurora();
        let mut c = VCore::new(&arch, ExecutionMode::TimingOnly);
        c.enable_trace();
        let mut a = Arena::new();
        let src = a.alloc_labeled(4096, "src");
        let dst = a.alloc_labeled(4096, "dst");
        c.vbroadcast_zero(0, 64);
        // 4 rows of 8 elems, stride 400 bytes: span = 3*400 + 32.
        c.vload_rows(&a, 0, src, 8, 400, 4);
        // stride-8 load of 16 elems: span = 15*8 + 4.
        c.vload_strided(&a, 1, src + 64, 8, 16);
        c.vreduce_sum(0, 64);
        let blocks: Vec<u64> = (0..4).map(|i| dst + i * 512).collect();
        c.vgather_blocks(&a, 2, &blocks, 32);
        let t = c.trace().unwrap();
        assert_eq!(t[0], TraceEvent::VZero { vr: 0, vl: 64 });
        assert_eq!(
            t[1],
            TraceEvent::VLoad {
                vr: 0,
                addr: src,
                span: 1232,
                region: Some(0),
                vl: 32
            }
        );
        assert_eq!(
            t[2],
            TraceEvent::VLoad {
                vr: 1,
                addr: src + 64,
                span: 124,
                region: Some(0),
                vl: 16
            }
        );
        assert_eq!(t[3], TraceEvent::VReduce { vr: 0, vl: 64 });
        assert_eq!(
            t[4],
            TraceEvent::VGather {
                vr: 2,
                addr: dst,
                span: 3 * 512 + 128,
                region: Some(1),
                vl: 128
            }
        );
    }

    #[test]
    fn introspect_records_same_stream_as_traced_run() {
        let arch = sx_aurora();
        let mut a = Arena::new();
        let x = a.alloc(512);
        let run = |c: &mut VCore, a: &mut Arena| {
            c.scalar_op();
            let sv = c.scalar_load(a, x);
            c.vload(a, 1, x, 64);
            c.vbroadcast_zero(0, 64);
            c.vfma_bcast(0, 1, sv, 64);
            c.vfma_vv(2, 0, 1, 64);
            c.vstore(a, 0, x, 64);
            let _ = c.vreduce_sum(0, 64);
            c.vgather_blocks(a, 3, &[x, x + 512], 32);
            c.vscatter_blocks(a, 3, &[x, x + 512], 32);
        };
        let mut timed = VCore::new(&arch, ExecutionMode::TimingOnly);
        timed.enable_trace();
        run(&mut timed, &mut a);
        let mut intro = VCore::new_introspect(&arch);
        run(&mut intro, &mut a);
        assert_eq!(intro.trace().unwrap(), timed.trace().unwrap());
        assert!(!intro.is_timed());
        let stream = intro.take_trace().unwrap();
        assert_eq!(stream.len(), timed.trace().unwrap().len());
        assert_eq!(
            intro.trace().unwrap().len(),
            0,
            "take_trace leaves a fresh buffer"
        );
        // Introspection never touches the cache hierarchy or the scoreboard.
        let s = intro.drain();
        assert_eq!(s.cycles, 0);
        assert_eq!(s.cache.llc.accesses(), 0);
    }

    #[test]
    fn introspect_records_illegal_operands_without_asserting() {
        // A debug build would assert on vr/vl out of range in any other mode;
        // introspection must record them for the analyzer to deny.
        let arch = sx_aurora();
        let mut a = Arena::new();
        let x = a.alloc(64);
        let mut c = VCore::new_introspect(&arch);
        let bad_vl = arch.n_vlen() + 1;
        c.vload(&a, arch.n_vregs + 3, x, bad_vl);
        let t = c.trace().unwrap();
        assert_eq!(
            t[0],
            TraceEvent::VLoad {
                vr: arch.n_vregs + 3,
                addr: x,
                span: (bad_vl * 4) as u64,
                region: Some(0),
                vl: bad_vl
            }
        );
        let sv = c.scalar_load(&a, x);
        assert_eq!(sv.ready, 0, "introspect scalar loads are ready immediately");
    }

    #[test]
    #[should_panic(expected = "only kept in Functional mode")]
    fn vreg_in_timing_only_mode_panics_descriptively() {
        let c = VCore::new(&sx_aurora(), ExecutionMode::TimingOnly);
        let _ = c.vreg(0);
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn vreg_out_of_range_panics_descriptively() {
        let (c, _a) = functional_core();
        let _ = c.vreg(10_000);
    }

    #[test]
    fn trace_disabled_by_default() {
        let (mut c, mut a) = functional_core();
        let x = a.alloc(64);
        c.scalar_load(&a, x);
        let _ = &mut a;
        assert!(c.trace().is_none());
    }

    #[test]
    fn counters_merge_accumulates_all_fields() {
        let mut a = InstCounters {
            scalar_loads: 1,
            scalar_ops: 2,
            vloads: 3,
            vstores: 4,
            vfmas: 5,
            gathers: 6,
            scatters: 7,
            fma_elems: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 2 * b.total());
        assert_eq!(a.fma_elems, 16);
    }

    #[test]
    fn shared_llc_cores_see_each_others_fills() {
        let arch = sx_aurora();
        let llc = lsv_cache::shared_llc(&arch);
        let mut a = Arena::new();
        let base = a.alloc(512);
        let mut c0 = VCore::new_with_shared_llc(&arch, ExecutionMode::TimingOnly, llc.clone());
        let mut c1 = VCore::new_with_shared_llc(&arch, ExecutionMode::TimingOnly, llc.clone());
        c0.vload(&a, 0, base, 512); // fills the shared LLC from memory
        c1.vload(&a, 0, base, 512); // must hit the LLC
        let s = llc.borrow().stats();
        assert!(s.hits > 0, "second core hits lines the first fetched");
    }

    #[test]
    fn profiler_is_cycle_neutral_and_reconciles() {
        let run = |profiled: bool| -> (CoreStats, Option<crate::profile::RegionProfile>) {
            let (mut c, mut a) = functional_core();
            if profiled {
                c.enable_profiler();
            }
            let x = a.alloc(1024);
            c.region_enter("outer");
            c.vload(&a, 1, x, 512);
            c.region_enter("inner");
            c.vbroadcast_zero(0, 512);
            for _ in 0..10 {
                c.vfma_bcast(0, 1, ScalarValue::constant(1.0), 512);
            }
            c.region_exit();
            c.scalar_load(&a, x);
            c.vstore(&mut a, 0, x, 512);
            c.region_exit();
            let s = c.drain();
            (s, c.take_profile())
        };
        let (plain, none) = run(false);
        assert!(none.is_none(), "no profile without enable_profiler");
        let (profiled, profile) = run(true);
        let p = profile.expect("profile present");
        assert_eq!(plain.cycles, profiled.cycles, "markers are cycle-neutral");
        assert_eq!(plain.insts, profiled.insts);
        // Exact reconciliation: self counters sum to the whole-run totals.
        assert_eq!(p.self_cycles_total(), p.total.cycles);
        assert_eq!(p.insts_total(), p.total.insts);
        assert_eq!(p.cache_total(), p.total.cache);
        // Paths: root, root;outer, root;outer;inner.
        assert_eq!(p.paths.len(), 3);
        assert_eq!(p.full_name(2), "root;outer;inner");
        let inner = &p.regions[2];
        assert_eq!(inner.insts.vfmas, 10);
        assert!(inner.stall_dep > 0, "chained FMAs stall inside `inner`");
        // Inclusive cycles of the root cover everything.
        assert_eq!(p.inclusive_cycles(0), p.total.cycles);
        // Two spans were closed, innermost first.
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans[0].path, 2);
        assert!(p.spans[0].start >= p.spans[1].start);
        assert!(p.spans[0].end <= p.spans[1].end);
    }

    #[test]
    fn profiler_repeated_paths_are_interned() {
        let (mut c, mut a) = functional_core();
        c.enable_profiler();
        let x = a.alloc(64);
        for _ in 0..5 {
            c.region_enter("tile");
            c.scalar_load(&a, x);
            c.region_exit();
        }
        let p = c.take_profile().unwrap();
        assert_eq!(p.paths.len(), 2, "one interned path for 5 occurrences");
        assert_eq!(p.regions[1].enters, 5);
        assert_eq!(p.spans.len(), 5);
        assert_eq!(p.regions[1].insts.scalar_loads, 5);
    }

    #[test]
    fn stall_breakdown_matches_fields() {
        let s = CoreStats {
            stall_scalar: 1,
            stall_dep: 2,
            stall_port: 3,
            bank_serial_cycles: 4,
            ..CoreStats::default()
        };
        assert_eq!(
            s.stall_breakdown(),
            [
                ("stall_scalar", 1),
                ("stall_dep", 2),
                ("stall_port", 3),
                ("bank", 4)
            ]
        );
        let labels: Vec<&str> = s.stall_breakdown().iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, STALL_LABELS);
    }

    #[test]
    fn instruction_counters_total() {
        let (mut c, mut a) = functional_core();
        let x = a.alloc(512);
        c.scalar_op();
        c.scalar_load(&a, x);
        c.vload(&a, 0, x, 512);
        c.vfma_bcast(1, 0, ScalarValue::constant(0.5), 512);
        c.vstore(&mut a, 1, x, 512);
        let s = c.drain();
        assert_eq!(s.insts.total(), 5);
    }

    /// A pure scalar stream issues back to back, so the issue-slot bound
    /// is met with equality at any width; a counting core adds batched
    /// `scalar_ops` without a loop and reports the same count.
    #[test]
    fn issue_bound_is_tight_on_scalar_streams() {
        for width in [1, 3, 4] {
            let arch = ArchParams {
                scalar_issue_width: width,
                ..sx_aurora()
            };
            for (singles, batch) in [(1, 0), (0, 1), (2, 5), (7, 1000)] {
                let mut timed = VCore::new(&arch, ExecutionMode::TimingOnly);
                let mut counting = VCore::new_counting(&arch);
                for c in [&mut timed, &mut counting] {
                    for _ in 0..singles {
                        c.scalar_op();
                    }
                    c.scalar_ops(batch);
                }
                let (t, n) = (timed.drain(), counting.drain());
                assert_eq!(n.insts, t.insts);
                assert_eq!(t.insts.total(), (singles + batch) as u64);
                assert_eq!(t.cycles, t.insts.issue_cycles_lower_bound(width));
                assert_eq!(n.cycles, 0, "a counting core keeps no time");
            }
        }
    }
}
