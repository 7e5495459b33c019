//! Content-addressed layer-result store.
//!
//! The results pipeline simulates the *same* (problem, arch, algorithm,
//! direction) points over and over: every minibatch ≥ 2·cores reduces to the
//! identical two-image representative slice, figure 5's 16384-bit machine is
//! `sx_aurora` under another name, and the validate sweep recomputes one
//! naive reference three times. This module memoizes the expensive unit of
//! work — one simulated core slice, one validation, one vednn algorithm
//! choice — under a canonical content-addressed key.
//!
//! # Key anatomy
//!
//! A [`Key`] is a canonical ASCII string (kept for exact collision
//! verification) plus a 128-bit FNV-1a-derived content hash (the on-disk file
//! name). The string serializes, field by field and in a fixed order:
//!
//! * a schema stamp ([`SCHEMA`]) — bumped whenever the simulator's timing
//!   semantics, the record layout, or the key layout change, invalidating
//!   every persisted entry at once (stale entries parse as a silent miss),
//! * every *physical* [`ArchParams`] field — the `name` is deliberately
//!   excluded so renamed-but-identical presets share entries,
//! * the simulated problem (all 11 geometry fields, including the slice
//!   minibatch), direction, an engine tag, the core count and the execution
//!   mode,
//! * for kernel slices: the *effective* [`KernelConfig`] of the created
//!   primitive — ablation sweeps override individual variables and
//!   `ConvDesc::create` itself shrinks blocks under register pressure, so
//!   the key must describe the kernel that actually ran, not the one the
//!   tuner first proposed.
//!
//! The struct-destructuring serializers below fail to compile when a field
//! is added, forcing the schema stamp to be revisited.
//!
//! # Tiers, persistence format and invalidation
//!
//! Lookups hit an in-process map (a `Mutex<HashMap>` behind the `par_map`
//! worker pool) first, then the optional on-disk tier: one text file per
//! entry named by the key hash, written atomically (`.tmp.<pid>` then
//! rename) so concurrently regenerating bins share a store safely. A
//! version-stamp mismatch in line 1 is a *silent miss* (stale schema). An
//! unreadable, truncated or malformed entry is a *counted* miss: it bumps
//! [`StoreStats::corrupt`], prints one warning naming the file and the
//! reason, and the recomputed record overwrites it, so one damaged file
//! costs one re-simulation, never a run. A key-string mismatch under a
//! matching hash (a 2⁻¹²⁸ event) is treated as a miss. A failed write or
//! rename is counted in [`StoreStats::write_errors`] with one warning naming
//! the path; its `.tmp` is removed and the disk tier stays off for the rest
//! of the process, while the memory tier keeps serving.
//!
//! Every user goes through one lookup protocol, [`LayerStore::memo`]: get,
//! else compute and insert, for any [`Stored`] value (a slice, a
//! validation, a choice). [`LayerStore::memo_checked`] adds a caller's
//! check on the stored value: one that fails (a tuner decision indexing past
//! its candidate list) is a counted corrupt miss, like an unreadable entry.
//!
//! # Paranoid mode
//!
//! `LSV_STORE_PARANOID=<pct>` re-simulates a deterministic `pct`% sample of
//! hits (selected by key hash, so the sample is stable across runs) and
//! asserts bit-equality with the stored record — the guard that the key
//! really is content-addressing the simulation inputs. A mismatch panics.

use crate::problem::{ConvProblem, Direction};
use crate::tuning::{KernelConfig, MicroTile, RegisterBlocking};
use crate::verify::ValidationReport;
use lsv_arch::{ArchParams, CacheGeometry, LlcBanking, MemLatencies};
use lsv_cache::{HierarchyStats, LevelStats};
use lsv_vengine::{CoreStats, ExecutionMode, InstCounters};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Version stamp of the key layout, record layout *and* simulator timing
/// semantics. Any change that could alter a stored number must bump this.
pub const SCHEMA: &str = "lsv-layer-store v1";

/// A canonical store key: the full content string plus its 128-bit hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    canon: String,
    hash: u128,
}

impl Key {
    fn new(canon: String) -> Self {
        let hash = fnv128(canon.as_bytes());
        Self { canon, hash }
    }

    /// The canonical key string (written into the entry for collision
    /// verification).
    pub fn canonical(&self) -> &str {
        &self.canon
    }

    /// The 128-bit content hash.
    pub fn hash128(&self) -> u128 {
        self.hash
    }

    /// On-disk file stem: 32 lowercase hex digits.
    pub fn file_stem(&self) -> String {
        format!("{:032x}", self.hash)
    }
}

/// Two independent 64-bit FNV-1a passes (distinct offset bases, shared
/// prime) with an avalanche finalizer each — stable across platforms and
/// runs, no allocation, no serde.
fn fnv128(bytes: &[u8]) -> u128 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    const BASIS_LO: u64 = 0xcbf2_9ce4_8422_2325;
    const BASIS_HI: u64 = 0x6c62_272e_07bb_0142; // FNV-0 of "chongo <Landon..."
    let mut lo = BASIS_LO;
    let mut hi = BASIS_HI;
    for &b in bytes {
        lo = (lo ^ b as u64).wrapping_mul(PRIME);
        hi = (hi ^ b.rotate_left(3) as u64).wrapping_mul(PRIME);
    }
    ((avalanche(hi) as u128) << 64) | avalanche(lo) as u128
}

/// xorshift-multiply finalizer (splitmix64's) so short keys still spread
/// over the whole word.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn push_arch(s: &mut String, arch: &ArchParams) {
    // `name` is EXCLUDED on purpose: `with_max_vlen_bits` renames the preset
    // without changing the machine, and figure 5's 16384-bit row must share
    // entries with the plain sx_aurora sweeps.
    let ArchParams {
        name: _,
        vlen_bits,
        elem_bits,
        n_vregs,
        n_fma,
        l_fma,
        lanes_per_port,
        b_seq,
        scalar_issue_width,
        scalar_forward_window,
        freq_ghz,
        cores,
        l1d,
        l2,
        llc,
        lat,
        mem_line_cycles,
        llc_banking,
    } = arch;
    let MemLatencies {
        l1: lat1,
        l2: lat2,
        llc: lat3,
        mem: lat4,
    } = lat;
    let LlcBanking {
        banks,
        service_cycles,
    } = llc_banking;
    write!(
        s,
        "|arch={vlen_bits},{elem_bits},{n_vregs},{n_fma},{l_fma},{lanes_per_port},{b_seq},\
         {scalar_issue_width},{scalar_forward_window},{:016x},{cores}",
        freq_ghz.to_bits()
    )
    .unwrap();
    for g in [l1d, l2, llc] {
        let CacheGeometry { size, line, ways } = g;
        write!(s, ";{size}/{line}/{ways}").unwrap();
    }
    write!(
        s,
        ";lat={lat1},{lat2},{lat3},{lat4},{mem_line_cycles};bank={banks},{service_cycles}"
    )
    .unwrap();
}

fn push_problem(s: &mut String, p: &ConvProblem) {
    let ConvProblem {
        n,
        ic,
        oc,
        ih,
        iw,
        kh,
        kw,
        stride_h,
        stride_w,
        pad_h,
        pad_w,
    } = p;
    write!(
        s,
        "|p={n}x{ic}x{oc}x{ih}x{iw}k{kh}x{kw}s{stride_h}x{stride_w}p{pad_h}x{pad_w}"
    )
    .unwrap();
}

fn push_cfg(s: &mut String, cfg: &KernelConfig) {
    let KernelConfig {
        algorithm,
        direction,
        vl,
        rb,
        rb_c,
        tile,
        src_layout,
        dst_layout,
        wei_layout,
        vec_over_ic,
        wbuf,
        conflicts_predicted,
    } = cfg;
    let RegisterBlocking { rb_w, rb_h } = rb;
    let MicroTile { kh_i, kw_i, c_i } = tile;
    // `sw` (weights role-swapped) and `vi` (IC vectorized) name one flag;
    // both tokens stay so every key is unchanged.
    write!(
        s,
        "|cfg={},{},vl{vl},rb{rb_w}x{rb_h},rbc{rb_c},t{kh_i}x{kw_i}x{c_i},s{},d{},w{}x{},\
         sw{},vi{},wb{wbuf},cp{}",
        algorithm.short_name(),
        direction.short_name(),
        src_layout.cb,
        dst_layout.cb,
        wei_layout.icb,
        wei_layout.ocb,
        *vec_over_ic as u8,
        *vec_over_ic as u8,
        *conflicts_predicted as u8,
    )
    .unwrap();
}

pub(crate) fn mode_tag(mode: ExecutionMode) -> &'static str {
    if mode.is_functional() {
        "func"
    } else {
        "timing"
    }
}

/// Key of one simulated core-slice record (fwd/bwd-data cold+steady pair, or
/// one bwd-weights reduction run — the direction in `cfg`/`engine`
/// disambiguates the semantics of the two payload words).
pub fn slice_key(
    arch: &ArchParams,
    p_sim: &ConvProblem,
    direction: Direction,
    engine: &str,
    cores: usize,
    mode: ExecutionMode,
    cfg: Option<&KernelConfig>,
) -> Key {
    let mut s = String::with_capacity(256);
    s.push_str(SCHEMA);
    s.push_str("|kind=slice");
    push_arch(&mut s, arch);
    push_problem(&mut s, p_sim);
    write!(
        s,
        "|dir={}|eng={engine}|cores={cores}|mode={}",
        direction.short_name(),
        mode_tag(mode)
    )
    .unwrap();
    if let Some(cfg) = cfg {
        push_cfg(&mut s, cfg);
    }
    Key::new(s)
}

/// Key of one validation record (`engine` carries the algorithm plus any
/// operand-seeding discriminant the caller uses).
pub fn validation_key(
    arch: &ArchParams,
    p: &ConvProblem,
    direction: Direction,
    engine: &str,
) -> Key {
    let mut s = String::with_capacity(256);
    s.push_str(SCHEMA);
    s.push_str("|kind=val");
    push_arch(&mut s, arch);
    push_problem(&mut s, p);
    write!(s, "|dir={}|eng={engine}", direction.short_name()).unwrap();
    Key::new(s)
}

/// Key of one cached discrete decision (e.g. vednn's algorithm chooser).
pub fn choice_key(arch: &ArchParams, p: &ConvProblem, direction: Direction, what: &str) -> Key {
    let mut s = String::with_capacity(256);
    s.push_str(SCHEMA);
    s.push_str("|kind=choice");
    push_arch(&mut s, arch);
    push_problem(&mut s, p);
    write!(s, "|dir={}|what={what}", direction.short_name()).unwrap();
    Key::new(s)
}

/// One stored result.
// Slice records dominate the in-process map, so the size skew vs the
// two small variants buys nothing by boxing — it would only add a pointer
// chase to every warm slice lookup.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A simulated core slice: `(a, b)` is `(cold, steady)` for the
    /// minibatch-parallel directions and `(cycles, 0)` for one bwd-weights
    /// reduction run, plus the measured slice's raw counters.
    Slice {
        /// First payload word (cold-image or total cycles).
        a: u64,
        /// Second payload word (steady-image cycles, or 0).
        b: u64,
        /// Raw statistics of the measured slice.
        report: CoreStats,
    },
    /// A validation outcome, f32 values stored bit-exactly.
    Validation {
        /// `max_abs_err.to_bits()`.
        max_abs_bits: u32,
        /// `rel_err.to_bits()`.
        rel_bits: u32,
        /// Whether the error passed the tolerance.
        passed: bool,
    },
    /// A small discrete decision (e.g. a chosen algorithm), as a tag byte.
    Choice(u8),
}

/// A value the store can hold: it maps to one [`Record`] kind and back.
pub trait Stored: Sized {
    /// This value as a record.
    fn to_record(&self) -> Record;
    /// The value `rec` holds, or `None` for a record of another kind.
    fn from_record(rec: Record) -> Option<Self>;
}

/// A validation outcome, its f32s kept bit-exactly.
impl Stored for ValidationReport {
    fn to_record(&self) -> Record {
        Record::Validation {
            max_abs_bits: self.max_abs_err.to_bits(),
            rel_bits: self.rel_err.to_bits(),
            passed: self.passed,
        }
    }

    fn from_record(rec: Record) -> Option<Self> {
        match rec {
            Record::Validation {
                max_abs_bits,
                rel_bits,
                passed,
            } => Some(ValidationReport {
                max_abs_err: f32::from_bits(max_abs_bits),
                rel_err: f32::from_bits(rel_bits),
                passed,
            }),
            _ => None,
        }
    }
}

const REPORT_WORDS: usize = 26;

fn report_to_words(r: &CoreStats) -> [u64; REPORT_WORDS] {
    let CoreStats {
        cycles,
        insts,
        cache,
        stall_scalar,
        stall_dep,
        stall_port,
        bank_serial_cycles,
    } = *r;
    let InstCounters {
        scalar_loads,
        scalar_ops,
        vloads,
        vstores,
        vfmas,
        gathers,
        scatters,
        fma_elems,
    } = insts;
    let HierarchyStats {
        l1,
        l2,
        llc,
        mem_fetches,
    } = cache;
    let mut w = [0u64; REPORT_WORDS];
    w[0] = cycles;
    w[1..9].copy_from_slice(&[
        scalar_loads,
        scalar_ops,
        vloads,
        vstores,
        vfmas,
        gathers,
        scatters,
        fma_elems,
    ]);
    for (i, lv) in [l1, l2, llc].into_iter().enumerate() {
        let LevelStats {
            hits,
            misses,
            conflict_misses,
            writebacks,
        } = lv;
        w[9 + 4 * i..13 + 4 * i].copy_from_slice(&[hits, misses, conflict_misses, writebacks]);
    }
    w[21] = mem_fetches;
    w[22..26].copy_from_slice(&[stall_scalar, stall_dep, stall_port, bank_serial_cycles]);
    w
}

fn report_from_words(w: &[u64; REPORT_WORDS]) -> CoreStats {
    let level = |i: usize| LevelStats {
        hits: w[9 + 4 * i],
        misses: w[10 + 4 * i],
        conflict_misses: w[11 + 4 * i],
        writebacks: w[12 + 4 * i],
    };
    CoreStats {
        cycles: w[0],
        insts: InstCounters {
            scalar_loads: w[1],
            scalar_ops: w[2],
            vloads: w[3],
            vstores: w[4],
            vfmas: w[5],
            gathers: w[6],
            scatters: w[7],
            fma_elems: w[8],
        },
        cache: HierarchyStats {
            l1: level(0),
            l2: level(1),
            llc: level(2),
            mem_fetches: w[21],
        },
        stall_scalar: w[22],
        stall_dep: w[23],
        stall_port: w[24],
        bank_serial_cycles: w[25],
    }
}

fn record_to_line(rec: &Record) -> String {
    match rec {
        Record::Slice { a, b, report } => {
            let mut s = format!("slice {a} {b}");
            for w in report_to_words(report) {
                write!(s, " {w}").unwrap();
            }
            s
        }
        Record::Validation {
            max_abs_bits,
            rel_bits,
            passed,
        } => format!("val {max_abs_bits:08x} {rel_bits:08x} {}", *passed as u8),
        Record::Choice(tag) => format!("choice {tag}"),
    }
}

fn record_from_line(line: &str) -> Result<Record, String> {
    let mut it = it_words(line);
    match it.next() {
        Some("slice") => {
            let a = parse_u64(it.next())?;
            let b = parse_u64(it.next())?;
            let mut w = [0u64; REPORT_WORDS];
            for slot in &mut w {
                *slot = parse_u64(it.next())?;
            }
            if it.next().is_some() {
                return Err("trailing words after slice record".into());
            }
            Ok(Record::Slice {
                a,
                b,
                report: report_from_words(&w),
            })
        }
        Some("val") => {
            let max_abs_bits = parse_hex32(it.next())?;
            let rel_bits = parse_hex32(it.next())?;
            let passed = match it.next() {
                Some("0") => false,
                Some("1") => true,
                other => return Err(format!("bad passed flag {other:?}")),
            };
            Ok(Record::Validation {
                max_abs_bits,
                rel_bits,
                passed,
            })
        }
        Some("choice") => {
            let tag = parse_u64(it.next())?;
            u8::try_from(tag)
                .map(Record::Choice)
                .map_err(|_| format!("choice tag {tag} out of range"))
        }
        other => Err(format!("unknown record kind {other:?}")),
    }
}

fn it_words(line: &str) -> impl Iterator<Item = &str> {
    line.split_ascii_whitespace()
}

fn parse_u64(tok: Option<&str>) -> Result<u64, String> {
    tok.ok_or_else(|| "record truncated".to_string())?
        .parse()
        .map_err(|e| format!("bad number: {e}"))
}

fn parse_hex32(tok: Option<&str>) -> Result<u32, String> {
    u32::from_str_radix(tok.ok_or_else(|| "record truncated".to_string())?, 16)
        .map_err(|e| format!("bad hex: {e}"))
}

/// Construction-time knobs of a [`LayerStore`].
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Disable every tier (the `--no-store` path): every lookup misses
    /// without counting, every insert is dropped.
    pub disabled: bool,
    /// Directory of the persistent tier; `None` keeps the store in-process
    /// only.
    pub dir: Option<PathBuf>,
    /// Percentage (0-100) of hits to re-simulate and assert against.
    pub paranoid_pct: u8,
}

impl StoreConfig {
    /// Read the process-wide defaults: `LSV_STORE=0` disables, a non-empty
    /// `LSV_STORE_DIR` enables the persistent tier, `LSV_STORE_PARANOID`
    /// sets the recheck percentage.
    pub fn from_env() -> Self {
        let disabled = std::env::var("LSV_STORE")
            .map(|v| v == "0")
            .unwrap_or(false);
        let dir = std::env::var("LSV_STORE_DIR")
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        let paranoid_pct = std::env::var("LSV_STORE_PARANOID")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(|p| p.min(100) as u8)
            .unwrap_or(0);
        Self {
            disabled,
            dir,
            paranoid_pct,
        }
    }
}

/// Cumulative counters of one store (all process-lifetime totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served by the in-process map.
    pub mem_hits: u64,
    /// Lookups served by the persistent tier.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Records inserted (simulated fresh this process).
    pub inserts: u64,
    /// Hits re-simulated and asserted by paranoid mode.
    pub paranoid_rechecks: u64,
    /// Disk entries that could not be read or parsed (each also a miss).
    pub corrupt: u64,
    /// Disk writes that failed; the first one turns the disk tier off.
    pub write_errors: u64,
}

impl StoreStats {
    /// Lookups served from either tier.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Counter movement since an earlier snapshot of the *same* store
    /// (saturating, so a stale `since` cannot underflow). This is how
    /// callers attribute store traffic to one planning/tuning phase of a
    /// process-lifetime shared store.
    pub fn delta(&self, since: &StoreStats) -> StoreStats {
        StoreStats {
            mem_hits: self.mem_hits.saturating_sub(since.mem_hits),
            disk_hits: self.disk_hits.saturating_sub(since.disk_hits),
            misses: self.misses.saturating_sub(since.misses),
            inserts: self.inserts.saturating_sub(since.inserts),
            paranoid_rechecks: self
                .paranoid_rechecks
                .saturating_sub(since.paranoid_rechecks),
            corrupt: self.corrupt.saturating_sub(since.corrupt),
            write_errors: self.write_errors.saturating_sub(since.write_errors),
        }
    }

    /// Publish these counters into a metrics registry under the `store.`
    /// namespace. Pass a [`delta`](Self::delta) when attributing one phase;
    /// pass a snapshot when the registry is fresh.
    pub fn publish(&self, reg: &lsv_obs::MetricsRegistry) {
        reg.counter_add("store.mem_hits", self.mem_hits);
        reg.counter_add("store.disk_hits", self.disk_hits);
        reg.counter_add("store.misses", self.misses);
        reg.counter_add("store.inserts", self.inserts);
        reg.counter_add("store.paranoid_rechecks", self.paranoid_rechecks);
        reg.counter_add("store.corrupt", self.corrupt);
        reg.counter_add("store.write_errors", self.write_errors);
    }
}

#[derive(Default)]
struct Counters {
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    paranoid_rechecks: AtomicU64,
    corrupt: AtomicU64,
    write_errors: AtomicU64,
}

/// The content-addressed result store (see module docs).
pub struct LayerStore {
    disabled: bool,
    dir: Option<PathBuf>,
    paranoid_pct: u8,
    /// Set by the first failed disk write: the disk tier stays off for the
    /// rest of the process while the memory tier keeps serving.
    disk_off: AtomicBool,
    mem: Mutex<HashMap<u128, (Box<str>, Record)>>,
    naive: Mutex<HashMap<String, Arc<Vec<f32>>>>,
    counters: Counters,
}

impl LayerStore {
    /// Build a store from explicit knobs (tests and tools; the process-wide
    /// instance comes from [`configure`] or [`store`]).
    ///
    /// # Panics
    /// If the persistent tier's directory cannot be created ([`configure`]
    /// returns that as an error instead).
    pub fn new(cfg: StoreConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`LayerStore::new`], with an error naming the directory when the
    /// persistent tier cannot be created.
    fn try_new(cfg: StoreConfig) -> Result<Self, String> {
        if let Some(dir) = &cfg.dir {
            if !cfg.disabled {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("layer store: cannot create {}: {e}", dir.display()))?;
            }
        }
        Ok(Self {
            disabled: cfg.disabled,
            dir: if cfg.disabled { None } else { cfg.dir },
            paranoid_pct: cfg.paranoid_pct,
            disk_off: AtomicBool::new(false),
            mem: Mutex::new(HashMap::new()),
            naive: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        })
    }

    /// A store with every tier disabled.
    pub fn disabled() -> Self {
        Self::new(StoreConfig {
            disabled: true,
            ..StoreConfig::default()
        })
    }

    /// Whether lookups can ever hit.
    pub fn enabled(&self) -> bool {
        !self.disabled
    }

    /// Whether `key` falls in the deterministic paranoid re-check sample.
    fn paranoid_sample(&self, key: &Key) -> bool {
        self.paranoid_pct > 0 && (key.hash128() as u64 % 100) < self.paranoid_pct as u64
    }

    /// Look up a record, promoting disk hits into the in-process map.
    pub fn get(&self, key: &Key) -> Option<Record> {
        self.get_if(key, |_| Ok(()))
    }

    /// [`LayerStore::get`], where a record that `accept` rejects, like one
    /// that cannot be read, is a miss counted in [`StoreStats::corrupt`] with
    /// one warning naming the entry and the reason.
    fn get_if(&self, key: &Key, accept: impl Fn(&Record) -> Result<(), String>) -> Option<Record> {
        if self.disabled {
            return None;
        }
        let resident = {
            let mem = self.mem.lock().unwrap();
            mem.get(&key.hash128())
                .filter(|(canon, _)| canon.as_ref() == key.canonical())
                .map(|(_, rec)| rec.clone())
        };
        // The record and which tier holds it, or where a damaged one lies.
        let found = match (resident, self.disk()) {
            (Some(rec), _) => Ok(Some((rec, false))),
            (None, Some(dir)) => {
                let path = entry_path(dir, key);
                read_entry(&path, key)
                    .map(|rec| rec.map(|rec| (rec, true)))
                    .map_err(|why| format!("{} ({why})", path.display()))
            }
            (None, None) => Ok(None),
        };
        let checked = found.and_then(|hit| {
            hit.map(|(rec, disk)| match accept(&rec) {
                Ok(()) => Ok((rec, disk)),
                Err(why) => Err(format!("{} ({why})", key.canonical())),
            })
            .transpose()
        });
        match checked {
            Ok(Some((rec, false))) => {
                self.counters.mem_hits.fetch_add(1, Ordering::Relaxed);
                return Some(rec);
            }
            Ok(Some((rec, true))) => {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.mem
                    .lock()
                    .unwrap()
                    .insert(key.hash128(), (key.canonical().into(), rec.clone()));
                return Some(rec);
            }
            Ok(None) => {}
            Err(what) => {
                // The caller recomputes and its put overwrites the entry.
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                eprintln!("layer store: ignoring corrupt entry {what}");
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The persistent tier's directory, unless there is none or a write
    /// failed.
    fn disk(&self) -> Option<&Path> {
        self.dir
            .as_deref()
            .filter(|_| !self.disk_off.load(Ordering::Relaxed))
    }

    /// Insert a record into both tiers (atomic `.tmp` + rename on disk). A
    /// failed disk write is counted in [`StoreStats::write_errors`] and
    /// turns the disk tier off, with one warning naming the path and the
    /// error; the record still lands in the memory tier.
    pub fn put(&self, key: &Key, rec: Record) {
        if self.disabled {
            return;
        }
        self.counters.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(dir) = self.disk() {
            if let Err(why) = write_entry(dir, key, &rec) {
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
                if !self.disk_off.swap(true, Ordering::Relaxed) {
                    eprintln!("layer store: {why}; disk tier off, memory tier only");
                }
            }
        }
        self.mem
            .lock()
            .unwrap()
            .insert(key.hash128(), (key.canonical().into(), rec));
    }

    /// The value stored under `key`, or `fresh()`'s, inserted: the one
    /// lookup protocol of every store user. A paranoid-sampled hit re-runs
    /// `fresh` and asserts that it records the same.
    pub fn memo<T: Stored>(&self, key: &Key, fresh: impl Fn() -> T) -> T {
        let hit = self.get(key).and_then(T::from_record);
        self.serve(key, hit, fresh)
    }

    /// [`LayerStore::memo`] for a value a hit must also pass `check` to be
    /// served (a stored decision must index the caller's current list): a
    /// stored value that fails is a counted corrupt miss, with one warning
    /// naming the key and `check`'s reason, and `fresh()`'s value
    /// overwrites it.
    pub fn memo_checked<T: Stored>(
        &self,
        key: &Key,
        fresh: impl Fn() -> T,
        check: impl Fn(&T) -> Result<(), String>,
    ) -> T {
        let accept = |rec: &Record| T::from_record(rec.clone()).map_or(Ok(()), |v| check(&v));
        let hit = self.get_if(key, accept).and_then(T::from_record);
        self.serve(key, hit, fresh)
    }

    /// A looked-up value, paranoid-checked, or `fresh()`'s, inserted.
    fn serve<T: Stored>(&self, key: &Key, hit: Option<T>, fresh: impl Fn() -> T) -> T {
        let Some(hit) = hit else {
            let value = fresh();
            self.put(key, value.to_record());
            return value;
        };
        if self.paranoid_sample(key) {
            assert_eq!(
                fresh().to_record(),
                hit.to_record(),
                "paranoid store recheck diverged for key {}",
                key.canonical()
            );
            self.counters
                .paranoid_rechecks
                .fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Memoize a pure host-side f32 computation (the validate sweep's naive
    /// reference, identical across the three direct algorithms). In-process
    /// only — never persisted.
    pub fn naive_ref(&self, tag: &str, compute: impl FnOnce() -> Vec<f32>) -> Arc<Vec<f32>> {
        if self.disabled {
            return Arc::new(compute());
        }
        if let Some(v) = self.naive.lock().unwrap().get(tag) {
            return Arc::clone(v);
        }
        let v = Arc::new(compute());
        self.naive
            .lock()
            .unwrap()
            .entry(tag.to_string())
            .or_insert_with(|| Arc::clone(&v))
            .clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            mem_hits: self.counters.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            inserts: self.counters.inserts.load(Ordering::Relaxed),
            paranoid_rechecks: self.counters.paranoid_rechecks.load(Ordering::Relaxed),
            corrupt: self.counters.corrupt.load(Ordering::Relaxed),
            write_errors: self.counters.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently persisted (0 without a disk tier).
    pub fn disk_bytes(&self) -> u64 {
        let Some(dir) = &self.dir else { return 0 };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "entry"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }
}

fn entry_path(dir: &Path, key: &Key) -> PathBuf {
    dir.join(format!("{}.entry", key.file_stem()))
}

/// Persist one entry: write `<hash>.tmp.<pid>`, then rename it over the
/// entry. On failure the `.tmp` is removed and the error names the path.
fn write_entry(dir: &Path, key: &Key, rec: &Record) -> Result<(), String> {
    let path = entry_path(dir, key);
    // Entries are deterministic, so a resident copy that parses to ours is
    // as good as ours; a stale or damaged one is overwritten.
    let resident = std::fs::read_to_string(&path);
    if resident.is_ok_and(|text| {
        parse_entry(&text).is_ok_and(|e| e.is_some_and(|(c, r)| c == key.canonical() && r == *rec))
    }) {
        return Ok(());
    }
    let text = format!(
        "{SCHEMA}\nkey {}\n{}\n",
        key.canonical(),
        record_to_line(rec)
    );
    let tmp = dir.join(format!("{}.tmp.{}", key.file_stem(), std::process::id()));
    std::fs::write(&tmp, text)
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))
        .and_then(|()| {
            std::fs::rename(&tmp, &path)
                .map_err(|e| format!("cannot publish {}: {e}", path.display()))
        })
        .inspect_err(|_| {
            // Only a file of ours can sit there; anything else stays.
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Read one persisted entry for `key`. A missing file, a stale schema stamp
/// and a hash-collision key mismatch are `Ok(None)`; an unreadable,
/// truncated or malformed entry is `Err` with the reason.
fn read_entry(path: &Path, key: &Key) -> Result<Option<Record>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("unreadable: {e}")),
    };
    // A 128-bit hash collision (astronomically unlikely) is a plain miss.
    Ok(parse_entry(&text)?.and_then(|(canon, rec)| (canon == key.canonical()).then_some(rec)))
}

/// Parse an entry's text into its canonical key and record; `Ok(None)`
/// under a stale schema stamp (a silent miss the next put overwrites).
fn parse_entry(text: &str) -> Result<Option<(&str, Record)>, String> {
    let mut lines = text.lines();
    match lines.next() {
        None => return Err("empty".into()),
        Some(stamp) if stamp != SCHEMA => return Ok(None),
        Some(_) => {}
    }
    let canon = lines
        .next()
        .ok_or("truncated: missing key")?
        .strip_prefix("key ")
        .ok_or("bad key line")?;
    let rec = record_from_line(lines.next().ok_or("truncated: missing record")?)?;
    Ok(Some((canon, rec)))
}

static STORE: OnceLock<LayerStore> = OnceLock::new();

/// Build the process-wide store from `cfg` (CLI flags). Must run before the
/// first [`store`] access. Returns `Err` if the store is already live, or,
/// naming the directory, if the persistent tier cannot be created there.
pub fn configure(cfg: StoreConfig) -> Result<(), String> {
    const LIVE: &str = "layer store already initialized";
    if STORE.get().is_some() {
        return Err(LIVE.to_string());
    }
    STORE
        .set(LayerStore::try_new(cfg)?)
        .map_err(|_| LIVE.to_string())
}

/// The process-wide store: the [`configure`]d one, else one lazily built
/// from the environment (`LSV_STORE`, `LSV_STORE_DIR`,
/// `LSV_STORE_PARANOID`).
pub fn store() -> &'static LayerStore {
    STORE.get_or_init(|| LayerStore::new(StoreConfig::from_env()))
}

/// Store counters (typically one phase's [`StoreStats::delta`]) plus the
/// store's current on-disk size as one metrics document (the
/// `metrics.schema.json` shape): `store.*` counters and the
/// `store.disk_bytes` gauge, serialized by the one registry code path.
pub fn stats_metrics_json(stats: &StoreStats, disk_bytes: u64) -> String {
    let reg = lsv_obs::MetricsRegistry::new();
    stats.publish(&reg);
    reg.gauge_set("store.disk_bytes", disk_bytes as f64);
    reg.to_json("layer-store")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Algorithm;
    use lsv_arch::presets::sx_aurora;

    fn key_a() -> Key {
        let arch = sx_aurora();
        let p = ConvProblem::new(2, 64, 64, 14, 14, 3, 3, 1, 1);
        let cfg = crate::tuning::kernel_config(&arch, &p, Direction::Fwd, Algorithm::Bdc, 8);
        slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "direct",
            8,
            ExecutionMode::TimingOnly,
            Some(&cfg),
        )
    }

    fn report_fixture() -> CoreStats {
        let mut w = [0u64; REPORT_WORDS];
        for (i, slot) in w.iter_mut().enumerate() {
            *slot = (i as u64 + 1) * 7919;
        }
        report_from_words(&w)
    }

    #[test]
    fn key_is_deterministic() {
        let (a, b) = (key_a(), key_a());
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.hash128(), b.hash128());
    }

    #[test]
    fn renamed_identical_arch_shares_keys() {
        let arch = sx_aurora();
        let renamed = lsv_arch::presets::aurora_with_vlen_bits(arch.vlen_bits);
        assert_ne!(arch.name, renamed.name, "preset rename is the premise");
        let p = ConvProblem::new(2, 64, 64, 14, 14, 3, 3, 1, 1);
        let k1 = validation_key(&arch, &p, Direction::Fwd, "dc");
        let k2 = validation_key(&renamed, &p, Direction::Fwd, "dc");
        assert_eq!(k1, k2, "arch name must not enter the key");
    }

    #[test]
    fn mode_cores_engine_and_kind_discriminate() {
        let arch = sx_aurora();
        let p = ConvProblem::new(2, 64, 64, 14, 14, 3, 3, 1, 1);
        let base = slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "direct",
            8,
            ExecutionMode::TimingOnly,
            None,
        );
        let func = slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "direct",
            8,
            ExecutionMode::Functional,
            None,
        );
        let cores1 = slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "direct",
            1,
            ExecutionMode::TimingOnly,
            None,
        );
        let vednn = slice_key(
            &arch,
            &p,
            Direction::Fwd,
            "vednn:gemm",
            8,
            ExecutionMode::TimingOnly,
            None,
        );
        let val = validation_key(&arch, &p, Direction::Fwd, "direct");
        let choice = choice_key(&arch, &p, Direction::Fwd, "direct");
        let all = [&base, &func, &cores1, &vednn, &val, &choice];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x.hash128(), y.hash128());
            }
        }
    }

    #[test]
    fn record_roundtrips_through_text() {
        let recs = [
            Record::Slice {
                a: 123,
                b: u64::MAX,
                report: report_fixture(),
            },
            Record::Validation {
                max_abs_bits: 0x3f80_0001,
                rel_bits: 0x0000_0000,
                passed: true,
            },
            Record::Choice(7),
        ];
        for rec in recs {
            let line = record_to_line(&rec);
            assert_eq!(record_from_line(&line).unwrap(), rec, "{line}");
        }
    }

    fn slice_fixture() -> Record {
        Record::Slice {
            a: 10,
            b: 20,
            report: report_fixture(),
        }
    }

    fn validation_fixture() -> ValidationReport {
        ValidationReport {
            max_abs_err: 1.1920929e-7,
            rel_err: 3.5762787e-7,
            passed: true,
        }
    }

    #[test]
    fn memory_tier_roundtrip_and_stats() {
        let st = LayerStore::new(StoreConfig::default());
        let key = key_a();
        assert!(st.get(&key).is_none());
        st.put(&key, slice_fixture());
        assert_eq!(st.get(&key), Some(slice_fixture()));
        let s = st.stats();
        assert_eq!((s.mem_hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn disabled_store_never_hits() {
        let st = LayerStore::disabled();
        let key = key_a();
        st.put(&key, slice_fixture());
        assert!(st.get(&key).is_none());
        assert_eq!(st.memo(&key, validation_fixture).rel_err, 3.5762787e-7);
        assert_eq!(st.stats(), StoreStats::default());
    }

    #[test]
    fn memo_inserts_a_miss_and_serves_the_hit_bit_exactly() {
        let st = LayerStore::new(StoreConfig::default());
        let key = validation_key(
            &sx_aurora(),
            &ConvProblem::new(1, 8, 8, 6, 6, 3, 3, 1, 1),
            Direction::Fwd,
            "dc",
        );
        let r = validation_fixture();
        st.memo(&key, || r);
        let got: ValidationReport = st.memo(&key, || unreachable!("a hit must not recompute"));
        assert_eq!(got.max_abs_err.to_bits(), r.max_abs_err.to_bits());
        assert_eq!(got.rel_err.to_bits(), r.rel_err.to_bits());
        assert_eq!(got.passed, r.passed);
        let s = st.stats();
        assert_eq!((s.mem_hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn delta_attributes_one_phase_and_saturates() {
        let st = LayerStore::new(StoreConfig::default());
        let key = key_a();
        st.put(&key, slice_fixture());
        let before = st.stats();
        st.get(&key).expect("hit");
        st.get(&key).expect("hit");
        let d = st.stats().delta(&before);
        assert_eq!((d.mem_hits, d.misses, d.inserts), (2, 0, 0));
        assert_eq!(d.hits(), 2);
        // A stale snapshot (taken from a different store) cannot underflow.
        let stale = StoreStats {
            mem_hits: u64::MAX,
            ..StoreStats::default()
        };
        assert_eq!(st.stats().delta(&stale).mem_hits, 0);
    }

    #[test]
    fn stats_dump_is_a_schema_valid_metrics_document() {
        let st = LayerStore::new(StoreConfig::default());
        let key = key_a();
        assert!(st.get(&key).is_none());
        st.put(&key, slice_fixture());
        let doc = stats_metrics_json(&st.stats(), st.disk_bytes());
        lsv_obs::validate_metrics_json(&doc).expect("metrics schema");
        let v = lsv_obs::parse_json(&doc).expect("valid JSON");
        assert_eq!(
            v.get("tool"),
            Some(&lsv_obs::JsonValue::Str("layer-store".into()))
        );
        assert!(doc.contains("\"name\": \"store.misses\", \"value\": 1"));
        assert!(doc.contains("\"name\": \"store.inserts\", \"value\": 1"));
        assert!(doc.contains("store.disk_bytes"));
    }

    #[test]
    fn paranoid_sampling_is_deterministic_and_proportional() {
        let st = LayerStore::new(StoreConfig {
            paranoid_pct: 25,
            ..StoreConfig::default()
        });
        let arch = sx_aurora();
        let r = validation_fixture();
        let mut sampled = 0;
        for i in 1..=400usize {
            let p = ConvProblem::new(i, 8, 8, 6 + i % 13, 6 + i % 13, 3, 3, 1, 1);
            let key = validation_key(&arch, &p, Direction::Fwd, "dc");
            st.memo(&key, || r);
            let before = st.stats().paranoid_rechecks;
            st.memo(&key, || r);
            let once = st.stats().paranoid_rechecks - before;
            st.memo(&key, || r);
            assert_eq!(
                st.stats().paranoid_rechecks - before,
                2 * once,
                "stable sample"
            );
            sampled += once;
        }
        assert!(
            (40..=200).contains(&sampled),
            "25% of 400 keys, got {sampled}"
        );
    }

    #[test]
    #[should_panic(expected = "paranoid store recheck diverged")]
    fn paranoid_mismatch_is_loud() {
        let st = LayerStore::new(StoreConfig {
            paranoid_pct: 100,
            ..StoreConfig::default()
        });
        let key = key_a();
        st.memo(&key, validation_fixture);
        st.memo(&key, || ValidationReport {
            passed: false,
            ..validation_fixture()
        });
    }
}
