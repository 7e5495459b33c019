//! One end-to-end test per rule ID: every rule must demonstrably fire on a
//! synthetic violating configuration (or trace) through the crate's public
//! API, and the all-rules census at the bottom keeps this file honest when a
//! rule is added.

use lsv_analyze::symbolic::region_models;
use lsv_analyze::{
    analyze_config, analyze_dataflow, analyze_kernel, check_profile_reconciliation, check_races,
    check_stream, KernelLift, PartitionModel, RegionModel, Report, RuleId, Severity,
};
use lsv_arch::sx_aurora;
use lsv_conv::multicore::partition_ranges;
use lsv_conv::tuning::kernel_config;
use lsv_conv::{Algorithm, ConvDesc, ConvProblem, Direction, KernelConfig};
use lsv_vengine::{Arena, ExecutionMode, TraceEvent, VCore};

/// The canonical DC conflict layer (Table 3 id 8: IC = 512 at 28x28).
fn conflict_layer() -> ConvProblem {
    ConvProblem::new(1, 512, 128, 28, 28, 1, 1, 1, 0)
}

fn tuned(alg: Algorithm, dir: Direction) -> (ConvProblem, KernelConfig) {
    let arch = sx_aurora();
    let p = conflict_layer();
    (p, kernel_config(&arch, &p, dir, alg, 1))
}

#[test]
fn l1_conflict_fires_on_oversized_bdc_block() {
    let arch = sx_aurora();
    let (p, mut cfg) = tuned(Algorithm::Bdc, Direction::Fwd);
    cfg.rb.rb_w = 24; // past the Formula 4 cap of 16 for this layer
    cfg.rb.rb_h = 1;
    let r = analyze_config(&arch, &p, &cfg);
    assert!(r.fired(RuleId::L1Conflict), "{r:?}");
    assert!(r.has_deny(), "BDC promised conflict-freedom on fwd: {r:?}");
}

#[test]
fn bseq_lower_fires_on_undersized_block() {
    let arch = sx_aurora();
    let (p, mut cfg) = tuned(Algorithm::Bdc, Direction::Fwd);
    cfg.rb.rb_w = 3;
    cfg.rb.rb_h = 1;
    let r = analyze_config(&arch, &p, &cfg);
    assert!(r.fired(RuleId::BseqLower), "{r:?}");
}

#[test]
fn bseq_upper_fires_on_the_dc_conflict_layer() {
    // DC's tuner-chosen block (Formula 2 target = 24) already exceeds the
    // conflict-free bound (16) on this layer: the Table 3 observation.
    let arch = sx_aurora();
    let (p, cfg) = tuned(Algorithm::Dc, Direction::Fwd);
    let r = analyze_config(&arch, &p, &cfg);
    assert!(r.fired(RuleId::BseqUpper), "{r:?}");
    assert!(
        !r.has_deny(),
        "DC conflicts are warnings, not errors: {r:?}"
    );
}

#[test]
fn oob_addr_fires_on_an_escaped_address() {
    let stream = vec![TraceEvent::VLoad {
        vr: 0,
        addr: 0x7000_0000,
        span: 1024,
        region: None,
        vl: 64,
    }];
    let r = check_stream(&stream, &symbolic_regions(1), 1, 256);
    assert!(r.fired(RuleId::OobAddr) && r.has_deny(), "{r:?}");
}

#[test]
fn oob_addr_fires_on_a_lift_over_an_unattributed_region() {
    let arch = sx_aurora();
    let (p, cfg) = tuned(Algorithm::Dc, Direction::Fwd);
    let prim = ConvDesc::new(p, Direction::Fwd, Algorithm::Dc).create_with_config(&arch, cfg, 1);
    let mut arena = Arena::new();
    let t = prim.alloc_tensors(&mut arena);
    let (models, clean) = region_models(&arena, &t, p.n);
    assert_eq!(models.len(), 3);
    assert!(clean.diagnostics.is_empty(), "{clean:?}");

    arena.alloc_labeled(16, "scratch");
    let (models, r) = region_models(&arena, &t, p.n);
    assert_eq!(models.len(), 4, "every region is modelled");
    assert!(r.fired(RuleId::OobAddr) && r.has_deny(), "{r:?}");
    assert!(r.diagnostics[0].message.contains("scratch"), "{r:?}");
}

#[test]
fn acc_clobber_fires_on_a_lost_accumulator() {
    let arch = sx_aurora();
    let stream = vec![
        TraceEvent::VZero { vr: 0, vl: 64 },
        TraceEvent::VFma {
            acc: 0,
            w: 8,
            w2: None,
            vl: 64,
        },
        TraceEvent::VZero { vr: 0, vl: 64 }, // partial sums discarded
    ];
    let (r, _) = analyze_dataflow(&stream, arch.n_vregs);
    assert!(r.fired(RuleId::AccClobber) && r.has_deny(), "{r:?}");
}

#[test]
fn layout_divide_fires_on_a_line_straddling_mbdc_block() {
    let arch = sx_aurora();
    let (p, mut cfg) = tuned(Algorithm::Mbdc, Direction::Fwd);
    cfg.src_layout.cb = 20; // neither divides N_cline = 32 nor equals IC
    let r = analyze_kernel(&arch, &p, &cfg);
    assert!(r.fired(RuleId::LayoutDivide) && r.has_deny(), "{r:?}");
}

#[test]
fn reg_pressure_fires_on_register_file_overflow() {
    let arch = sx_aurora();
    let (p, mut cfg) = tuned(Algorithm::Dc, Direction::Fwd);
    cfg.rb.rb_w = 28;
    cfg.rb.rb_h = 3; // 84 accumulators on a 64-register file
    let r = analyze_kernel(&arch, &p, &cfg);
    assert!(r.fired(RuleId::RegPressure) && r.has_deny(), "{r:?}");
}

/// Symbolic fixtures: a two-slab activation arena plus a shared weights
/// region, matching the affine models [`lsv_analyze::lift_kernel`] builds.
fn symbolic_regions(n: usize) -> Vec<RegionModel> {
    vec![
        RegionModel::minibatch_scaled(0, "act src", 0x1000, 4096, n),
        RegionModel::minibatch_scaled(1, "act dst", 0x2000, 4096, n),
        RegionModel::shared(2, "wei", 0x10_000, 8192),
    ]
}

#[test]
fn region_overlap_fires_on_a_slab_crossing_access() {
    let stream = vec![TraceEvent::VLoad {
        vr: 0,
        addr: 0x1000 + 4090, // last bytes of src's slab, crossing into dst
        span: 64,
        region: Some(0),
        vl: 16,
    }];
    let r = check_stream(&stream, &symbolic_regions(4), 4, 64);
    assert!(r.fired(RuleId::RegionOverlap) && r.has_deny(), "{r:?}");
}

#[test]
fn vl_exceeds_fires_on_an_overlong_vector_op() {
    let stream = vec![TraceEvent::VZero { vr: 0, vl: 300 }];
    let r = check_stream(&stream, &symbolic_regions(1), 1, 256);
    assert!(r.fired(RuleId::VlExceeds) && r.has_deny(), "{r:?}");
}

#[test]
fn uninit_read_and_dead_write_fire_on_broken_dataflow() {
    let arch = sx_aurora();
    let stream = vec![
        // v1 read before any definition; the v2 load is never consumed.
        TraceEvent::VStore {
            vr: 1,
            addr: 0x2000,
            span: 64,
            region: Some(1),
            vl: 16,
        },
        TraceEvent::VLoad {
            vr: 2,
            addr: 0x1000,
            span: 64,
            region: Some(0),
            vl: 16,
        },
    ];
    let (r, _) = analyze_dataflow(&stream, arch.n_vregs);
    assert!(r.fired(RuleId::UninitRead) && r.has_deny(), "{r:?}");
    assert!(r.fired(RuleId::DeadWrite), "{r:?}");
}

/// Race fixtures: one stream, minibatch-partitioned across 8 cores.
fn minibatch_lift(stream: Vec<TraceEvent>, n: usize, cores: usize) -> KernelLift {
    KernelLift {
        regions: symbolic_regions(n),
        streams: vec![stream],
        partition: PartitionModel::Minibatch(partition_ranges(n, cores)),
        n_full: n,
    }
}

#[test]
fn race_write_overlap_fires_on_a_shared_region_write() {
    let arch = sx_aurora();
    let lift = minibatch_lift(
        vec![TraceEvent::VStore {
            vr: 0,
            addr: 0x10_000,
            span: 256,
            region: Some(2), // weights are shared: every core writes them
            vl: 64,
        }],
        8,
        8,
    );
    let r = check_races(&lift, &arch);
    assert!(r.fired(RuleId::RaceWriteOverlap) && r.has_deny(), "{r:?}");
}

#[test]
fn false_sharing_warns_on_a_sub_line_slab() {
    let arch = sx_aurora();
    // A 64-byte image slab on 128-byte LLC lines: adjacent cores' images
    // share every boundary line.
    let mut lift = minibatch_lift(
        vec![TraceEvent::VStore {
            vr: 0,
            addr: 0x1000,
            span: 64,
            region: Some(0),
            vl: 16,
        }],
        8,
        8,
    );
    lift.regions[0] = RegionModel::minibatch_scaled(0, "act src", 0x1000, 64, 8);
    let r = check_races(&lift, &arch);
    assert!(r.fired(RuleId::FalseSharing), "{r:?}");
    assert!(!r.has_deny(), "false sharing is a perf warning: {r:?}");
}

/// Census: the tests above must collectively cover every rule in the
/// registry, so adding a RuleId without a firing test fails here.
#[test]
fn every_rule_id_has_a_demonstrated_firing() {
    let arch = sx_aurora();
    let mut fired = Report::new();

    let (p, mut cfg) = tuned(Algorithm::Bdc, Direction::Fwd);
    cfg.rb.rb_w = 24;
    cfg.rb.rb_h = 1;
    fired.merge(analyze_config(&arch, &p, &cfg)); // L1-CONFLICT + BSEQ-UPPER
    cfg.rb.rb_w = 3;
    fired.merge(analyze_config(&arch, &p, &cfg)); // BSEQ-LOWER
    cfg.rb.rb_w = 100;
    fired.merge(analyze_config(&arch, &p, &cfg)); // REG-PRESSURE

    let (p, mut cfg) = tuned(Algorithm::Mbdc, Direction::Fwd);
    cfg.dst_layout.cb = 20;
    fired.merge(analyze_config(&arch, &p, &cfg)); // LAYOUT-DIVIDE

    let stream = vec![
        TraceEvent::VFma {
            acc: 0,
            w: 8,
            w2: None,
            vl: 64,
        },
        TraceEvent::VZero { vr: 0, vl: 64 },
        TraceEvent::ScalarStore {
            addr: 0x123_4560,
            region: None,
        },
    ];
    fired.merge(check_stream(&stream, &symbolic_regions(1), 1, 64)); // OOB-ADDR
    fired.merge(analyze_dataflow(&stream, arch.n_vregs).0); // ACC-CLOBBER

    let mut core = VCore::new(&arch, ExecutionMode::TimingOnly);
    core.enable_profiler();
    core.region_enter("r");
    core.scalar_ops(3);
    core.region_exit();
    let mut stats = core.drain();
    let profile = core.take_profile().unwrap();
    stats.cycles += 1; // tampered total cannot reconcile
    fired.merge(check_profile_reconciliation(&profile, &stats)); // PROFILE-UNRECONCILED

    // Symbolic bounds: slab overrun into the neighbor + illegal vl.
    let stream = vec![
        TraceEvent::VLoad {
            vr: 0,
            addr: 0x1000 + 4090,
            span: 64,
            region: Some(0),
            vl: 16,
        },
        TraceEvent::VZero { vr: 1, vl: 0 },
    ];
    fired.merge(check_stream(&stream, &symbolic_regions(4), 4, 64)); // REGION-OVERLAP + VL-EXCEEDS

    // Dataflow: read-before-def + unconsumed definition.
    let stream = vec![
        TraceEvent::VStore {
            vr: 1,
            addr: 0x2000,
            span: 64,
            region: Some(1),
            vl: 16,
        },
        TraceEvent::VLoad {
            vr: 2,
            addr: 0x1000,
            span: 64,
            region: Some(0),
            vl: 16,
        },
    ];
    let (df, _) = analyze_dataflow(&stream, arch.n_vregs);
    fired.merge(df); // UNINIT-READ + DEAD-WRITE

    // Races: shared-region write under the minibatch split, plus a
    // sub-line slab for boundary false sharing.
    let mut lift = minibatch_lift(
        vec![
            TraceEvent::VStore {
                vr: 0,
                addr: 0x10_000,
                span: 256,
                region: Some(2),
                vl: 64,
            },
            TraceEvent::VStore {
                vr: 0,
                addr: 0x1000,
                span: 64,
                region: Some(0),
                vl: 16,
            },
        ],
        8,
        8,
    );
    lift.regions[0] = RegionModel::minibatch_scaled(0, "act src", 0x1000, 64, 8);
    fired.merge(check_races(&lift, &arch)); // RACE-WRITE-OVERLAP + FALSE-SHARING

    for rule in RuleId::ALL {
        assert!(fired.fired(rule), "no firing demonstrated for {rule}");
    }
    assert!(fired.count(Severity::Deny) > 0 && fired.count(Severity::Warn) > 0);
}
