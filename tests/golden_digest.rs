//! Golden-digest determinism tests for the hot-path optimizations.
//!
//! The timing-wheel calendar, the packet arena and the memoized route
//! tables are pure wall-clock optimizations: they must not change a
//! single output bit. Each test runs a shortened stand-in for one of the
//! headline repro targets (`fig4_8`, `fig4_13`, `load_sweep`) under both
//! calendar backends and asserts the run-cache CSV encodings — which
//! serialize every f64 as its exact bit pattern — are byte-identical.
//! The heap backend exercises none of the wheel/cascade machinery, so
//! agreement here pins the optimized paths to the reference semantics.
//!
//! Digests are compared between backends inside one process rather than
//! against hardcoded constants: latency math goes through `ln()`, whose
//! last-ULP behaviour is platform-dependent, so a stored digest would
//! couple the test to one libm build.

use pr_drb::engine::cache::report_to_csv;
use pr_drb::engine::RunKey;
use pr_drb::prelude::*;
use pr_drb::simcore::QueueKind;

/// Run `cfg` under both calendar backends; assert the cache keys and
/// the canonical CSV reports agree byte for byte.
fn assert_backend_invariant(label: &str, cfg: SimConfig) {
    let mut heap_cfg = cfg.clone();
    heap_cfg.net.queue = QueueKind::Heap;
    let mut wheel_cfg = cfg;
    wheel_cfg.net.queue = QueueKind::Wheel;
    let (kh, kw) = (RunKey::of(&heap_cfg), RunKey::of(&wheel_cfg));
    assert_eq!(
        kh, kw,
        "{label}: the calendar backend must not enter the run-cache key"
    );
    let reference = report_to_csv(kh, &run(heap_cfg));
    assert_eq!(
        report_to_csv(kw, &run(wheel_cfg)),
        reference,
        "{label}: wheel-backed run diverged from the heap reference"
    );
}

/// Shortened `fig4_8`: mesh hot-spot situation 1 under DRB — exercises
/// the mesh route tables, MSP headers and the destination-based monitor.
#[test]
fn mesh_hotspot_digest_is_backend_invariant() {
    let mesh = pr_drb::topology::Mesh2D::new(8, 8);
    let scenario = HotSpotScenario::situation1(&mesh);
    let mut cfg = SimConfig::synthetic(
        TopologyKind::Mesh8x8,
        PolicyKind::Drb,
        BurstSchedule::continuous(TrafficPattern::Uniform, 100.0),
        0,
    );
    cfg.workload = Workload::Flows {
        flows: scenario.flows.clone(),
        mbps: 600.0,
        noise_nodes: scenario.noise_nodes.clone(),
        noise_mbps: 40.0,
        msg_bytes: 1024,
    };
    cfg.duration_ns = MILLISECOND / 2;
    cfg.max_ns = 50 * MILLISECOND;
    assert_backend_invariant("fig4_8 stand-in", cfg);
}

/// Shortened `fig4_13`: fat-tree shuffle bursts under PR-DRB — exercises
/// the tree tables (seed routes), the solution database and ACK traffic.
#[test]
fn fat_tree_permutation_digest_is_backend_invariant() {
    let schedule = BurstSchedule::repetitive(TrafficPattern::Shuffle, 600.0, 200_000, 100_000);
    let mut cfg = SimConfig::synthetic(TopologyKind::FatTree443, PolicyKind::PrDrb, schedule, 32);
    cfg.duration_ns = MILLISECOND;
    cfg.max_ns = 200 * MILLISECOND;
    assert_backend_invariant("fig4_13 stand-in", cfg);
}

/// Faulted fat-tree scenario: a seeded mid-run fault plan (link-downs,
/// recoveries and a router-down) under PR-DRB. Fault application is a
/// pure function of the plan and simulated time, so the dropped-packet
/// accounting, the degraded-mode rerouting and the solution
/// invalidations must all land identically under both calendar backends
/// — and the plan must enter the run key (same
/// config minus the plan is a different run).
#[test]
fn faulted_scenario_digest_is_backend_invariant() {
    use pr_drb::topology::{FaultEvent, FaultPlan, RouterId, TimedFault};
    let schedule = BurstSchedule::continuous(TrafficPattern::Shuffle, 400.0);
    let mut cfg = SimConfig::synthetic(TopologyKind::FatTree443, PolicyKind::PrDrb, schedule, 32);
    cfg.duration_ns = MILLISECOND / 2;
    cfg.max_ns = 50 * MILLISECOND;
    let topo = TopologyKind::FatTree443.build();
    let mut events = FaultPlan::seeded(&topo, 7, 4, 50_000, 400_000)
        .events()
        .to_vec();
    events.push(TimedFault {
        at: 150_000,
        fault: FaultEvent::RouterDown {
            router: RouterId(20),
        },
    });
    cfg.faults = FaultPlan::new(events);
    let mut fault_free = cfg.clone();
    fault_free.faults = FaultPlan::none();
    assert_ne!(
        RunKey::of(&cfg),
        RunKey::of(&fault_free),
        "the fault plan must participate in the run-cache key"
    );
    assert_backend_invariant("faulted stand-in", cfg);
}

/// Each collective family (operation × schedule shape) lowered onto the
/// trace player: the player's sends and receives ride the fabric's
/// delivery order, so both calendar backends must replay it exactly.
#[test]
fn collective_digest_is_backend_invariant() {
    for (kind, shape) in [
        (CollectiveKind::AllToAll, ScheduleShape::Ring),
        (CollectiveKind::AllToAll, ScheduleShape::Tree),
        (CollectiveKind::AllReduce, ScheduleShape::Ring),
        (CollectiveKind::AllReduce, ScheduleShape::Tree),
    ] {
        let spec = CollectiveSpec::new(kind, shape, 16, 16 * 1024);
        let cfg = SimConfig::collective(TopologyKind::FatTree443, PolicyKind::PrDrb, spec, 2);
        assert_backend_invariant(&format!("collective {}", spec.label()), cfg);
    }
}

/// The mini-app phase loop on the 8×8 mesh under PR-DRB: phase streams
/// consult the program and the phase-boundary wakeups, both host-side
/// and therefore identical under both calendar backends.
#[test]
fn phased_digest_is_backend_invariant() {
    let program = PhaseProgram::mini_app(3, 150_000, 500.0);
    let cfg = SimConfig::phased(TopologyKind::Mesh8x8, PolicyKind::PrDrb, program, 32);
    assert_backend_invariant("mini-app phases", cfg);
}

/// The open-loop heavy-tail workload: per-source sampler substreams are
/// pure functions of the seed, so the arrival process — and with it the
/// whole run — must not depend on the calendar backend.
#[test]
fn open_loop_digest_is_backend_invariant() {
    let mut cfg = SimConfig::open_loop(
        TopologyKind::FatTree443,
        PolicyKind::PrDrb,
        OpenLoopSpec::heavy_tail(40_000.0),
        32,
    );
    cfg.duration_ns = MILLISECOND / 2;
    cfg.max_ns = 50 * MILLISECOND;
    assert_backend_invariant("open-loop heavy-tail", cfg);
}

/// Shortened `load_sweep` point: continuous shuffle near saturation for
/// every policy family member — the deterministic route floods the
/// calendar with far-apart retries, stressing the wheel's overflow path.
#[test]
fn load_sweep_digest_is_backend_invariant() {
    for policy in [
        PolicyKind::Deterministic,
        PolicyKind::Drb,
        PolicyKind::PrDrb,
    ] {
        let schedule = BurstSchedule::continuous(TrafficPattern::Shuffle, 800.0);
        let mut cfg = SimConfig::synthetic(TopologyKind::FatTree443, policy, schedule, 32);
        cfg.duration_ns = MILLISECOND / 2;
        cfg.max_ns = 4000 * MILLISECOND;
        assert_backend_invariant("load_sweep stand-in", cfg);
    }
}
