//! World-level differential and metamorphic properties, backed by the
//! `simcore::check` invariant-audit layer.
//!
//! Everything here runs with the packet-conservation ledger live inside
//! every world (debug builds and `--features audit` release builds):
//!
//! - **Replication robustness** (the paper's core claim): for every
//!   proptest-generated seed, the DiversiFi arm's deadline loss is no worse
//!   than the primary-only arm's on the same channel realisation.
//! - **Seed-set permutation invariance**: per-seed results are a pure
//!   function of the seed, so evaluating a seed set in any order yields the
//!   same multiset of outputs.
//! - **Audit neutrality**: the audit layer only observes — with checks
//!   suspended at runtime, corpus outputs are bit-identical at 1/2/4/8
//!   worker threads.
//! - **Ledger closure in every mode**: each `RunMode` (including fault
//!   injection) finalises its conservation ledger without complaint, and
//!   so does a multi-client fleet under a fault plan.

use diversifi::evaluation::{office_fleet, run_eval_corpus, EvalOptions};
use diversifi::world::{RunMode, World, WorldConfig};
use diversifi_simcore::{
    check, FaultKind, FaultPlan, SeedFactory, SimDuration, SimTime, SweepRunner,
};
use diversifi_voip::{StreamSpec, DEFAULT_DEADLINE};
use diversifi_wifi::{Channel, GeParams, LinkConfig};
use proptest::prelude::*;
use std::fmt::Write as _;

/// The §6.1-style office pair used for the differential properties: a
/// losing primary and an independently impaired secondary, so recovery has
/// real work to do on most seeds.
fn weak_pair() -> (LinkConfig, LinkConfig) {
    let mut a = LinkConfig::office(Channel::CH1, 22.0);
    a.ge = GeParams::weak_link();
    let mut b = LinkConfig::office(Channel::CH11, 28.0);
    b.ge = GeParams::weak_link();
    (a, b)
}

fn paired_losses(seed: u64, secs: u64) -> (f64, f64) {
    let (a, b) = weak_pair();
    let mut base = WorldConfig::testbed(a.clone(), b.clone());
    base.mode = RunMode::PrimaryOnly;
    base.spec.duration = SimDuration::from_secs(secs);
    let mut dvf = WorldConfig::testbed(a, b);
    dvf.mode = RunMode::DiversifiCustomAp;
    dvf.spec.duration = SimDuration::from_secs(secs);
    let s = SeedFactory::new(seed);
    let base_loss = World::new(&base, &s).run().trace.loss_rate(DEFAULT_DEADLINE);
    let dvf_loss = World::new(&dvf, &s).run().trace.loss_rate(DEFAULT_DEADLINE);
    (base_loss, dvf_loss)
}

proptest! {
    /// The paper's core robustness claim, per seed: on the same channel
    /// realisation, DiversiFi never loses more of the stream than the
    /// primary-only baseline.
    #[test]
    fn diversifi_never_worse_than_primary_only(seed in any::<u64>()) {
        let (base_loss, dvf_loss) = paired_losses(seed, 15);
        prop_assert!(
            dvf_loss <= base_loss,
            "seed {seed:#x}: diversifi {dvf_loss} > primary-only {base_loss}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-seed results are a pure function of the seed: evaluating a seed
    /// set forwards and backwards yields bit-identical loss multisets. Any
    /// hidden global state (thread-local caches, allocation-order effects,
    /// the realisation cache) would show up here.
    #[test]
    fn seed_set_evaluation_is_permutation_invariant(
        seeds in proptest::collection::vec(any::<u64>(), 2..5),
    ) {
        let multiset = |order: &[u64]| {
            let mut bits: Vec<(u64, u64)> = order
                .iter()
                .map(|&s| {
                    let (b, d) = paired_losses(s, 10);
                    (b.to_bits(), d.to_bits())
                })
                .collect();
            bits.sort_unstable();
            bits
        };
        let forward = multiset(&seeds);
        let mut rev = seeds.clone();
        rev.reverse();
        prop_assert_eq!(forward, multiset(&rev));
    }
}

fn eval_fp(runs: &[diversifi::evaluation::EvalRun]) -> String {
    let mut s = String::new();
    for r in runs {
        for rep in [&r.primary, &r.secondary, &r.diversifi] {
            s.push_str(&serde_json::to_string(&rep.trace).expect("trace serialises"));
            write!(
                s,
                "waste={},air={},prim={};",
                rep.secondary_wasteful_tx, rep.secondary_air_tx, rep.primary_deliveries
            )
            .unwrap();
        }
        s.push('\n');
    }
    s
}

/// The audit layer observes but never steers: with runtime checks
/// suspended, the evaluation corpus is bit-identical to the checked
/// reference at every worker count. (In audit-compiled builds this
/// exercises the counters-on/assertions-off path; the cross-build
/// `audit`-feature CI job covers the compiled-out comparison.)
#[test]
fn audit_is_behaviour_neutral_across_thread_counts() {
    let mut opts = EvalOptions { n_runs: 3, threads: 1, ..EvalOptions::default() };
    check::set_enabled(true);
    let reference = eval_fp(&run_eval_corpus(&opts, 0xA0D17));
    check::set_enabled(false);
    for threads in [1usize, 2, 4, 8] {
        opts.threads = threads;
        let got = eval_fp(&run_eval_corpus(&opts, 0xA0D17));
        if got != reference {
            check::set_enabled(true);
            panic!("audit-off corpus diverged from audit-on reference at threads={threads}");
        }
    }
    check::set_enabled(true);
}

/// One plan of each fault kind, plus a healthy plan and a kitchen sink,
/// all timed to land inside an 8 s run.
fn fault_catalogue() -> Vec<(&'static str, FaultPlan)> {
    let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    vec![
        ("healthy", FaultPlan::none()),
        ("reboot_ap0", FaultPlan::single_ap_reboot(0, t(3), SimDuration::from_millis(1500))),
        ("reboot_ap1", FaultPlan::single_ap_reboot(1, t(3), SimDuration::from_millis(1500))),
        (
            "flap_ap1",
            FaultPlan::none().with(
                t(2),
                FaultKind::ApFlap {
                    ap: 1,
                    down: SimDuration::from_millis(700),
                    up: SimDuration::from_millis(800),
                    cycles: 3,
                },
            ),
        ),
        (
            "mbox_restart",
            FaultPlan::none().with(
                t(3),
                FaultKind::MiddleboxRestart {
                    outage: SimDuration::from_secs(1),
                    reinstall_delay: SimDuration::from_millis(300),
                },
            ),
        ),
        (
            "brownout",
            FaultPlan::none().with(
                t(2),
                FaultKind::Brownout {
                    duration: SimDuration::from_secs(2),
                    extra_delay: SimDuration::from_millis(10),
                    control_loss: 0.6,
                },
            ),
        ),
        (
            "uplink_outage",
            FaultPlan::none().with(t(4), FaultKind::UplinkOutage { duration: SimDuration::from_secs(1) }),
        ),
        (
            "storm",
            FaultPlan::none().with(
                t(3),
                FaultKind::InterferenceStorm {
                    duration: SimDuration::from_secs(2),
                    erasure: 0.4,
                    link: None,
                },
            ),
        ),
        (
            "kitchen_sink",
            FaultPlan::none()
                .with(
                    t(2),
                    FaultKind::ApFlap {
                        ap: 1,
                        down: SimDuration::from_millis(600),
                        up: SimDuration::from_millis(900),
                        cycles: 2,
                    },
                )
                .with(
                    t(3),
                    FaultKind::Brownout {
                        duration: SimDuration::from_secs(2),
                        extra_delay: SimDuration::from_millis(8),
                        control_loss: 0.5,
                    },
                )
                .with(
                    t(4),
                    FaultKind::MiddleboxRestart {
                        outage: SimDuration::from_millis(800),
                        reinstall_delay: SimDuration::from_millis(200),
                    },
                )
                .with(
                    t(5),
                    FaultKind::InterferenceStorm {
                        duration: SimDuration::from_millis(1500),
                        erasure: 0.3,
                        link: Some(0),
                    },
                )
                .with(t(6), FaultKind::UplinkOutage { duration: SimDuration::from_millis(700) }),
        ),
    ]
}

/// Every run mode × every fault kind — drives the packet ledger to a clean
/// close: `World::run` finalises the conservation ledger internally, so
/// simply completing under a live audit is the assertion.
#[test]
fn ledger_closes_in_every_mode_and_fault_kind() {
    let (a, b) = weak_pair();
    let modes = [
        RunMode::PrimaryOnly,
        RunMode::SecondaryOnly,
        RunMode::DiversifiCustomAp,
        RunMode::DiversifiMiddlebox,
        RunMode::EndToEndPsm,
    ];
    for mode in modes {
        // Alternate tcp per plan to bound runtime while still covering
        // every (mode, fault) pair and both tcp settings per mode.
        for (i, (label, plan)) in fault_catalogue().into_iter().enumerate() {
            let with_tcp = i % 2 == (mode as usize) % 2;
            let mut cfg = WorldConfig::testbed(a.clone(), b.clone());
            cfg.mode = mode;
            cfg.with_tcp = with_tcp;
            cfg.spec.duration = SimDuration::from_secs(8);
            cfg.faults = plan;
            let s = SeedFactory::new(0x1ED6E8 ^ (mode as u64) << 8);
            let report = World::new(&cfg, &s).run();
            assert!(
                !report.trace.is_empty(),
                "world produced an empty trace for {mode:?} tcp={with_tcp} fault={label}"
            );
        }
    }
}

/// A 4-client fleet — three DiversiFi clients and one primary-only
/// bystander sharing both APs, plus TCP on the DEF link — closes its
/// ledger under the fault plan that strikes every fault kind at once. The
/// ledger audits every client's stream copies and queues.
#[test]
fn fleet_ledger_closes_under_a_fault_plan() {
    let mut spec = StreamSpec::voip();
    spec.duration = SimDuration::from_secs(8);
    let s = SeedFactory::new(0xF1EE7);
    let mut cfg = office_fleet(4, true, spec, &s);
    cfg.extra_clients[2].diversifi = false;
    cfg.with_tcp = true;
    let (_, plan) = fault_catalogue().pop().expect("kitchen_sink is last");
    cfg.faults = plan;
    let report = World::new(&cfg, &s).run();
    assert_eq!(report.extra_clients.len(), 3);
    assert_eq!(report.fault_outcomes.len(), cfg.faults.windows().len());
    for (i, trace) in report.client_traces().enumerate() {
        assert!(trace.loss_rate(DEFAULT_DEADLINE) < 1.0, "client {i} heard nothing");
    }
}

/// Fault-plan runs are bit-identical across worker-thread counts and
/// telemetry/audit configurations: the fault engine must neither read the
/// wall clock nor let instrumentation steer a single RNG draw.
#[test]
fn fault_plan_runs_bit_identical_across_threads_and_telemetry() {
    let catalogue = fault_catalogue();
    let fingerprint = |report: &diversifi::world::RunReport| {
        format!(
            "{}|{}|{}|{:?}",
            serde_json::to_string(&report.trace).expect("trace serialises"),
            report.secondary_air_tx,
            report.primary_deliveries,
            report.fault_outcomes,
        )
    };
    let sweep = |threads: usize, traced: bool, audit: bool| -> Vec<String> {
        check::set_enabled(audit);
        let out = SweepRunner::new(threads).run(&catalogue, |i, (_, plan)| {
            let (a, b) = weak_pair();
            let mut cfg = WorldConfig::testbed(a, b);
            cfg.mode = if i % 2 == 0 {
                RunMode::DiversifiCustomAp
            } else {
                RunMode::DiversifiMiddlebox
            };
            cfg.spec.duration = SimDuration::from_secs(6);
            cfg.faults = plan.clone();
            let s = SeedFactory::new(0xFA017 + i as u64);
            let report = if traced {
                World::new(&cfg, &s).run_traced(4096).0
            } else {
                World::new(&cfg, &s).run()
            };
            fingerprint(&report)
        });
        check::set_enabled(true);
        out
    };
    let reference = sweep(1, false, true);
    for threads in [1usize, 2, 4, 8] {
        for traced in [false, true] {
            for audit in [true, false] {
                if (threads, traced, audit) == (1, false, true) {
                    continue;
                }
                assert_eq!(
                    sweep(threads, traced, audit),
                    reference,
                    "fault sweep diverged at threads={threads} traced={traced} audit={audit}"
                );
            }
        }
    }
}

/// `AUDIT_COMPILED` tracks the build configuration exactly: audits are in
/// every debug build and in release iff the `audit` feature is on —
/// nothing can silently compile the layer out of a build that promises it.
#[test]
fn audit_compilation_matches_build_config() {
    assert_eq!(check::AUDIT_COMPILED, cfg!(any(debug_assertions, feature = "audit")));
}
