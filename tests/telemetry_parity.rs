//! The telemetry observability contract, end-to-end:
//!
//! 1. **Non-perturbation** — running a sweep with a telemetry session
//!    active produces bit-identical simulation results to running it with
//!    telemetry off, at every worker count. Telemetry reads the world; it
//!    never feeds back into it.
//! 2. **Determinism** — the merged event stream itself is bit-identical
//!    across worker counts (the `(at, run, seq)` merge order is a property
//!    of the sweep, not of the schedule).
//! 3. **Coverage** — one paper scenario exercises every `TraceKind` and
//!    registers the queue-depth / MAC-retry / hop-latency histograms.
//! 4. **Exporters** — the Chrome trace and JSONL outputs are valid JSON.
//!
//! Everything except non-perturbation needs the telemetry layer compiled
//! in (debug builds, or `--features trace`); those assertions are gated on
//! `TRACE_COMPILED` so the suite also passes on a plain release build,
//! where it instead proves the sessions stay empty.

use diversifi::world::{RunMode, RunReport, World, WorldConfig};
use diversifi_simcore::telemetry::TRACE_COMPILED;
use diversifi_simcore::{
    export, FaultPlan, MergedTelemetry, SeedFactory, SimDuration, SimTime, SweepRunner, TraceKind,
};
use diversifi_wifi::{Channel, GeParams, LinkConfig};
use std::fmt::Write as _;
use std::sync::OnceLock;

const RUNS: usize = 4;
const CAPACITY: usize = 1 << 16;

/// The §6 testbed weak pair with a coexisting TCP flow — the scenario that
/// touches every subsystem (APs, MAC, Algorithm 1, PSM, TCP, and a
/// mid-run secondary power cycle for the fault engine). Kept short: this
/// suite runs in debug CI, and the weak pair hops within the first
/// second, so 4 s already exercises every event kind.
fn scenario() -> WorldConfig {
    let mut primary = LinkConfig::office(Channel::CH1, 26.0);
    primary.ge = GeParams::weak_link();
    let mut secondary = LinkConfig::office(Channel::CH11, 30.0);
    secondary.ge = GeParams::weak_link();
    let mut cfg = WorldConfig::testbed(primary, secondary);
    cfg.mode = RunMode::DiversifiCustomAp;
    cfg.with_tcp = true;
    cfg.spec.duration = SimDuration::from_secs(4);
    cfg.faults = FaultPlan::single_ap_reboot(
        1,
        SimTime::ZERO + SimDuration::from_millis(1500),
        SimDuration::from_millis(400),
    );
    cfg
}

/// One traced capture at auto thread count, shared by the coverage /
/// metrics / exporter tests (the capture itself is thread-count invariant,
/// which `merged_event_stream_is_thread_count_invariant` pins).
fn shared_capture() -> &'static MergedTelemetry {
    static CAPTURE: OnceLock<MergedTelemetry> = OnceLock::new();
    CAPTURE.get_or_init(|| run_sweep_traced(&scenario(), 0).1)
}

fn report_fp(r: &RunReport) -> String {
    let mut s = serde_json::to_string(&r.trace).expect("trace serialises");
    write!(
        s,
        "pd={},air={},waste={},tcp={:?},tput={:016x},alg={:?};",
        r.primary_deliveries,
        r.secondary_air_tx,
        r.secondary_wasteful_tx,
        r.tcp_diag,
        r.tcp_throughput_bps.to_bits(),
        r.alg_stats,
    )
    .unwrap();
    for d in &r.switch_delays {
        write!(
            s,
            "{:016x}{:016x}{:016x};",
            d.switching_ms.to_bits(),
            d.network_ms.to_bits(),
            d.queuing_ms.to_bits()
        )
        .unwrap();
    }
    s
}

fn sweep_fp(reports: &[RunReport]) -> String {
    reports.iter().map(report_fp).collect::<Vec<_>>().join("\n")
}

fn run_sweep(cfg: &WorldConfig, threads: usize) -> Vec<RunReport> {
    let seeds = SeedFactory::new(0x7E1E);
    SweepRunner::new(threads)
        .run_indexed(RUNS, |i| World::new(cfg, &seeds.subfactory("telemetry", i as u64)).run())
}

fn run_sweep_traced(cfg: &WorldConfig, threads: usize) -> (Vec<RunReport>, MergedTelemetry) {
    let seeds = SeedFactory::new(0x7E1E);
    SweepRunner::new(threads).run_indexed_traced(RUNS, CAPACITY, |i| {
        World::new(cfg, &seeds.subfactory("telemetry", i as u64)).run()
    })
}

#[test]
fn telemetry_on_is_bit_identical_to_telemetry_off_at_every_thread_count() {
    // The telemetry-off reference runs once, serially; `sweep_equivalence`
    // already pins the off path's own thread invariance, so comparing each
    // traced sweep against this one string covers both perturbation and
    // thread-count sensitivity of the traced path.
    let cfg = scenario();
    let reference = sweep_fp(&run_sweep(&cfg, 1));
    for threads in [1usize, 2, 4, 8] {
        let (reports, _) = run_sweep_traced(&cfg, threads);
        assert_eq!(
            sweep_fp(&reports),
            reference,
            "telemetry-on sweep perturbed results at threads={threads}"
        );
    }
}

#[test]
fn merged_event_stream_is_thread_count_invariant() {
    let cfg = scenario();
    let (_, reference) = run_sweep_traced(&cfg, 1);
    let ref_jsonl = export::jsonl(&reference);
    for threads in [2usize, 4, 8] {
        let (_, merged) = run_sweep_traced(&cfg, threads);
        assert_eq!(merged.dropped, reference.dropped);
        assert_eq!(
            export::jsonl(&merged),
            ref_jsonl,
            "merged event stream diverged at threads={threads}"
        );
    }
    if !TRACE_COMPILED {
        assert!(reference.events.is_empty(), "compiled-out build must record nothing");
        assert!(reference.metrics.is_empty());
    }
}

#[test]
fn paper_scenario_covers_every_trace_kind() {
    if !TRACE_COMPILED {
        return;
    }
    let merged = shared_capture();
    for kind in TraceKind::ALL {
        assert!(
            merged.events.iter().any(|e| e.event.kind == kind),
            "no {kind:?} event in the capture ({} events total)",
            merged.events.len()
        );
    }
}

#[test]
fn metrics_snapshot_has_the_paper_histograms_and_gauges() {
    if !TRACE_COMPILED {
        return;
    }
    use diversifi_simcore::metrics::MetricValue;
    use diversifi_simcore::ComponentId;

    let merged = shared_capture();
    let hist = |who: ComponentId, name: &str| match merged.metrics.get(who, name) {
        Some(MetricValue::Histogram(h)) => h.clone(),
        other => panic!("expected histogram {who}/{name}, found={}", other.is_some()),
    };
    assert!(!hist(ComponentId::ap(1), "queue_depth").is_empty(), "secondary queue sampled");
    assert!(!hist(ComponentId::mac(0), "retries").is_empty(), "MAC attempts sampled");
    assert!(
        !hist(ComponentId::world(), "hop_latency_us").is_empty(),
        "recovery hops happened on the weak pair"
    );
    assert!(!hist(ComponentId::playout(), "delay_us").is_empty());
    match merged.metrics.get(ComponentId::playout(), "emodel_r") {
        Some(MetricValue::Gauge { sum, n }) => {
            assert!(*n as usize == RUNS && *sum > 0.0, "E-model R per run: n={n} sum={sum}")
        }
        other => panic!("expected emodel_r gauge, found={}", other.is_some()),
    }
    // TCP coexistence metrics rode along.
    assert!(merged.metrics.get(ComponentId::tcp(), "transmissions").is_some());
    // The event loop profiled itself, and each world's finalize (ledger
    // audit, metrics export, report) is attributed to `metrics_reduce`.
    assert!(
        merged.profile.get(diversifi_simcore::telemetry::Phase::Dispatch).calls > 0,
        "dispatch spans recorded"
    );
    assert!(
        merged.profile.get(diversifi_simcore::telemetry::Phase::MetricsReduce).calls > 0,
        "metrics_reduce spans recorded"
    );
}

#[test]
fn exporters_emit_valid_json() {
    let merged = shared_capture();
    let chrome = export::chrome_trace(merged);
    let parsed: serde_json::Value =
        serde_json::from_str(&chrome).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array present");
    if TRACE_COMPILED {
        assert!(!events.is_empty());
    }
    for (i, line) in export::jsonl(merged).lines().enumerate() {
        let v: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("jsonl line {i}: {e}"));
        assert!(
            v.get("at_ns").and_then(|x| x.as_u64()).is_some()
                && v.get("kind").and_then(|x| x.as_str()).is_some(),
            "line {i} shape"
        );
    }
}
