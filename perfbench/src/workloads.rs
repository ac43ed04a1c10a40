//! The four workloads: their inputs (a pure function of the seed), the op
//! each one runs, the per-op output checks, and the layer timers that the
//! traced run wraps around every call into a layer's public function.
//!
//! Why each workload exists, and which layer metric should move which
//! end-to-end metric, is written down in `perfbench/RATIONALE.md`.

use crate::harness::{thread_cpu_ns, Digest};
use diversifi::analysis::{CallRecord, QualityParams, Strategy};
use diversifi::chaos::{evaluate_plan, ChaosConfig, Violation};
use diversifi::corpus::{self, CallEnvironment, CorpusMix};
use diversifi::evaluation::testbed_location;
use diversifi::twonic::{
    run_temporal, run_temporal_cached, run_two_nic, run_two_nic_cached, TwoNicScenario,
};
use diversifi::world::{RunMode, RunReport, World, WorldConfig};
use diversifi_simcore::chaos::generate_plan;
use diversifi_simcore::{SeedFactory, SimDuration, SimTime, WorkerArena};
use diversifi_voip::{StreamSpec, StreamTrace, DEFAULT_DEADLINE};
use diversifi_wifi::{ChannelRealization, LinkConfig, RealizationCache};

/// Call length of one `s6-tcp` arm. A 120 s pair costs ~0.5 s of host
/// time, which leaves too few ops in a run for a tail percentile; 20 s
/// pairs (~80 ms) give a few hundred.
pub const TCP_CALL: SimDuration = SimDuration::from_secs(20);

/// The worst-window length of every "worst 5 seconds" figure.
const WORST_WINDOW: SimDuration = SimDuration::from_secs(5);

/// The four §4 strategies a corpus call is scored under.
const S4_STRATEGIES: [Strategy; 4] = [
    Strategy::Stronger,
    Strategy::Better,
    Strategy::Divert,
    Strategy::CrossLink,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    S4Corpus,
    S6Paired,
    S6Tcp,
    ChaosScan,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::S4Corpus,
        Workload::S6Paired,
        Workload::S6Tcp,
        Workload::ChaosScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::S4Corpus => "s4-corpus",
            Workload::S6Paired => "s6-paired",
            Workload::S6Tcp => "s6-tcp",
            Workload::ChaosScan => "chaos-scan",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per second of `--seconds`: the op count of a run is this rate
    /// times the requested seconds, so the op list is fixed by
    /// `(workload, seed, seconds)` and a run on two workers lasts at most
    /// about the requested time on the reference host (2 cores, release
    /// build). At 15 s the counts sit just below a tail-percentile step
    /// (990 ops: p95 with 49 beyond; 9,900: p99 with 99 beyond) where
    /// one is near, because a tail with only ~10 samples beyond it
    /// spreads by tens of percent from run to run.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::S4Corpus => 150.0,
            Workload::S6Paired => 66.0,
            Workload::S6Tcp => 28.0,
            Workload::ChaosScan => 660.0,
        }
    }

    pub fn op_count(self, seconds: u64) -> usize {
        ((self.ops_per_second() * seconds as f64).round() as usize).max(1)
    }

    /// The op list of a run: a pure function of `(workload, seed, n)`.
    pub fn inputs(self, seed: u64, n: usize) -> Inputs {
        let seeds = SeedFactory::new(seed);
        match self {
            // Exactly the environments `analysis::run_corpus` draws for the
            // paper corpus (paper mix, SISO, shared fate), so op i is call
            // i of that corpus.
            Workload::S4Corpus => Inputs::S4(corpus::generate_tuned(
                n,
                &CorpusMix::default(),
                &seeds,
                1,
                true,
            )),
            // The seed families of `run_eval_corpus` and `run_tcp_corpus`.
            Workload::S6Paired | Workload::S6Tcp => {
                let label = if self == Workload::S6Tcp {
                    "tcp-run"
                } else {
                    "eval-run"
                };
                Inputs::S6(
                    (0..n)
                        .map(|i| {
                            let call = seeds.subfactory(label, i as u64);
                            let (p, s) = testbed_location(&mut call.stream("location", 0));
                            (p, s, call)
                        })
                        .collect(),
                )
            }
            Workload::ChaosScan => Inputs::Chaos(Box::new((ChaosConfig::new(seed), seeds))),
        }
    }

    /// A worker's private state. Cache capacities match the sweeps each
    /// workload stands for.
    pub fn worker(self, traced: bool) -> Worker {
        let capacity = match self {
            Workload::S6Paired => 16,
            _ => 8,
        };
        Worker {
            cache: RealizationCache::new(capacity),
            arena: WorkerArena::new(),
            timers: Timers {
                on: traced,
                ns: [0; SPAN_COUNT],
            },
        }
    }
}

/// The op list of one run.
pub enum Inputs {
    S4(Vec<(CallEnvironment, SeedFactory)>),
    S6(Vec<(LinkConfig, LinkConfig, SeedFactory)>),
    /// The chaos configuration and the seeds plan `i` is drawn from inside
    /// op `i`: generation is part of the measured op.
    Chaos(Box<(ChaosConfig, SeedFactory)>),
}

pub struct Worker {
    pub cache: RealizationCache,
    pub arena: WorkerArena,
    pub timers: Timers,
}

/// What a worker's state leaves behind once its last op has run.
pub struct WorkerReport {
    pub span_ns: [u64; SPAN_COUNT],
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Worker {
    pub fn report(self) -> WorkerReport {
        let (cache_hits, cache_misses) = self.cache.stats();
        WorkerReport {
            span_ns: self.timers.ns,
            cache_hits,
            cache_misses,
        }
    }
}

/// The layer calls the traced run times, one accumulator each.
#[derive(Clone, Copy, Debug)]
pub enum Span {
    Materialize,
    Pipeline,
    Select,
    Quality,
    Build,
    RunPrimary,
    RunSecondary,
    RunDiversifi,
    RunPrimaryTcp,
    RunDiversifiTcp,
    ChaosGenerate,
    ChaosEvaluate,
}

pub const SPAN_COUNT: usize = 12;

/// Per-worker span timers on the thread CPU clock (the clock per-op
/// latency is read on), held in memory and read after the run. When off,
/// `time` calls straight through without reading the clock.
pub struct Timers {
    on: bool,
    pub ns: [u64; SPAN_COUNT],
}

impl Timers {
    fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = thread_cpu_ns();
        let r = f();
        self.ns[span as usize] += thread_cpu_ns() - t0;
        r
    }
}

/// What one op produced: a digest of its simulated outputs, the facts the
/// metrics are computed from, and an oracle verdict (chaos-scan only).
#[derive(Clone, Debug, Default)]
pub struct OpOut {
    pub hash: u64,
    pub facts: Facts,
    pub violation: Option<String>,
}

/// Per-op quantities taken from the simulated outputs. Summed in op
/// order, they give every fidelity and count metric of a run.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    /// Calls of the replicated arm (CrossLink on §4, DiversiFi on §6).
    pub dvf_calls: u64,
    /// Of those, calls the E-model rates poor.
    pub dvf_poor: u64,
    /// Worst 5 s window loss (%) of the replicated arm's call.
    pub dvf_worst5s_pct: f64,
    /// Stream packets of the replicated arm.
    pub stream_packets: u64,
    /// DiversiFi arm: frames sent over the secondary air interface, and
    /// the wasteful ones among them.
    pub secondary_air_tx: u64,
    pub wasteful_tx: u64,
    /// Algorithm 1 visits (recovery + keepalive + probe) and recoveries.
    pub alg_visits: u64,
    pub alg_recovered: u64,
    /// TCP goodput with DiversiFi off and on (bit/s).
    pub tcp_off_bps: f64,
    pub tcp_on_bps: f64,
    /// TCP worlds run, their transmissions and retransmissions.
    pub tcp_worlds: u64,
    pub tcp_tx: u64,
    pub tcp_retx: u64,
    /// Chaos: plans generated, empty plans, fault windows.
    pub plans: u64,
    pub empty_plans: u64,
    pub fault_windows: u64,
}

/// Run op `i` of `inputs`. `reference` takes the uncached path through
/// every layer instead (`run_two_nic`, `World::new`), whose outputs must
/// be bit-identical; it is the run's correctness check.
pub fn run_op(
    workload: Workload,
    inputs: &Inputs,
    i: usize,
    w: &mut Worker,
    reference: bool,
) -> Result<OpOut, String> {
    match (workload, inputs) {
        (Workload::S4Corpus, Inputs::S4(calls)) => {
            let (env, seeds) = &calls[i];
            s4_op(env, seeds, w, reference)
        }
        (Workload::S6Paired, Inputs::S6(locs)) | (Workload::S6Tcp, Inputs::S6(locs)) => {
            let (p, s, seeds) = &locs[i];
            s6_op(p, s, seeds, workload == Workload::S6Tcp, w, reference)
        }
        (Workload::ChaosScan, Inputs::Chaos(chaos)) => chaos_op(&chaos.0, &chaos.1, i as u64, w),
        _ => unreachable!("inputs are always generated by their own workload"),
    }
}

/// The horizon both the two-NIC pipeline and `World` materialise
/// channels over: the stream plus a 0.5 s drain tail and 2 s of slack.
fn channel_horizon(duration: SimDuration) -> SimTime {
    SimTime::ZERO + duration + SimDuration::from_millis(2_500)
}

fn hash_trace(d: &mut Digest, t: &StreamTrace) {
    d.u64(t.fates.len() as u64);
    for f in &t.fates {
        d.u64(f.sent.as_nanos());
        d.u64(f.arrival.map_or(u64::MAX, |a| a.as_nanos()));
    }
}

fn covers(what: &str, t: &StreamTrace, spec: &StreamSpec) -> Result<(), String> {
    let want = spec.packet_count() as usize;
    if t.fates.len() == want {
        Ok(())
    } else {
        Err(format!(
            "{what} trace holds {} packets, stream has {want}",
            t.fates.len()
        ))
    }
}

fn s4_op(
    env: &CallEnvironment,
    seeds: &SeedFactory,
    w: &mut Worker,
    reference: bool,
) -> Result<OpOut, String> {
    let spec = StreamSpec::voip();
    let stronger = if env.link_a.mean_rssi_dbm() >= env.link_b.mean_rssi_dbm() {
        &env.link_a
    } else {
        &env.link_b
    };
    let Worker { cache, timers, .. } = w;
    if timers.on {
        // Warm every realisation the pipeline will ask for: both links,
        // plus the temporal runs' link-0 key when link B is the stronger.
        let mut keys = vec![(&env.link_a, 0), (&env.link_b, 1)];
        if !std::ptr::eq(stronger, &env.link_a) {
            keys.push((stronger, 0));
        }
        timers.time(Span::Materialize, || {
            cache.get_or_materialize_batch(&keys, seeds, channel_horizon(spec.duration))
        });
    }
    let record = timers.time(Span::Pipeline, || {
        let scn = TwoNicScenario::new(spec, env.link_a.clone(), env.link_b.clone());
        let zero = SimDuration::ZERO;
        let hundred = SimDuration::from_millis(100);
        let (run, t0, t100) = if reference {
            (
                run_two_nic(&scn, seeds),
                run_temporal(&spec, stronger, seeds, zero),
                run_temporal(&spec, stronger, seeds, hundred),
            )
        } else {
            (
                run_two_nic_cached(&scn, seeds, cache),
                run_temporal_cached(&spec, stronger, seeds, zero, cache),
                run_temporal_cached(&spec, stronger, seeds, hundred, cache),
            )
        };
        CallRecord {
            impairment: env.impairment,
            a: run.a,
            b: run.b,
            temporal_0: Some(t0),
            temporal_100: Some(t100),
        }
    });
    let traces: Vec<StreamTrace> = timers.time(Span::Select, || {
        S4_STRATEGIES.map(|s| record.strategy_trace(s)).to_vec()
    });
    let q = QualityParams::default();
    let scores: Vec<(f64, f64)> = timers.time(Span::Quality, || {
        traces
            .iter()
            .map(|t| {
                (
                    q.mos(t),
                    t.worst_window_loss_pct(WORST_WINDOW, DEFAULT_DEADLINE),
                )
            })
            .collect()
    });

    fn temporal(t: &Option<StreamTrace>) -> &StreamTrace {
        t.as_ref().expect("temporal runs were simulated")
    }
    let mut d = Digest::default();
    for (what, t) in [
        ("link A", &record.a.trace),
        ("link B", &record.b.trace),
        ("temporal 0", temporal(&record.temporal_0)),
        ("temporal 100", temporal(&record.temporal_100)),
    ] {
        covers(what, t, &spec)?;
        hash_trace(&mut d, t);
    }
    for ((s, t), (mos, worst)) in S4_STRATEGIES.iter().zip(&traces).zip(&scores) {
        covers(&format!("{s:?}"), t, &spec)?;
        hash_trace(&mut d, t);
        d.f64(*mos);
        d.f64(*worst);
    }
    // CrossLink is the replicated arm on §4.
    let cross = S4_STRATEGIES
        .iter()
        .position(|s| *s == Strategy::CrossLink)
        .expect("scored");
    let (cross_mos, cross_worst) = scores[cross];
    Ok(OpOut {
        hash: d.0,
        facts: Facts {
            dvf_calls: 1,
            dvf_poor: u64::from(cross_mos < q.pcr.poor_mos),
            dvf_worst5s_pct: cross_worst,
            stream_packets: spec.packet_count(),
            ..Facts::default()
        },
        violation: None,
    })
}

/// Checks every world arm must pass, whatever its mode.
fn check_arm(arm: &str, r: &RunReport, cfg: &WorldConfig) -> Result<(), String> {
    covers(arm, &r.trace, &cfg.spec)?;
    if r.secondary_wasteful_tx > r.secondary_air_tx {
        return Err(format!(
            "{arm}: {} wasteful secondary transmissions out of {}",
            r.secondary_wasteful_tx, r.secondary_air_tx
        ));
    }
    // One recovery visit drains every queued replica, so recoveries may
    // outnumber visits; each recovery does need its own useful (not
    // wasteful) secondary transmission.
    let useful = r.secondary_air_tx - r.secondary_wasteful_tx;
    if r.alg_stats.recovered_on_secondary > useful {
        return Err(format!(
            "{arm}: {} packets recovered from {useful} useful secondary transmissions",
            r.alg_stats.recovered_on_secondary
        ));
    }
    let (tx, acked, _, _) = r.tcp_diag;
    if acked > tx {
        return Err(format!(
            "{arm}: {acked} TCP segments acked of {tx} transmitted"
        ));
    }
    Ok(())
}

fn hash_report(d: &mut Digest, r: &RunReport) {
    hash_trace(d, &r.trace);
    let a = &r.alg_stats;
    for v in [
        r.primary_deliveries,
        r.secondary_air_tx,
        r.secondary_wasteful_tx,
        a.recovery_visits,
        a.keepalive_visits,
        a.recovered_on_secondary,
        a.duplicate_packets,
        a.expired_losses,
        a.cancelled_visits,
        a.probe_visits,
        a.degraded_entries,
        a.degraded_ns,
        r.tcp_diag.0,
        r.tcp_diag.1,
        r.tcp_diag.2,
        r.tcp_diag.3,
        r.switch_delays.len() as u64,
    ] {
        d.u64(v);
    }
    d.f64(r.tcp_throughput_bps);
}

fn s6_op(
    primary: &LinkConfig,
    secondary: &LinkConfig,
    seeds: &SeedFactory,
    tcp: bool,
    w: &mut Worker,
    reference: bool,
) -> Result<OpOut, String> {
    let mut cfg = WorldConfig::testbed(primary.clone(), secondary.clone());
    let arms: &[(RunMode, Span, &str)] = if tcp {
        cfg.with_tcp = true;
        cfg.spec.duration = TCP_CALL;
        &[
            (RunMode::PrimaryOnly, Span::RunPrimaryTcp, "primary-tcp"),
            (
                RunMode::DiversifiCustomAp,
                Span::RunDiversifiTcp,
                "diversifi-tcp",
            ),
        ]
    } else {
        &[
            (RunMode::PrimaryOnly, Span::RunPrimary, "primary"),
            (RunMode::SecondaryOnly, Span::RunSecondary, "secondary"),
            (RunMode::DiversifiCustomAp, Span::RunDiversifi, "diversifi"),
        ]
    };
    let Worker {
        cache,
        arena,
        timers,
    } = w;
    if timers.on {
        timers.time(Span::Materialize, || {
            cache.get_or_materialize_batch(
                &[(primary, 0), (secondary, 1)],
                seeds,
                channel_horizon(cfg.spec.duration),
            )
        });
    }

    let mut d = Digest::default();
    let mut facts = Facts::default();
    for &(mode, span, label) in arms {
        cfg.mode = mode;
        let r = if reference {
            World::new(&cfg, seeds).run()
        } else {
            let world = timers.time(Span::Build, || {
                World::new_cached_in(&cfg, seeds, cache, arena)
            });
            timers.time(span, || world.run_in(arena))
        };
        check_arm(label, &r, &cfg)?;
        hash_report(&mut d, &r);
        if tcp {
            facts.tcp_worlds += 1;
            facts.tcp_tx += r.tcp_diag.0;
            facts.tcp_retx += r.tcp_diag.2 + r.tcp_diag.3;
        }
        match mode {
            RunMode::PrimaryOnly => facts.tcp_off_bps = r.tcp_throughput_bps,
            RunMode::DiversifiCustomAp => {
                let q = QualityParams::default();
                let a = &r.alg_stats;
                facts.dvf_calls = 1;
                facts.dvf_poor = u64::from(q.is_poor(&r.trace));
                facts.dvf_worst5s_pct = r
                    .trace
                    .worst_window_loss_pct(WORST_WINDOW, DEFAULT_DEADLINE);
                facts.stream_packets = r.trace.len() as u64;
                facts.secondary_air_tx = r.secondary_air_tx;
                facts.wasteful_tx = r.secondary_wasteful_tx;
                facts.alg_visits = a.recovery_visits + a.keepalive_visits + a.probe_visits;
                facts.alg_recovered = a.recovered_on_secondary;
                facts.tcp_on_bps = r.tcp_throughput_bps;
            }
            _ => {}
        }
    }
    Ok(OpOut {
        hash: d.0,
        facts,
        violation: None,
    })
}

fn chaos_op(
    cfg: &ChaosConfig,
    seeds: &SeedFactory,
    i: u64,
    w: &mut Worker,
) -> Result<OpOut, String> {
    let Worker { timers, .. } = w;
    let plan = timers.time(Span::ChaosGenerate, || generate_plan(seeds, i, &cfg.budget));
    if timers.on && !plan.is_empty() {
        // `evaluate_plan` builds uncached worlds, each materialising this
        // batch again; timing one batch here shows what that layer costs
        // inside the op.
        let world_seeds = SeedFactory::new(cfg.seed).subfactory("chaos.world", i);
        timers.time(Span::Materialize, || {
            ChannelRealization::materialize_batch(
                &[(&cfg.primary, 0), (&cfg.secondary, 1)],
                &world_seeds,
                channel_horizon(cfg.budget.horizon),
            )
        });
    }
    let verdict = timers.time(Span::ChaosEvaluate, || {
        evaluate_plan(cfg, cfg.seed, i, &plan)
    });

    let windows = plan.windows();
    let mut d = Digest::default();
    d.u64(windows.len() as u64);
    for w in &windows {
        d.u64(w.fault as u64);
        d.u64(w.start.as_nanos());
        d.u64(w.end.as_nanos());
    }
    let violation = judge(verdict, &mut d)?;
    Ok(OpOut {
        hash: d.0,
        facts: Facts {
            plans: 1,
            empty_plans: u64::from(plan.is_empty()),
            fault_windows: windows.len() as u64,
            ..Facts::default()
        },
        violation,
    })
}

/// A chaos verdict as an op result. An oracle violation is a failed op
/// whose verdict is part of the output: it is the program's known defect,
/// reported, not a broken run. An `engine-panic` verdict means the world
/// engine panicked under the plan (`evaluate_plan` catches it); that is a
/// broken op, like a panic anywhere else in an op.
fn judge(verdict: Option<Violation>, d: &mut Digest) -> Result<Option<String>, String> {
    match verdict {
        None => Ok(None),
        Some(v) if v.oracle == "engine-panic" => {
            Err(format!("world engine panicked: {}", v.detail))
        }
        Some(v) => {
            d.u64(v.oracle.len() as u64);
            d.f64(v.delta);
            Ok(Some(format!("{} oracle: {}", v.oracle, v.detail)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(oracle: &'static str) -> Option<Violation> {
        Some(Violation {
            oracle,
            detail: "detail".to_string(),
            delta: 1.0,
        })
    }

    #[test]
    fn engine_panics_break_the_op_and_oracle_violations_fail_it() {
        let mut d = Digest::default();
        assert_eq!(judge(None, &mut d), Ok(None));
        assert_eq!(d, Digest::default(), "a clean verdict hashes nothing");

        let failed = judge(violation("no-amplification"), &mut d);
        assert_eq!(
            failed,
            Ok(Some("no-amplification oracle: detail".to_string()))
        );
        assert_ne!(d, Digest::default(), "a violation is part of the output");

        let broken = judge(violation("engine-panic"), &mut Digest::default());
        assert_eq!(
            broken,
            Err("world engine panicked: detail".to_string()),
            "an engine panic is a broken op"
        );
    }
}
