//! The §6 single-NIC evaluation: the 61-run testbed corpus (Figs. 8–9,
//! §6.3 overhead), the 26-run TCP coexistence experiment (Fig. 10), the
//! Table 3 delay breakdown, the §6.4 middlebox scalability sweep, and the
//! multi-client office fleet (everyone running DiversiFi at once).

use crate::scenario::LinkQuality;
use crate::world::{ExtraClient, RunMode, RunReport, SwitchDelaySample, World, WorldConfig};
use diversifi_net::{Middlebox, MiddleboxConfig};
use diversifi_simcore::{mean, RngStream, SeedFactory, SweepRunner, WorkerArena};
use diversifi_voip::{StreamSpec, StreamTrace};
use diversifi_wifi::{Channel, FlowId, GeParams, LinkConfig, RealizationCache};
use serde::Serialize;

/// One office location of the §6.1 testbed: a decent primary and a much
/// weaker secondary (the paper's secondary had a 26.2% PCR on its own).
pub fn testbed_location(rng: &mut RngStream) -> (LinkConfig, LinkConfig) {
    // A "marginal" office link: clearly worse than healthy, not yet awful.
    // The preset lives in the scenario schema's shared quality catalog.
    let marginal = LinkQuality::Marginal.ge_params();

    // Primary: healthy at most spots; a sizeable minority of marginal or
    // outright weak corners (the paper's primary averaged 1.97% loss with
    // a 4.9% PCR — real offices have bad spots).
    let mut primary = LinkConfig::office(Channel::CH1, rng.range_f64(9.0, 22.0));
    let p = rng.uniform();
    if p < 0.10 {
        primary.distance_m = rng.range_f64(24.0, 34.0);
        primary.ge = GeParams::weak_link();
    } else if p < 0.48 {
        primary.distance_m = rng.range_f64(20.0, 30.0);
        primary.ge = marginal;
    }

    // Secondary: the far AP. Bimodal, like the paper's (its stand-alone PCR
    // was 26.2% but its worst windows reached 52%): usually just weaker
    // than the primary, sometimes outright bad.
    let mut secondary =
        LinkConfig::office(Channel::CH11, primary.distance_m + rng.range_f64(4.0, 14.0));
    let q = rng.uniform();
    if q < 0.22 {
        // An awful far corner: drives the paper-style 52% worst windows.
        secondary.distance_m += rng.range_f64(10.0, 20.0);
        secondary.ge = LinkQuality::Awful.ge_params();
    } else if q < 0.6 {
        secondary.ge = marginal;
    }
    (primary, secondary)
}

/// The three paired runs of one §6.2 location.
#[derive(Clone, Debug)]
pub struct EvalRun {
    /// Client pinned to the primary link (baseline).
    pub primary: RunReport,
    /// Client pinned to the secondary link (baseline).
    pub secondary: RunReport,
    /// DiversiFi (customized-AP mode).
    pub diversifi: RunReport,
}

/// Options for the §6 corpus.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Number of locations/runs (61 in the paper).
    pub n_runs: usize,
    /// DiversiFi deployment mode for the diversifi arm.
    pub mode: RunMode,
    /// Worker threads.
    pub threads: usize,
    /// Fetch channel realisations through a per-worker cache so the three
    /// paired arms of a location sample each `(link, seed)` environment
    /// exactly once. Output is bit-identical either way (replay is the only
    /// sampling path); `false` re-materialises per arm, kept for parity
    /// testing and cache-overhead measurement.
    pub use_realization_cache: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            n_runs: 61,
            mode: RunMode::DiversifiCustomAp,
            threads: diversifi_simcore::par::default_parallelism(),
            use_realization_cache: true,
        }
    }
}

/// Run the paired §6.2 corpus: each location is simulated under all three
/// client behaviours with the same seed family.
pub fn run_eval_corpus(opts: &EvalOptions, seed: u64) -> Vec<EvalRun> {
    let seeds = SeedFactory::new(seed);
    let locations: Vec<(LinkConfig, LinkConfig, SeedFactory)> = (0..opts.n_runs)
        .map(|i| {
            let call_seeds = seeds.subfactory("eval-run", i as u64);
            let mut rng = call_seeds.stream("location", 0);
            let (p, s) = testbed_location(&mut rng);
            (p, s, call_seeds)
        })
        .collect();

    SweepRunner::new(opts.threads).run_with(
        &locations,
        || (RealizationCache::new(16), WorkerArena::new()),
        |_, (p, s, call_seeds), (cache, arena)| {
            let mut cfg = WorldConfig::testbed(p.clone(), s.clone());
            let mut run_one = |mode: RunMode, arena: &mut WorkerArena| {
                cfg.mode = mode;
                if opts.use_realization_cache {
                    World::new_cached_in(&cfg, call_seeds, cache, arena).run_in(arena)
                } else {
                    World::new(&cfg, call_seeds).run()
                }
            };
            EvalRun {
                primary: run_one(RunMode::PrimaryOnly, arena),
                secondary: run_one(RunMode::SecondaryOnly, arena),
                diversifi: run_one(opts.mode, arena),
            }
        },
    )
}

/// Traces of one arm of the corpus.
pub fn arm_traces(runs: &[EvalRun], pick: impl Fn(&EvalRun) -> &RunReport) -> Vec<StreamTrace> {
    runs.iter().map(|r| pick(r).trace.clone()).collect()
}

/// §6.3 overhead summary.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct OverheadSummary {
    /// Mean loss rate (%) on the primary link alone, over whole calls.
    pub primary_loss_pct: f64,
    /// Mean residual loss (%) with DiversiFi.
    pub diversifi_loss_pct: f64,
    /// Wastefully duplicated packets as % of the stream.
    pub wasteful_dup_pct: f64,
    /// All secondary-air transmissions as % of the stream (naive
    /// replication would be ~100%).
    pub secondary_air_pct: f64,
}

/// Compute the §6.3 overhead numbers from the corpus.
pub fn overhead_summary(runs: &[EvalRun]) -> OverheadSummary {
    let n_pkts: u64 = runs.iter().map(|r| r.diversifi.trace.len() as u64).sum();
    let deadline = diversifi_voip::DEFAULT_DEADLINE;
    let primary_loss: f64 = mean(
        &runs.iter().map(|r| r.primary.trace.loss_rate(deadline) * 100.0).collect::<Vec<_>>(),
    );
    let dvf_loss: f64 = mean(
        &runs.iter().map(|r| r.diversifi.trace.loss_rate(deadline) * 100.0).collect::<Vec<_>>(),
    );
    let wasteful: u64 = runs.iter().map(|r| r.diversifi.secondary_wasteful_tx).sum();
    let air: u64 = runs.iter().map(|r| r.diversifi.secondary_air_tx).sum();
    OverheadSummary {
        primary_loss_pct: primary_loss,
        diversifi_loss_pct: dvf_loss,
        wasteful_dup_pct: 100.0 * wasteful as f64 / n_pkts as f64,
        secondary_air_pct: 100.0 * air as f64 / n_pkts as f64,
    }
}

/// One paired Fig. 10 run: TCP throughput with DiversiFi off and on.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct TcpPair {
    /// Throughput with the client pinned to the primary (bps).
    pub off_bps: f64,
    /// Throughput with DiversiFi running (bps).
    pub on_bps: f64,
}

/// Run the Fig. 10 coexistence corpus (26 paired runs in the paper).
pub fn run_tcp_corpus(n_runs: usize, threads: usize, seed: u64) -> Vec<TcpPair> {
    let seeds = SeedFactory::new(seed);
    SweepRunner::new(threads).run_indexed_with(
        n_runs,
        || (RealizationCache::new(8), WorkerArena::new()),
        |i, (cache, arena)| {
            let call_seeds = seeds.subfactory("tcp-run", i as u64);
            let mut rng = call_seeds.stream("location", 0);
            let (p, s) = testbed_location(&mut rng);
            let mut cfg = WorldConfig::testbed(p, s);
            cfg.with_tcp = true;
            let mut run_one = |mode: RunMode, arena: &mut WorkerArena| {
                cfg.mode = mode;
                World::new_cached_in(&cfg, &call_seeds, cache, arena).run_in(arena).tcp_throughput_bps
            };
            TcpPair {
                off_bps: run_one(RunMode::PrimaryOnly, arena),
                on_bps: run_one(RunMode::DiversifiCustomAp, arena),
            }
        },
    )
}

/// Table 3: mean recovery-delay breakdown for the two deployments.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Table3Row {
    /// Mean total (ms).
    pub total_ms: f64,
    /// Mean switching component (ms).
    pub switching_ms: f64,
    /// Mean network component (ms).
    pub network_ms: f64,
    /// Mean middlebox queueing (ms); 0 in AP mode.
    pub queuing_ms: f64,
}

/// Aggregate switch-delay samples into a Table 3 row.
pub fn table3_row(samples: &[SwitchDelaySample]) -> Table3Row {
    let f = |g: fn(&SwitchDelaySample) -> f64| mean(&samples.iter().map(g).collect::<Vec<_>>());
    Table3Row {
        total_ms: f(|s| s.total_ms()),
        switching_ms: f(|s| s.switching_ms),
        network_ms: f(|s| s.network_ms),
        queuing_ms: f(|s| s.queuing_ms),
    }
}

/// Collect ≥ `min_samples` switch-delay samples for a deployment mode by
/// running testbed calls until enough switches were observed (the paper
/// measured 100).
pub fn measure_switch_delays(mode: RunMode, min_samples: usize, seed: u64) -> Vec<SwitchDelaySample> {
    let seeds = SeedFactory::new(seed);
    let runner = SweepRunner::available();
    let mut samples = Vec::new();
    let mut start = 0usize;
    // Rounds of speculative parallel runs. Appending stops at exactly the
    // run where the old serial loop would have stopped (the length check
    // happens before each run's samples are appended, in index order), so
    // the output is identical for any worker count — later runs in a round
    // are just discarded speculation.
    while samples.len() < min_samples && start < 64 {
        let n = runner.threads().min(64 - start);
        let rounds = runner.run_indexed(n, |k| {
            let call_seeds = seeds.subfactory("t3-run", (start + k) as u64);
            let mut rng = call_seeds.stream("location", 0);
            let (p, s) = testbed_location(&mut rng);
            let mut cfg = WorldConfig::testbed(p, s);
            cfg.mode = mode;
            World::new(&cfg, &call_seeds).run().switch_delays
        });
        for delays in rounds {
            if samples.len() >= min_samples {
                break;
            }
            samples.extend(delays);
        }
        start += n;
    }
    samples
}

/// §6.4: recovery delay (switching + network + queueing) as a function of
/// concurrent streams registered at the middlebox.
pub fn middlebox_scalability(loads: &[usize]) -> Vec<(usize, f64)> {
    loads
        .iter()
        .map(|&n| {
            let mut mbox = Middlebox::new(MiddleboxConfig::default());
            for i in 0..n {
                mbox.register(FlowId(i as u32), None);
            }
            // switching 2.3 ms + PS 0.5 ms absorbed in switching per Table 3
            // taxonomy; network 2.0 ms; queueing from the loaded middlebox.
            let total_ms = 2.3 + 2.0 + mbox.service_delay().as_millis_f64();
            (n, total_ms)
        })
        .collect()
}

/// `n` clients spread over the office, sharing the two APs, all running
/// customized-AP DiversiFi (or none, for the baseline). The first client
/// is the configured one; the rest are [`WorldConfig::extra_clients`].
pub fn office_fleet(
    n: usize,
    diversifi: bool,
    spec: StreamSpec,
    seeds: &SeedFactory,
) -> WorldConfig {
    let mut rng = seeds.stream("fleet-layout", 0);
    let mut clients = (0..n).map(|_| {
        let mut primary = LinkConfig::office(Channel::CH1, rng.range_f64(10.0, 24.0));
        if rng.chance(0.25) {
            primary.ge = GeParams::weak_link();
        }
        let mut secondary =
            LinkConfig::office(Channel::CH11, primary.distance_m + rng.range_f64(4.0, 16.0));
        if rng.chance(0.5) {
            secondary.ge = GeParams::weak_link();
        }
        ExtraClient { primary, secondary, diversifi }
    });
    let first = clients.next().expect("a fleet has at least one client");
    let mut cfg = WorldConfig::testbed(first.primary, first.secondary);
    cfg.spec = spec;
    cfg.mode = if diversifi { RunMode::DiversifiCustomAp } else { RunMode::PrimaryOnly };
    cfg.extra_clients = clients.collect();
    cfg
}

/// Paired baseline/DiversiFi fleet runs over several fleet sizes, executed
/// on the shared [`SweepRunner`].
///
/// Each fleet size derives its own `SeedFactory` via `seed_for(n)`, and the
/// two arms of a pair share that factory so they see the same office layout
/// and channel realisations (A/B pairing). Every run is a pure function of
/// its own factory, so the output is bit-identical at any worker count.
/// Returns `(n, baseline, diversifi)` rows in `sizes` order.
pub fn fleet_sweep(
    sizes: &[usize],
    spec: StreamSpec,
    seed_for: impl Fn(usize) -> u64 + Sync,
) -> Vec<(usize, RunReport, RunReport)> {
    let reports = SweepRunner::available().run_indexed(sizes.len() * 2, |idx| {
        let n = sizes[idx / 2];
        let seeds = SeedFactory::new(seed_for(n));
        World::new(&office_fleet(n, idx % 2 == 1, spec, &seeds), &seeds).run()
    });
    let mut it = reports.into_iter();
    sizes
        .iter()
        .map(|&n| {
            let base = it.next().expect("two reports per size");
            let dvf = it.next().expect("two reports per size");
            (n, base, dvf)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::SimDuration;
    use diversifi_voip::DEFAULT_DEADLINE;

    fn small_eval() -> Vec<EvalRun> {
        let n_runs = if cfg!(debug_assertions) { 4 } else { 8 };
        let opts = EvalOptions { n_runs, ..Default::default() };
        run_eval_corpus(&opts, 0xE7A1)
    }

    #[test]
    fn fig8_ordering_diversifi_best_secondary_worst() {
        let runs = small_eval();
        let d = DEFAULT_DEADLINE;
        let loss =
            |pick: fn(&EvalRun) -> &RunReport| {
                mean(&runs.iter().map(|r| pick(r).trace.loss_rate(d)).collect::<Vec<_>>())
            };
        let lp = loss(|r| &r.primary);
        let ls = loss(|r| &r.secondary);
        let ld = loss(|r| &r.diversifi);
        assert!(ls > lp, "secondary ({ls}) should be worse than primary ({lp})");
        assert!(ld < lp, "diversifi ({ld}) should beat primary ({lp})");
        assert!(ld < 0.4 * lp, "diversifi should recover most losses: {ld} vs {lp}");
    }

    #[test]
    fn overhead_summary_within_paper_ballpark() {
        let runs = small_eval();
        let o = overhead_summary(&runs);
        assert!(o.primary_loss_pct > 0.1, "primary loss {}", o.primary_loss_pct);
        assert!(o.primary_loss_pct < 8.0, "primary loss {}", o.primary_loss_pct);
        assert!(o.diversifi_loss_pct < 0.4 * o.primary_loss_pct);
        assert!(o.wasteful_dup_pct < 3.0, "waste {}", o.wasteful_dup_pct);
        assert!(o.secondary_air_pct < 10.0, "air {}", o.secondary_air_pct);
    }

    #[test]
    fn tcp_corpus_shows_small_impact() {
        let pairs = run_tcp_corpus(6, 4, 0x7C9);
        let off = mean(&pairs.iter().map(|p| p.off_bps).collect::<Vec<_>>());
        let on = mean(&pairs.iter().map(|p| p.on_bps).collect::<Vec<_>>());
        assert!(off > 1e6, "absolute TCP throughput too low: {off}");
        let degradation = (off - on) / off;
        assert!(degradation < 0.12, "degradation {:.1}%", degradation * 100.0);
        assert!(degradation > -0.12, "suspicious speedup {:.1}%", degradation * 100.0);
    }

    #[test]
    fn table3_components() {
        let ap = table3_row(&measure_switch_delays(RunMode::DiversifiCustomAp, 30, 1));
        let mb = table3_row(&measure_switch_delays(RunMode::DiversifiMiddlebox, 30, 1));
        assert!((ap.total_ms - 2.8).abs() < 0.6, "AP total {}", ap.total_ms);
        assert!((mb.total_ms - 5.2).abs() < 1.2, "middlebox total {}", mb.total_ms);
        assert!((ap.switching_ms - 2.3).abs() < 0.4);
        assert_eq!(ap.queuing_ms, 0.0);
        assert!(mb.queuing_ms > 0.5);
        assert!(mb.network_ms > ap.network_ms);
    }

    fn fleet_spec() -> StreamSpec {
        StreamSpec {
            packet_bytes: 160,
            interval: SimDuration::from_millis(20),
            duration: SimDuration::from_secs(if cfg!(debug_assertions) { 20 } else { 40 }),
        }
    }

    fn fleet(n: usize, diversifi: bool, seeds: &SeedFactory) -> RunReport {
        World::new(&office_fleet(n, diversifi, fleet_spec(), seeds), seeds).run()
    }

    #[test]
    fn fleet_of_diversifi_clients_all_benefit() {
        // One fleet pair at this scale (6 clients, short streams) is too
        // noisy to bound a ratio, so aggregate over a block of seeds; the
        // paper-scale halving claim is enforced in tests/paper_parity.rs.
        let n = 6;
        let mut base_sum = 0.0;
        let mut dvf_sum = 0.0;
        let mut recovered = 0u64;
        for s in 0x3171u64..0x3176 {
            let seeds = SeedFactory::new(s);
            let base = fleet(n, false, &seeds);
            let dvf = fleet(n, true, &seeds);
            assert_eq!(base.client_traces().count(), n);
            base_sum += base.mean_loss();
            dvf_sum += dvf.mean_loss();
            recovered += dvf.alg_stats.recovered_on_secondary
                + dvf.extra_clients.iter().map(|c| c.alg_stats.recovered_on_secondary).sum::<u64>();
        }
        assert!(
            dvf_sum < 0.5 * base_sum.max(0.01),
            "fleet DiversiFi {dvf_sum} vs baseline {base_sum} (summed over 5 fleets)"
        );
        assert!(recovered > 0, "cross-link recovery never fired");
    }

    #[test]
    fn contention_grows_but_does_not_collapse() {
        // VoIP is light: even 12 clients fit easily in one AP's airtime;
        // per-client loss must not explode with fleet size.
        let seeds = SeedFactory::new(0x3172);
        let small = fleet(2, true, &seeds);
        let big = fleet(12, true, &seeds);
        assert!(
            big.mean_loss() < small.mean_loss() + 0.05,
            "12 clients {} vs 2 clients {}",
            big.mean_loss(),
            small.mean_loss()
        );
    }

    #[test]
    fn secondary_air_overhead_scales_linearly_not_worse() {
        // Total secondary-air transmissions should grow roughly with the
        // number of clients (each contributes its own recoveries), not
        // blow up super-linearly from interaction effects.
        let seeds = SeedFactory::new(0x3173);
        let per4 = fleet(4, true, &seeds).secondary_air_tx as f64 / 4.0;
        let per8 = fleet(8, true, &seeds).secondary_air_tx as f64 / 8.0;
        assert!(
            per8 < per4 * 3.0 + 20.0,
            "per-client secondary air grew too fast: {per4} → {per8}"
        );
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let seeds = SeedFactory::new(0x3174);
        let a = fleet(3, true, &seeds);
        let b = fleet(3, true, &seeds);
        for (x, y) in a.client_traces().zip(b.client_traces()) {
            assert_eq!(x.fates, y.fates);
        }
        assert_eq!(a.secondary_air_tx, b.secondary_air_tx);
    }

    #[test]
    fn mixed_fleet_diversifi_does_not_hurt_bystanders() {
        // Half the clients run DiversiFi, half don't; the non-DiversiFi
        // clients' loss must be no worse than in an all-baseline fleet.
        let seeds = SeedFactory::new(0x3175);
        let all_base = fleet(6, false, &seeds);
        let mut mixed_cfg = office_fleet(6, false, fleet_spec(), &seeds);
        mixed_cfg.mode = RunMode::DiversifiCustomAp;
        for c in mixed_cfg.extra_clients.iter_mut().take(2) {
            c.diversifi = true;
        }
        let mixed = World::new(&mixed_cfg, &seeds).run();
        let bystander_loss = |r: &RunReport| {
            let loss: Vec<f64> =
                r.client_traces().skip(3).map(|t| t.loss_rate(DEFAULT_DEADLINE)).collect();
            mean(&loss)
        };
        let base_l = bystander_loss(&all_base);
        let mixed_l = bystander_loss(&mixed);
        assert!(
            mixed_l < base_l + 0.02,
            "bystanders worse off: {mixed_l} vs {base_l}"
        );
    }

    #[test]
    fn middlebox_scaling_gradual() {
        let sweep = middlebox_scalability(&[0, 250, 500, 750, 1000]);
        assert_eq!(sweep.len(), 5);
        let at0 = sweep[0].1;
        let at1000 = sweep[4].1;
        let delta = at1000 - at0;
        assert!((delta - 1.1).abs() < 0.1, "Δ at 1000 streams = {delta} ms (paper: 1.1)");
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1, "delay must be monotone in load");
        }
    }
}
