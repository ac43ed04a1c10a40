//! The repository benchmark: drives the workspace's public APIs as a
//! closed loop of two workers over a fixed op list generated from the seed.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload s6-paired --seed 7 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it give the run
//! manifest, every metric by name with its unit, the per-op latencies on
//! the wall clock, the fidelity metrics and the output digest.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. See `RATIONALE.md` for the op of each workload and what every
//! metric is meant to show.

mod calibrate;
mod harness;
mod workloads;

use diversifi_simcore::{quantile_unsorted, Ecdf};
use harness::{closed_loop, tail, thread_cpu_ns, valid_metric_name, Digest};
use serde_json::{json, Value};
use workloads::{run_op, Facts, Inputs, Span, WorkerReport, Workload, SPAN_COUNT};

/// Worker threads of the closed loop (the reference host has 2 cores).
const WORKERS: usize = 2;

/// Set-up is timed in batches of back-to-back set-ups that take at least
/// this much CPU time, so that a reading spans far more than the clock's
/// own cost even where one set-up takes microseconds.
const SETUP_BATCH_NS: u64 = 10_000_000;

/// The measured pass runs in this many stretches of the op list. Set-up
/// batches are timed before the first and after each one, so that, like
/// the op metrics, they sample the host over the whole run.
const SEGMENTS: usize = 5;

/// Set-up batches timed in each of the `SEGMENTS + 1` windows; the median
/// over all of them is reported.
const SETUP_BATCHES_PER_WINDOW: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <s4-corpus|s6-paired|s6-tcp|chaos-scan> --seed <u64> \
     --seconds <u64> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The reduced outcome of one closed-loop pass over the op list.
struct Pass {
    digest: Digest,
    attempted: usize,
    /// Ops that panicked, broke an output check, or (chaos-scan) tripped
    /// an oracle.
    failed: usize,
    /// Panics and broken output checks only: these make a run incorrect.
    broken: Vec<String>,
    /// Oracle verdicts: the program's known defects, counted as failed.
    violations: Vec<String>,
    /// Each op's output hash, `None` for ops that broke.
    hashes: Vec<Option<u64>>,
    /// Per-op CPU-clock latencies at the reference host speed: each op's
    /// raw latency divided by its host factor.
    latencies_ms: Vec<f64>,
    /// The same latencies as read, at whatever speed the host ran.
    raw_latencies_ms: Vec<f64>,
    /// Per-op wall-clock latencies, for comparison with the CPU-clock ones.
    wall_latencies_ms: Vec<f64>,
    wall_s: f64,
    /// How much slower than reference speed the host ran over the pass,
    /// weighted by op time: raw op time ÷ op time at reference speed.
    host: f64,
    facts: Vec<Facts>,
    workers: Vec<WorkerReport>,
}

/// Run the op list as a closed loop on `n_workers` workers, in
/// [`SEGMENTS`] stretches with `between` run in each pause.
fn execute(
    workload: Workload,
    inputs: &Inputs,
    n_ops: usize,
    n_workers: usize,
    traced: bool,
    between: impl FnMut(),
) -> Pass {
    let res = closed_loop(
        n_ops,
        n_workers,
        SEGMENTS,
        || workload.worker(traced),
        |i, w| run_op(workload, inputs, i, w, false),
        |w| w.report(),
        between,
    );
    let mut pass = Pass {
        digest: Digest::default(),
        attempted: n_ops,
        failed: 0,
        broken: Vec::new(),
        violations: Vec::new(),
        hashes: Vec::with_capacity(n_ops),
        latencies_ms: Vec::with_capacity(n_ops),
        raw_latencies_ms: Vec::with_capacity(n_ops),
        wall_latencies_ms: Vec::with_capacity(n_ops),
        wall_s: res.wall.as_secs_f64(),
        host: 1.0,
        facts: Vec::with_capacity(n_ops),
        workers: res.reports,
    };
    for (i, rec) in res.records.into_iter().enumerate() {
        pass.raw_latencies_ms.push(rec.latency_ns as f64 / 1e6);
        pass.latencies_ms
            .push(rec.latency_ns as f64 / 1e6 / rec.host);
        pass.wall_latencies_ms.push(rec.wall_ns as f64 / 1e6);
        match rec.result {
            Ok(out) => {
                pass.digest.u64(out.hash);
                pass.hashes.push(Some(out.hash));
                if let Some(v) = out.violation {
                    pass.failed += 1;
                    pass.violations.push(format!("op {i}: {v}"));
                }
                pass.facts.push(out.facts);
            }
            Err(e) => {
                pass.digest.u64(u64::MAX);
                pass.hashes.push(None);
                pass.failed += 1;
                pass.broken.push(format!("op {i}: {e}"));
            }
        }
    }
    pass.host = ratio(
        pass.raw_latencies_ms.iter().sum(),
        pass.latencies_ms.iter().sum(),
    );
    pass
}

/// Re-run op 0 through the uncached reference path (on chaos-scan, which
/// has no cached variant, the same path again): its outputs must be
/// bit-identical to what the measured pass produced.
fn reference_check(workload: Workload, inputs: &Inputs, pass: &Pass) -> bool {
    let mut w = workload.worker(false);
    match (run_op(workload, inputs, 0, &mut w, true), pass.hashes[0]) {
        (Ok(out), Some(h)) => out.hash == h,
        _ => false,
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn pct(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        100.0 * num / den
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sum(facts: &[Facts], f: impl Fn(&Facts) -> f64) -> f64 {
    facts.iter().map(f).sum()
}

/// The fidelity metrics: deterministic functions of the simulated outputs,
/// reported by the traced run among the per-layer metrics and printed by
/// every run. A workload whose ops do not run the arm a metric is taken
/// from reports 0 for it; `produced_by` says which workloads do.
fn fidelity_metrics(facts: &[Facts]) -> [Metric; 4] {
    let calls = sum(facts, |f| f.dvf_calls as f64);
    let mut worst: Vec<f64> = facts
        .iter()
        .filter(|f| f.dvf_calls > 0)
        .map(|f| f.dvf_worst5s_pct)
        .collect();
    let p90 = if worst.is_empty() {
        0.0
    } else {
        diversifi_simcore::quantile_unsorted(&mut worst, 0.9)
    };
    let packets = sum(facts, |f| f.stream_packets as f64);
    [
        (
            "dvf_pcr_pct",
            pct(sum(facts, |f| f.dvf_poor as f64), calls),
            "%",
        ),
        ("dvf_worst5s_p90_pct", p90, "%"),
        (
            "wasteful_dup_pct",
            pct(sum(facts, |f| f.wasteful_tx as f64), packets),
            "%",
        ),
        (
            "tcp_goodput_ratio",
            ratio(sum(facts, |f| f.tcp_on_bps), sum(facts, |f| f.tcp_off_bps)),
            "on/off",
        ),
    ]
}

/// Does `workload` run the arm fidelity metric `name` is taken from?
fn produced_by(workload: Workload, name: &str) -> bool {
    match name {
        "dvf_pcr_pct" | "dvf_worst5s_p90_pct" => workload != Workload::ChaosScan,
        "wasteful_dup_pct" => matches!(workload, Workload::S6Paired | Workload::S6Tcp),
        "tcp_goodput_ratio" => workload == Workload::S6Tcp,
        _ => false,
    }
}

fn per_layer_metrics(plain: &Pass, traced: &Pass, n_ops: usize) -> Vec<Metric> {
    let mut ns = [0u64; SPAN_COUNT];
    for w in &traced.workers {
        for (acc, v) in ns.iter_mut().zip(w.span_ns) {
            *acc += v;
        }
    }
    let per_op_ms = |s: Span| ns[s as usize] as f64 / 1e6 / n_ops as f64 / traced.host;
    // Hit ratio from the untraced pass: the traced pass warms the cache
    // before each layer call, which would count every warm as a hit.
    let hits: u64 = plain.workers.iter().map(|w| w.cache_hits).sum();
    let misses: u64 = plain.workers.iter().map(|w| w.cache_misses).sum();
    let f = &traced.facts;
    let dvf_calls = sum(f, |x| x.dvf_calls as f64);
    let visits = sum(f, |x| x.alg_visits as f64);
    let tcp_worlds = sum(f, |x| x.tcp_worlds as f64);
    let plans = sum(f, |x| x.plans as f64);
    let busy_s: f64 = plain.raw_latencies_ms.iter().sum::<f64>() / 1e3;
    let mut out = vec![
        (
            "wifi.realization.materialize_ms",
            per_op_ms(Span::Materialize),
            "ms",
        ),
        (
            "wifi.realization.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        ("core.twonic.pipeline_ms", per_op_ms(Span::Pipeline), "ms"),
        ("client.strategy.select_ms", per_op_ms(Span::Select), "ms"),
        ("voip.quality_ms", per_op_ms(Span::Quality), "ms"),
        ("core.world.build_ms", per_op_ms(Span::Build), "ms"),
        (
            "core.world.run_ms.primary",
            per_op_ms(Span::RunPrimary),
            "ms",
        ),
        (
            "core.world.run_ms.secondary",
            per_op_ms(Span::RunSecondary),
            "ms",
        ),
        (
            "core.world.run_ms.diversifi",
            per_op_ms(Span::RunDiversifi),
            "ms",
        ),
        (
            "core.world.run_ms.primary_tcp",
            per_op_ms(Span::RunPrimaryTcp),
            "ms",
        ),
        (
            "core.world.run_ms.diversifi_tcp",
            per_op_ms(Span::RunDiversifiTcp),
            "ms",
        ),
        (
            "client.algorithm1.visits_per_call",
            ratio(visits, dvf_calls),
            "count",
        ),
        (
            "client.algorithm1.recovered_per_visit",
            ratio(sum(f, |x| x.alg_recovered as f64), visits),
            "ratio",
        ),
        (
            "wifi.ap.wasteful_ratio",
            ratio(
                sum(f, |x| x.wasteful_tx as f64),
                sum(f, |x| x.secondary_air_tx as f64),
            ),
            "ratio",
        ),
        (
            "net.tcp.tx_per_call",
            ratio(sum(f, |x| x.tcp_tx as f64), tcp_worlds),
            "count",
        ),
        (
            "net.tcp.retx_ratio",
            ratio(sum(f, |x| x.tcp_retx as f64), sum(f, |x| x.tcp_tx as f64)),
            "ratio",
        ),
        (
            "simcore.chaos.generate_ms",
            per_op_ms(Span::ChaosGenerate),
            "ms",
        ),
        (
            "simcore.chaos.empty_ratio",
            ratio(sum(f, |x| x.empty_plans as f64), plans),
            "ratio",
        ),
        (
            "simcore.fault.windows_per_plan",
            ratio(sum(f, |x| x.fault_windows as f64), plans),
            "count",
        ),
        (
            "core.chaos.evaluate_ms",
            per_op_ms(Span::ChaosEvaluate),
            "ms",
        ),
        (
            "bench.worker_busy_pct",
            pct(busy_s, plain.wall_s * WORKERS as f64),
            "%",
        ),
        (
            "bench.trace_overhead_pct",
            pct(
                traced.wall_s / traced.host - plain.wall_s / plain.host,
                plain.wall_s / plain.host,
            ),
            "%",
        ),
    ];
    out.extend(fidelity_metrics(&traced.facts));
    out
}

/// The end-to-end metrics of an untraced pass, and the quantile that
/// `op_tail_ms` reports.
fn end_to_end_metrics(setup_s: f64, pass: &Pass) -> (Vec<Metric>, f64) {
    let lat = Ecdf::new(pass.latencies_ms.clone());
    let (tail_q, tail_ms) = tail(&lat);
    let out = vec![
        ("setup_s", setup_s, "s"),
        (
            "ops_per_s",
            pass.attempted as f64 / pass.wall_s * pass.host,
            "ops/s",
        ),
        ("op_p50_ms", lat.quantile(0.5), "ms"),
        ("op_tail_ms", tail_ms, "ms"),
        ("peak_rss_mb", harness::peak_rss_mb().unwrap_or(0.0), "MiB"),
    ];
    (out, tail_q)
}

/// The median and tail of per-op latencies as read, not scaled to the
/// reference host speed.
fn latency_pair(latencies_ms: &[f64]) -> [Metric; 2] {
    let lat = Ecdf::new(latencies_ms.to_vec());
    [
        ("op_p50_ms", lat.quantile(0.5), "ms"),
        ("op_tail_ms", tail(&lat).1, "ms"),
    ]
}

/// Why end-to-end metrics from this build would not describe the plain
/// release build, if they would not.
fn build_refusal() -> Option<String> {
    let mut gates = Vec::new();
    if diversifi_simcore::telemetry::TRACE_COMPILED {
        gates.push("trace");
    }
    if diversifi_simcore::check::AUDIT_COMPILED {
        gates.push("audit");
    }
    (!gates.is_empty()).then(|| {
        format!(
            "this build compiles in {} (debug build or feature); end-to-end metrics need a \
             plain release build",
            gates.join(" and ")
        )
    })
}

/// The commit of the checkout, read from its own `.git` (never a parent's,
/// and without running git); `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            line.split_whitespace().next().map(String::from)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn manifest(args: &Args, n_ops: usize, setup_batch: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let manifest = json!({
        "manifest": {
            "git_rev": git_rev(),
            "profile": profile,
            "trace_compiled": diversifi_simcore::telemetry::TRACE_COMPILED,
            "audit_compiled": diversifi_simcore::check::AUDIT_COMPILED,
            "nproc": nproc,
            "workers": WORKERS,
            "workload": args.workload.name(),
            "seed": args.seed,
            "seconds": args.seconds,
            "ops": n_ops,
            "traced": args.trace,
            "segments": SEGMENTS,
            "setup_batches": (SEGMENTS + 1) * SETUP_BATCHES_PER_WINDOW,
            "setup_batch": setup_batch,
            "tcp_call_s": workloads::TCP_CALL.as_secs_f64(),
            "reference_ns": calibrate::REFERENCE_NS,
        }
    });
    serde_json::to_string(&manifest).expect("a JSON value serialises")
}

/// One set-up: the run's whole op list from the seed, and the state every
/// worker builds (its realisation cache and arena) before op 0.
fn set_up(workload: Workload, seed: u64, n_ops: usize) -> (Inputs, Vec<workloads::Worker>) {
    let states = (0..WORKERS).map(|_| workload.worker(false)).collect();
    (workload.inputs(seed, n_ops), states)
}

/// CPU time of one batch of `k` back-to-back set-ups, per set-up. Each
/// set-up is freed before the next starts, so that a batch never holds
/// more than one op list and the run's peak RSS does not depend on the
/// batch size.
fn setup_batch_s(workload: Workload, seed: u64, n_ops: usize, k: usize) -> f64 {
    let t0 = thread_cpu_ns();
    for _ in 0..k {
        std::hint::black_box(set_up(workload, seed, n_ops));
    }
    (thread_cpu_ns() - t0) as f64 / 1e9 / k as f64
}

/// The batch size set-up is timed at: doubled until one batch takes
/// [`SETUP_BATCH_NS`].
fn setup_batch_size(workload: Workload, seed: u64, n_ops: usize) -> usize {
    let mut k = 1;
    while setup_batch_s(workload, seed, n_ops, k) * k as f64 * 1e9 < SETUP_BATCH_NS as f64 {
        k *= 2;
    }
    k
}

/// Per-set-up CPU times of `count` batches of `k` set-ups, each scaled to
/// the reference host speed by the calibration readings either side of it.
fn setup_batches(workload: Workload, seed: u64, n_ops: usize, k: usize, count: usize) -> Vec<f64> {
    let mut before = calibrate::reading_ns();
    (0..count)
        .map(|_| {
            let s = setup_batch_s(workload, seed, n_ops, k);
            let after = calibrate::reading_ns();
            let host = calibrate::host_factor(before, after);
            before = after;
            s / host
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        if let Some(why) = build_refusal() {
            eprintln!("perfbench: refusing to report end-to-end metrics: {why}");
            std::process::exit(3);
        }
    }
    let workload = args.workload;
    let n_ops = workload.op_count(args.seconds);

    // Set-up: the whole op list from the seed and every worker's cache and
    // arena, ready for op 0. Timed on the CPU clock in batches, before the
    // measured pass and in each of its pauses, and the median batch
    // reported (see `RATIONALE.md` for why spawning the two worker threads
    // is left out).
    let k = setup_batch_size(workload, args.seed, n_ops);
    println!("{}", manifest(&args, n_ops, k));
    let time_setup = || setup_batches(workload, args.seed, n_ops, k, SETUP_BATCHES_PER_WINDOW);
    let mut setup_times = time_setup();
    let inputs = workload.inputs(args.seed, n_ops);
    let plain = execute(workload, &inputs, n_ops, WORKERS, false, || {
        setup_times.extend(time_setup())
    });
    let setup_s = quantile_unsorted(&mut setup_times, 0.5);

    let mut correct = plain.broken.is_empty() && reference_check(workload, &inputs, &plain);

    let (metrics, failed, note) = if args.trace {
        let traced = execute(workload, &inputs, n_ops, WORKERS, true, || {});
        correct &= traced.broken.is_empty() && traced.digest == plain.digest;
        let m = per_layer_metrics(&plain, &traced, n_ops);
        (
            m,
            traced.failed,
            format!("traced digest {:016x}", traced.digest.0),
        )
    } else {
        let (m, tail_q) = end_to_end_metrics(setup_s, &plain);
        // End-to-end metrics are never 0; a 0 means one was not measured.
        correct &= m.iter().all(|(_, v, _)| *v > 0.0);
        (
            m,
            plain.failed,
            format!("op_tail_ms is p{} of {n_ops} ops", tail_q * 100.0),
        )
    };
    correct &= metrics
        .iter()
        .all(|(name, v, _)| valid_metric_name(name) && v.is_finite());

    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    // Beside the reported latencies: the same on the thread CPU clock as
    // read, and on the wall clock. A reported latency that drops while the
    // wall-clock one does not means work moved off the worker thread, or
    // into waiting, rather than getting cheaper.
    for (name, value, unit) in latency_pair(&plain.raw_latencies_ms) {
        println!("raw {name} = {value} {unit}");
    }
    for (name, value, unit) in latency_pair(&plain.wall_latencies_ms) {
        println!("wall-clock {name} = {value} {unit}");
    }
    println!(
        "host factor {:.3} (calibration reading over REFERENCE_NS; above 1 the host ran slow)",
        plain.host
    );
    for (name, value, unit) in fidelity_metrics(&plain.facts) {
        if produced_by(workload, name) {
            println!("fidelity {name} = {value} {unit}");
        }
    }
    println!("digest {:016x} ({note})", plain.digest.0);
    for b in plain.broken.iter().take(5) {
        println!("broken {b}");
    }
    println!(
        "failed {failed} of {n_ops} ops ({} oracle violations)",
        plain.violations.len()
    );
    for v in plain.violations.iter().take(5) {
        println!("violation {v}");
    }

    let metrics = Value::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect(),
    );
    let result = json!({
        "correct": correct,
        "attempted": n_ops,
        "failed": failed,
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("a JSON value serialises")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Op counts small enough for a debug build.
    fn small(workload: Workload) -> usize {
        match workload {
            Workload::S4Corpus => 4,
            Workload::S6Paired => 3,
            Workload::S6Tcp => 2,
            Workload::ChaosScan => 24,
        }
    }

    fn fidelity_bits(pass: &Pass) -> Vec<u64> {
        fidelity_metrics(&pass.facts)
            .iter()
            .map(|(_, v, _)| v.to_bits())
            .collect()
    }

    #[test]
    fn digest_is_independent_of_workers_and_tracing() {
        for workload in Workload::ALL {
            let n = small(workload);
            let inputs = workload.inputs(7, n);
            let one = execute(workload, &inputs, n, 1, false, || {});
            let two = execute(workload, &inputs, n, 2, false, || {});
            let traced = execute(workload, &inputs, n, 2, true, || {});
            let name = workload.name();
            assert!(one.broken.is_empty(), "{name}: {:?}", one.broken);
            assert_eq!(one.digest, two.digest, "{name}: 1 vs 2 workers");
            assert_eq!(one.digest, traced.digest, "{name}: untraced vs traced");
            assert_eq!(
                fidelity_bits(&one),
                fidelity_bits(&traced),
                "{name}: fidelity"
            );
            assert!(
                reference_check(workload, &inputs, &one),
                "{name}: uncached path differs"
            );
            let spans: u64 = traced.workers.iter().flat_map(|w| w.span_ns).sum();
            assert!(spans > 0, "{name}: traced pass timed nothing");
            assert!(two.workers.iter().all(|w| w.span_ns == [0; SPAN_COUNT]));
        }
    }

    #[test]
    fn oracle_violations_count_as_failed_ops() {
        // Plan 4 at seed 8 amplifies loss beyond the 2 pp tolerance.
        let inputs = Workload::ChaosScan.inputs(8, 6);
        let pass = execute(Workload::ChaosScan, &inputs, 6, 2, false, || {});
        assert_eq!(pass.attempted, 6);
        assert_eq!(pass.failed, 1);
        assert!(pass.broken.is_empty(), "{:?}", pass.broken);
        assert_eq!(pass.violations.len(), 1);
        assert!(
            pass.violations[0].starts_with("op 4: no-amplification"),
            "{:?}",
            pass.violations
        );
        assert_eq!(
            pass.hashes.iter().flatten().count(),
            6,
            "violating ops still hash"
        );
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for workload in [Workload::S4Corpus, Workload::S6Paired] {
            let a = execute(workload, &workload.inputs(3, 2), 2, 2, false, || {});
            let b = execute(workload, &workload.inputs(3, 2), 2, 2, false, || {});
            let c = execute(workload, &workload.inputs(4, 2), 2, 2, false, || {});
            assert_eq!(a.digest, b.digest, "{}", workload.name());
            assert_ne!(a.digest, c.digest, "{}", workload.name());
        }
    }

    #[test]
    fn every_reported_name_is_valid() {
        let inputs = Workload::ChaosScan.inputs(1, 4);
        let pass = execute(Workload::ChaosScan, &inputs, 4, 2, false, || {});
        let names: Vec<&str> = end_to_end_metrics(0.1, &pass)
            .0
            .iter()
            .chain(&per_layer_metrics(&pass, &pass, 4))
            .map(|(n, _, _)| *n)
            .collect();
        assert_eq!(names.len(), 5 + 26);
        let declared = include_str!("../../BENCHMARK.json");
        assert_eq!(declared.matches("\"name\": ").count(), 4 + names.len());
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
            assert!(
                declared.contains(&format!("\"name\": \"{n}\"")),
                "{n} not declared"
            );
        }
    }

    #[test]
    fn setup_times_the_op_list_it_generates() {
        // Generating 100 times the calls costs far more than any timer
        // or batching overhead could hide.
        let time = |n| {
            let k = setup_batch_size(Workload::S4Corpus, 1, n);
            let mut times = setup_batches(Workload::S4Corpus, 1, n, k, 5);
            quantile_unsorted(&mut times, 0.5)
        };
        let (few, many) = (time(2), time(200));
        assert!(few > 0.0);
        assert!(many > 10.0 * few, "{many} s for 200 calls, {few} s for 2");
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&argv("--workload s6-tcp --seed 9 --seconds 10 --trace 1")),
            Ok(Args {
                workload: Workload::S6Tcp,
                seed: 9,
                seconds: 10,
                trace: true
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload s4-corpus --seed x --seconds 1 --trace 0",
            "--workload s4-corpus --seed 1 --seconds 1 --trace 2",
            "--workload s4-corpus --seed 1 --seconds 1",
            "--workload s4-corpus --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn instrumented_builds_are_refused() {
        let instrumented = diversifi_simcore::telemetry::TRACE_COMPILED
            || diversifi_simcore::check::AUDIT_COMPILED;
        assert_eq!(build_refusal().is_some(), instrumented);
    }
}
