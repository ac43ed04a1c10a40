//! Workload-independent machinery: the closed-loop worker pool, failure
//! capture, the tail-quantile rule, the output digest and metric-name checks.

use crate::calibrate::{host_factor, reading_ns};
use diversifi_simcore::check::capture_panic;
use diversifi_simcore::Ecdf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One executed op: its latency and either its output or why it failed.
pub struct OpRecord<T> {
    /// Time the op spent on its worker's CPU (see [`thread_cpu_ns`]).
    pub latency_ns: u64,
    /// The same op on the wall clock, preemption and blocking included.
    pub wall_ns: u64,
    /// How much slower than reference speed the host ran around the op
    /// (see [`crate::calibrate`]).
    pub host: f64,
    pub result: Result<T, String>,
}

/// The ops one worker ran, tagged with their indices.
type Finished<T> = Vec<(usize, OpRecord<T>)>;

/// Everything a closed-loop run leaves behind.
pub struct LoopResult<T, R> {
    /// Records in op-index order (not completion order).
    pub records: Vec<OpRecord<T>>,
    /// What each worker's state reported after its last op, in worker order.
    pub reports: Vec<R>,
    /// Wall time from the first op being claimed to the last one finishing,
    /// summed over the segments, less the time a worker spent calibrating
    /// (the workers' mean).
    pub wall: Duration,
}

/// Worker CPU time between two calibrations.
const CALIBRATION_PERIOD_NS: u64 = 40_000_000;

/// Run ops `0..n_ops` as a closed loop on `n_workers` threads. Each thread
/// builds its own state with `make` (worker state need not be `Send`),
/// waits until every thread is ready, then claims the next op index from
/// a shared counter only after finishing its previous op. A panicking op
/// is caught and recorded as failed; the worker goes on with the next
/// index. `finish` turns each worker's state into its report.
///
/// Each worker also times the reference work of [`crate::calibrate`]
/// before its first op, after every [`CALIBRATION_PERIOD_NS`] of its ops
/// and at the end of each stretch. An op's host factor comes from the two
/// readings either side of it, on its own worker.
///
/// The ops run in `segments` contiguous stretches of the index range. When
/// a stretch is done, every worker waits, keeping its state, while the
/// calling thread runs `between`; the time that takes is not part of
/// [`LoopResult::wall`].
pub fn closed_loop<T, W, R, M, F, D>(
    n_ops: usize,
    n_workers: usize,
    segments: usize,
    make: M,
    op: F,
    finish: D,
    mut between: impl FnMut(),
) -> LoopResult<T, R>
where
    T: Send,
    R: Send,
    M: Fn() -> W + Sync,
    F: Fn(usize, &mut W) -> Result<T, String> + Sync,
    D: Fn(W) -> R + Sync,
{
    let ends: Vec<usize> = (1..=segments.max(1))
        .map(|s| n_ops * s / segments.max(1))
        .collect();
    // The counter hands out indices only; no other data is published
    // through it, so Relaxed is enough.
    let next = AtomicUsize::new(0);
    // Every worker and the calling thread meet here at the start and the
    // end of each segment.
    let gate = Barrier::new(n_workers + 1);
    let (per_worker, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                let (next, gate, ends, make, op, finish) =
                    (&next, &gate, &ends, &make, &op, &finish);
                s.spawn(move || {
                    let mut w = make();
                    // Each op with the index of the reading before it.
                    let mut done = Vec::new();
                    let mut readings = vec![reading_ns()];
                    let mut last = thread_cpu_ns();
                    let mut calibrating = Duration::ZERO;
                    for &end in ends {
                        gate.wait();
                        let claim = |i: usize| (i < end).then_some(i + 1);
                        while let Ok(i) =
                            next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, claim)
                        {
                            let (t0, w0) = (thread_cpu_ns(), Instant::now());
                            let result = capture_panic(|| op(i, &mut w))
                                .unwrap_or_else(|p| Err(format!("panic: {p}")));
                            let wall_ns = w0.elapsed().as_nanos() as u64;
                            let latency_ns = thread_cpu_ns() - t0;
                            done.push((i, readings.len() - 1, latency_ns, wall_ns, result));
                            if thread_cpu_ns() - last >= CALIBRATION_PERIOD_NS {
                                calibrating += calibrate(&mut readings);
                                last = thread_cpu_ns();
                            }
                        }
                        calibrating += calibrate(&mut readings);
                        last = thread_cpu_ns();
                        gate.wait();
                    }
                    let done: Finished<T> = done
                        .into_iter()
                        .map(|(i, r, latency_ns, wall_ns, result)| {
                            let host = host_factor(readings[r], readings[r + 1]);
                            (
                                i,
                                OpRecord {
                                    latency_ns,
                                    wall_ns,
                                    host,
                                    result,
                                },
                            )
                        })
                        .collect();
                    (finish(w), done, calibrating)
                })
            })
            .collect();
        let mut wall = Duration::ZERO;
        for _ in &ends {
            gate.wait();
            let start = Instant::now();
            gate.wait();
            wall += start.elapsed();
            between();
        }
        let joined: Vec<(R, Finished<T>, Duration)> = handles
            .into_iter()
            .map(|h| h.join().expect("a worker panicked outside capture_panic"))
            .collect();
        let calibrating: Duration = joined.iter().map(|j| j.2).sum();
        (joined, wall.saturating_sub(calibrating / n_workers as u32))
    });

    let mut slots: Vec<Option<OpRecord<T>>> = (0..n_ops).map(|_| None).collect();
    let mut reports = Vec::with_capacity(per_worker.len());
    for (r, done, _) in per_worker {
        for (i, rec) in done {
            slots[i] = Some(rec);
        }
        reports.push(r);
    }
    let records = slots
        .into_iter()
        .map(|r| r.expect("every op index ran once"))
        .collect();
    LoopResult {
        records,
        reports,
        wall,
    }
}

/// Take one calibration reading into `readings`; returns the wall time it
/// took.
fn calibrate(readings: &mut Vec<u64>) -> Duration {
    let t0 = Instant::now();
    readings.push(reading_ns());
    t0.elapsed()
}

/// CPU time consumed so far by the calling thread, in nanoseconds.
///
/// Per-op latency is read from this clock rather than the wall clock. On a
/// 2-core host whose two cores both run workers, every other runnable task
/// preempts a worker mid-op (about 30 times a second per worker on the
/// reference host). A preempted op's wall time then includes the other
/// task's run, and at a p99 over millisecond ops that turns the tail
/// bimodal from run to run (a 59 % spread across ten chaos-scan seeds,
/// against 4 % on this clock). The wall-clock cost of preemption still
/// shows in `ops_per_s` and in the workers' busy share.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    /// Linux's `CLOCK_THREAD_CPUTIME_ID`.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (linked by std); `t` is a
    // live, writable `struct timespec` (two 64-bit fields on 64-bit Linux)
    // and the clock id is a valid constant, so the call only writes `t`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// Nearest-rank index of quantile `q` in an `n`-sample, as
/// [`Ecdf::quantile`] computes it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Quantiles the tail metric may report, highest first.
const TAIL_CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest candidate quantile of an `n`-sample distribution that has
/// at least ten samples beyond it; the median when none has.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n > 0 && n - 1 - rank(n, q) >= 10)
        .unwrap_or(0.5)
}

/// The tail quantile [`tail_quantile`] picks for this sample, and its value.
pub fn tail(sample: &Ecdf) -> (f64, f64) {
    let q = tail_quantile(sample.len());
    (q, sample.quantile(q))
}

/// A word-wise multiplicative hash over the simulated outputs: equal
/// digests mean bit-equal outputs (with overwhelming probability).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Metric names are 1–64 characters of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        // n = 11: the median (rank 6) leaves 5 beyond, too few, so the
        // rule falls back to the median itself.
        assert_eq!(tail_quantile(11), 0.5);
        assert_eq!(tail_quantile(21), 0.5);
        assert_eq!(tail_quantile(44), 0.75);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(9_999), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
        for n in 1..3_000 {
            let q = tail_quantile(n);
            let beyond = n - 1 - rank(n, q);
            assert!(beyond >= 10 || q == 0.5, "n={n} q={q} beyond={beyond}");
            // No higher candidate would also qualify.
            for r in TAIL_CANDIDATES.into_iter().filter(|&r| r > q) {
                assert!(n - 1 - rank(n, r) < 10, "n={n}: {r} also qualifies");
            }
        }
    }

    #[test]
    fn tail_reads_the_rank_it_counts_from() {
        // The value reported is the sample at the rank the ten-beyond rule
        // was checked on, so exactly `beyond` samples lie above it.
        for n in [44, 100, 990, 1_000, 2_250, 9_900, 10_000] {
            let sample = Ecdf::new((0..n).map(|i| i as f64).collect());
            let (q, value) = tail(&sample);
            let above = sample.values().iter().filter(|&&v| v > value).count();
            assert_eq!(above, n - 1 - rank(n, q), "n={n}");
            assert!(above >= 10, "n={n}");
        }
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "op_p50_ms",
            "core.world.run_ms.primary",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "pct%",
            "slash/x",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let mut pauses = 0;
        let res = closed_loop(
            50,
            2,
            3,
            || 0usize,
            |i, ran| {
                *ran += 1;
                match i % 10 {
                    3 => panic!("op {i} panicked"),
                    7 => Err(format!("op {i} broke an invariant")),
                    _ => Ok(i * 2),
                }
            },
            |ran| ran,
            || pauses += 1,
        );
        assert_eq!(pauses, 3, "one pause after each segment");
        assert_eq!(res.reports.iter().sum::<usize>(), 50);
        assert_eq!(res.records.len(), 50);
        let failed: Vec<usize> = (0..50)
            .filter(|&i| res.records[i].result.is_err())
            .collect();
        assert_eq!(failed.len(), 10);
        assert!(failed.iter().all(|i| i % 10 == 3 || i % 10 == 7));
        for (i, r) in res.records.iter().enumerate() {
            if let Ok(v) = r.result {
                assert_eq!(v, i * 2, "records come back in op order");
            }
        }
        assert!(
            res.records
                .iter()
                .all(|r| r.host.is_finite() && r.host > 0.0),
            "every op has a host factor"
        );
        let msg = res.records[3].result.as_ref().unwrap_err();
        assert!(msg.contains("op 3 panicked"), "{msg}");
    }

    #[test]
    fn thread_cpu_clock_counts_work_not_sleep() {
        let t0 = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_ns() - t0;
        let t1 = thread_cpu_ns();
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
        let worked = thread_cpu_ns() - t1;
        assert!(slept < 20_000_000, "a 50 ms sleep used {slept} ns of CPU");
        assert!(worked > slept, "busy loop {worked} ns vs sleep {slept} ns");
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
    }
}
