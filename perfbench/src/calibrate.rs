//! Host-speed calibration: every timing metric is reported on the scale of
//! the reference host at a fixed speed.
//!
//! The reference host is a guest on shared physical cores, and its speed
//! moves by 30–45 % within seconds as the other guests come and go. The
//! thread CPU clock does not see that: an op takes more CPU time while the
//! core is shared. So the benchmark times a fixed piece of reference work,
//! code of its own that no change to the program touches, next to the
//! program's ops. A reading of `REFERENCE_NS` means the host ran at its
//! reference speed; a reading twice that means it ran at half speed, and
//! the ops timed beside it are halved before they are reported.

use crate::harness::thread_cpu_ns;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// CPU time of one [`reading_ns`] on the reference host (2 vCPUs of an
/// Intel Xeon, KVM guest) at its usual speed, release build.
pub const REFERENCE_NS: f64 = 2_000_000.0;

/// Events per run of the reference work.
const EVENTS: u64 = 15_000;

/// Pending events the reference work's queue holds.
const QUEUE: usize = 2_048;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The reference work: a discrete-event loop over a binary-heap queue,
/// with transcendental arithmetic on every event and a small buffer
/// allocated every 64 events. That is the mix of the program's own hot
/// paths (event queue, channel models, per-frame buffers), so a host that
/// slows one slows the other by about as much.
fn reference_work() -> f64 {
    let mut state = 0x5eed;
    let mut queue = BinaryHeap::with_capacity(QUEUE + 1);
    let mut acc = 0.0;
    for i in 0..EVENTS {
        let r = splitmix64(&mut state);
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        acc += (u + 1e-9).ln() * (3.0 * u).exp().sqrt();
        queue.push(Reverse((r & 0xffff_ffff, i)));
        if queue.len() > QUEUE {
            if let Some(Reverse((t, _))) = queue.pop() {
                acc += t as f64 * 1e-12;
            }
        }
        if i % 64 == 0 {
            let frame: Vec<f64> = (0..32).map(|k| (k as f64 * u).sin()).collect();
            acc += black_box(frame)[5];
        }
    }
    acc
}

/// CPU time of one run of the reference work on the calling thread.
pub fn reading_ns() -> u64 {
    let t0 = thread_cpu_ns();
    black_box(reference_work());
    thread_cpu_ns() - t0
}

/// How much slower than reference speed the host ran, from the readings
/// taken just before and just after some work.
pub fn host_factor(before_ns: u64, after_ns: u64) -> f64 {
    (before_ns + after_ns) as f64 / 2.0 / REFERENCE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        // The same result bit for bit on every run: the work itself never
        // varies, only the time it takes.
        assert_eq!(reference_work().to_bits(), reference_work().to_bits());
        assert!(reading_ns() > 0);
    }

    #[test]
    fn host_factor_scales_with_the_readings() {
        let r = REFERENCE_NS as u64;
        assert_eq!(host_factor(r, r), 1.0);
        assert_eq!(host_factor(r, 3 * r), 2.0);
    }
}
