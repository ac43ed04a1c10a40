//! Forensic capture of a campaign's worst calls.
//!
//! The campaign fold is analytic — [`crate::population::CallSampler`]
//! rates each call from closed-form channel statistics, no event loop —
//! so there is no event timeline *during* the campaign to freeze. What
//! there is instead is determinism: every retained
//! [`FlightKey`](diversifi_simcore::FlightKey) names a call by
//! `(seed, index)`, and this module re-simulates those calls as full
//! closed-loop [`World`] runs with the telemetry ring armed, one run per
//! scenario arm. The captures are a pure function of
//! `(scenario, selection)`, so two campaigns that select the same worst
//! calls — at any thread count, killed and resumed or not — capture
//! byte-identical event streams.

use crate::scenario::{Arm, Scenario};
use crate::world::{RunMode, World};
use diversifi_simcore::{FlightCapture, SeedFactory, WorstK};

/// Per-call probe seed: the scenario seed folded with the call index
/// (FNV-1a), so every captured call explores its own channel realisation
/// instead of all replaying the arm-probe seed.
fn probe_seed(seed: u64, index: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [seed, index] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Re-simulate the selected worst calls and freeze their event timelines.
///
/// One capture per selected call × scenario arm (a scenario with no arms
/// gets a single synthetic `diversifi` arm so captures always exist),
/// worst call first, arms in scenario order — labelled
/// `"{arm}/call-{index:06}"`. `ring` bounds the telemetry ring used for
/// each re-run; events beyond it are evicted oldest-first and surface in
/// the capture's `dropped` count (the exporters warn on it).
///
/// In builds where tracing is compiled out
/// ([`TRACE_COMPILED`](diversifi_simcore::telemetry::TRACE_COMPILED) is false) the
/// captures still carry the scores and call identities — only the event
/// streams are empty.
pub fn capture_worst_calls(scn: &Scenario, worst: &WorstK, ring: usize) -> Vec<FlightCapture> {
    let default_arm;
    let arms: &[Arm] = if scn.arms.is_empty() {
        default_arm = [Arm::new("diversifi", RunMode::DiversifiCustomAp)];
        &default_arm
    } else {
        &scn.arms
    };
    let mut captures = Vec::with_capacity(worst.len() * arms.len());
    for entry in worst.entries() {
        for arm in arms {
            let cfg = scn.world_config(arm);
            let seeds = SeedFactory::new(probe_seed(entry.seed, entry.index));
            let (_report, session) = World::new(&cfg, &seeds).run_traced(ring);
            let label = format!("{}/call-{:06}", arm.name, entry.index);
            captures.push(FlightCapture::from_session(label, *entry, session));
        }
    }
    captures
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversifi_simcore::telemetry::TRACE_COMPILED;
    use diversifi_simcore::FlightKey;

    fn selection() -> WorstK {
        let mut w = WorstK::new(2);
        w.offer(FlightKey { score: 2.1, seed: 7, index: 1234 });
        w.offer(FlightKey { score: 3.0, seed: 7, index: 99 });
        w
    }

    #[test]
    fn captures_cover_every_selected_call_and_arm() {
        let scn = Scenario::testbed("cap", 7);
        let caps = capture_worst_calls(&scn, &selection(), 1024);
        assert_eq!(caps.len(), 2 * 3);
        // Worst call first, arms in scenario order.
        assert_eq!(caps[0].label, "primary-only/call-001234");
        assert_eq!(caps[2].label, "diversifi/call-001234");
        assert_eq!(caps[3].label, "primary-only/call-000099");
        assert!(caps.iter().all(|c| c.seed == 7));
        if TRACE_COMPILED {
            assert!(caps.iter().all(|c| !c.events.is_empty()), "traced runs emit events");
        }
    }

    #[test]
    fn captures_are_deterministic_and_armless_scenarios_get_a_default_arm() {
        let scn = Scenario::new("bare", 3);
        let a = capture_worst_calls(&scn, &selection(), 512);
        let b = capture_worst_calls(&scn, &selection(), 512);
        assert_eq!(a.len(), 2);
        assert!(a[0].label.starts_with("diversifi/"));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!((x.first_seq, x.dropped), (y.first_seq, y.dropped));
            assert_eq!(x.events, y.events, "re-simulated captures must be bit-identical");
        }
        // Different calls explore different channel realisations: the two
        // captures must not be the same timeline (when tracing is live).
        if TRACE_COMPILED {
            assert_ne!(a[0].events, a[1].events);
        }
    }
}
