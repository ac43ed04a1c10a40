//! Campaign-scale flight recorder: deterministic worst-call forensics.
//!
//! A fleet campaign folds millions of analytically-sampled calls into
//! digests — nothing per-call survives, which is exactly right until a
//! tail claim needs *explaining*. The flight recorder closes that gap in
//! two deterministic pieces:
//!
//! 1. **Selection** — every call that finishes poor (score below the
//!    scenario's trigger) offers a [`FlightKey`] `(score, seed, index)`
//!    to a per-shard [`WorstK`] selector. Keys are totally ordered (the
//!    call index breaks every tie), so the surviving top-K set is a pure
//!    function of the offered keys — invariant under thread count, shard
//!    batching, and checkpoint kill/resume. Per-shard selectors merge in
//!    shard index order, exactly like
//!    [`ShardDigest`](crate::digest::ShardDigest), and serialise exactly
//!    (score bits, not decimal text) into shard checkpoints.
//! 2. **Capture** — after the campaign, the selected calls are
//!    re-simulated as full closed-loop world runs with a live telemetry
//!    ring; each run's surviving event timeline freezes into a
//!    [`FlightCapture`] exported via [`crate::export`] (Perfetto +
//!    JSONL). Because worlds are pure functions of `(config, seed)`,
//!    a capture is as deterministic as the run it replays.
//!
//! Selection costs one `f64` compare per call when the selector is full
//! (the common case) and nothing at all when `k == 0`; it never reads
//! the clock and never touches the digest, so recorder-on campaign
//! digest fingerprints are bit-identical to recorder-off. Event capture
//! itself rides the telemetry compile gate
//! ([`TRACE_COMPILED`](crate::telemetry::TRACE_COMPILED)): in a release
//! build without the `trace` feature captures carry empty timelines while
//! selection (scores, indices) still works in full.

use serde::Value;

use crate::telemetry::TelemetrySession;
use crate::trace::TraceEvent;

/// Order-preserving bit encoding of a finite `f64`: `a < b` iff
/// `ord_bits(a) < ord_bits(b)`. Standard sign-flip trick; total over
/// every finite value including `-0.0 < +0.0` (distinct bits — callers
/// normalise if they care, the selector only needs *a* total order).
fn ord_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// Identity and severity of one poor call: the flight recorder's
/// selection key. Ordered worst-first by `(score, seed, index)` — lowest
/// score is worst, and the call index makes every key distinct, so a set
/// of keys has exactly one top-K subset no matter what order (or on how
/// many threads) they were offered in.
#[derive(Clone, Copy, Debug)]
pub struct FlightKey {
    /// The call's quality score (MOS for VoIP, session QoE for FPS).
    /// Lower is worse.
    pub score: f64,
    /// The campaign's master seed (identifies the sampling universe the
    /// index lives in).
    pub seed: u64,
    /// The call index — the replay handle: re-simulating call `index`
    /// under `seed` reproduces this call exactly.
    pub index: u64,
}

impl FlightKey {
    fn sort_key(&self) -> (u64, u64, u64) {
        (ord_bits(self.score), self.seed, self.index)
    }
}

impl PartialEq for FlightKey {
    fn eq(&self, other: &FlightKey) -> bool {
        self.sort_key() == other.sort_key()
    }
}
impl Eq for FlightKey {}
impl PartialOrd for FlightKey {
    fn partial_cmp(&self, other: &FlightKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FlightKey {
    fn cmp(&self, other: &FlightKey) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

/// A bounded worst-K selector over [`FlightKey`]s: retains the K
/// smallest (worst) keys ever offered, in ascending (worst-first)
/// order. `k == 0` disables it entirely — `offer` returns before
/// touching anything, which is what makes the recorder free when off.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorstK {
    k: usize,
    /// Sorted ascending; `entries[0]` is the worst call seen.
    entries: Vec<FlightKey>,
}

impl WorstK {
    /// An empty selector retaining at most `k` keys.
    pub fn new(k: usize) -> WorstK {
        WorstK { k, entries: Vec::with_capacity(k.min(64)) }
    }

    /// The retention bound.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Keys retained so far, worst first.
    pub fn entries(&self) -> &[FlightKey] {
        &self.entries
    }

    /// Number of keys retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offer one key. When the selector is full and the key is no worse
    /// than the current cutoff this is a single compare — the campaign
    /// fold's common case.
    #[inline]
    pub fn offer(&mut self, key: FlightKey) {
        if self.k == 0 {
            return;
        }
        if self.entries.len() == self.k
            && key >= *self.entries.last().expect("full selector is non-empty")
        {
            return;
        }
        let pos = self.entries.partition_point(|e| *e < key);
        self.entries.insert(pos, key);
        if self.entries.len() > self.k {
            self.entries.pop();
        }
    }

    /// Fold another selector in. The result holds the top-K of the union
    /// of both key sets — associative and commutative, though the
    /// campaign engine merges in shard index order anyway (same
    /// discipline as digests).
    pub fn merge_from(&mut self, other: &WorstK) {
        assert_eq!(self.k, other.k, "merging selectors of different k");
        for e in &other.entries {
            self.offer(*e);
        }
    }
}

// Checkpoint serialisation: score *bits* as u64, never decimal text, so
// a selector round-trips through a shard checkpoint exactly and resume
// lands on the identical top-K set.
impl serde::Serialize for WorstK {
    fn to_value(&self) -> Value {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("score_bits".to_string(), Value::U64(e.score.to_bits())),
                    ("seed".to_string(), Value::U64(e.seed)),
                    ("index".to_string(), Value::U64(e.index)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("k".to_string(), Value::U64(self.k as u64)),
            ("entries".to_string(), Value::Array(entries)),
        ])
    }
}

impl serde::Deserialize for WorstK {
    fn from_value(v: &Value) -> Result<Self, String> {
        let k = v.get("k").and_then(Value::as_u64).ok_or("WorstK: missing `k`")? as usize;
        let items = match v.get("entries") {
            Some(Value::Array(a)) => a,
            _ => return Err("WorstK: missing `entries`".to_string()),
        };
        if items.len() > k {
            return Err("WorstK: more entries than k".to_string());
        }
        let mut entries = Vec::with_capacity(items.len());
        for e in items {
            let field = |name: &str| {
                e.get(name)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("WorstK: entry missing `{name}`"))
            };
            entries.push(FlightKey {
                score: f64::from_bits(field("score_bits")?),
                seed: field("seed")?,
                index: field("index")?,
            });
        }
        if !entries.windows(2).all(|w| w[0] < w[1]) {
            return Err("WorstK: entries not strictly worst-first".to_string());
        }
        Ok(WorstK { k, entries })
    }
}

/// One frozen forensic capture: a selected worst call's identity plus
/// the full event timeline of its deterministic replay.
#[derive(Clone, Debug)]
pub struct FlightCapture {
    /// Display label (`"<arm>/call-<index>"` for fleet campaigns).
    pub label: String,
    /// The campaign score that selected this call.
    pub score: f64,
    /// Campaign master seed.
    pub seed: u64,
    /// Call index within the campaign.
    pub index: u64,
    /// Per-run sequence number of `events[0]` (0 unless the replay ring
    /// evicted).
    pub first_seq: u64,
    /// Events evicted from the replay ring.
    pub dropped: u64,
    /// The surviving event timeline, in emission order. Empty when
    /// [`TRACE_COMPILED`](crate::telemetry::TRACE_COMPILED) is false.
    pub events: Vec<TraceEvent>,
}

impl FlightCapture {
    /// Freeze a replay's telemetry session into a capture for `key`.
    pub fn from_session(label: String, key: FlightKey, session: TelemetrySession) -> FlightCapture {
        FlightCapture {
            label,
            score: key.score,
            seed: key.seed,
            index: key.index,
            first_seq: session.first_seq,
            dropped: session.dropped,
            events: session.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    fn key(score: f64, index: u64) -> FlightKey {
        FlightKey { score, seed: 7, index }
    }

    #[test]
    fn key_order_is_total_and_worst_first() {
        let mut keys = [
            key(2.0, 5),
            key(-1.5, 0),
            key(2.0, 3),
            key(0.0, 1),
            FlightKey { score: 2.0, seed: 6, index: 3 },
        ];
        keys.sort();
        let ordered: Vec<(f64, u64, u64)> = keys.iter().map(|k| (k.score, k.seed, k.index)).collect();
        assert_eq!(
            ordered,
            vec![(-1.5, 7, 0), (0.0, 7, 1), (2.0, 6, 3), (2.0, 7, 3), (2.0, 7, 5)]
        );
        // Negative zero and positive zero are distinct but still ordered.
        assert!(key(-0.0, 1) < key(0.0, 1));
    }

    #[test]
    fn offer_keeps_the_k_worst_regardless_of_order() {
        let scores = [5.0, 1.0, 3.5, 0.5, 4.0, 2.0, 0.5];
        let mut forward = WorstK::new(3);
        let mut backward = WorstK::new(3);
        for (i, &s) in scores.iter().enumerate() {
            forward.offer(key(s, i as u64));
        }
        for (i, &s) in scores.iter().enumerate().rev() {
            backward.offer(key(s, i as u64));
        }
        assert_eq!(forward, backward);
        let kept: Vec<(f64, u64)> = forward.entries().iter().map(|e| (e.score, e.index)).collect();
        // Two ties at 0.5 resolve by index; 1.0 fills the last slot.
        assert_eq!(kept, vec![(0.5, 3), (0.5, 6), (1.0, 1)]);
    }

    #[test]
    fn zero_k_is_inert() {
        let mut w = WorstK::new(0);
        w.offer(key(0.0, 0));
        assert!(w.is_empty());
        let mut other = WorstK::new(0);
        other.merge_from(&w);
        assert!(other.is_empty());
    }

    #[test]
    fn merge_equals_single_stream_selection() {
        let n = 200u64;
        let score = |i: u64| ((i.wrapping_mul(2654435761) % 1000) as f64) / 10.0;
        let mut whole = WorstK::new(8);
        for i in 0..n {
            whole.offer(key(score(i), i));
        }
        // Shard into 7 uneven pieces, select per shard, merge in order.
        let mut merged = WorstK::new(8);
        for chunk in (0..n).collect::<Vec<_>>().chunks(31) {
            let mut shard = WorstK::new(8);
            for &i in chunk {
                shard.offer(key(score(i), i));
            }
            merged.merge_from(&shard);
        }
        assert_eq!(whole, merged);
    }

    #[test]
    fn serde_round_trip_is_exact() {
        let mut w = WorstK::new(4);
        for (i, s) in [3.0999999999999996, -0.0, 2.5e-300, 61.0].into_iter().enumerate() {
            w.offer(key(s, i as u64));
        }
        let text = serde_json::to_string(&w.to_value()).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let back = WorstK::from_value(&v).unwrap();
        assert_eq!(w.k(), back.k());
        assert_eq!(w.entries().len(), back.entries().len());
        for (a, b) in w.entries().iter().zip(back.entries()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!((a.seed, a.index), (b.seed, b.index));
        }
    }

    #[test]
    fn corrupt_selectors_are_rejected() {
        let bad = serde_json::from_str::<Value>(
            "{\"k\":1,\"entries\":[{\"score_bits\":0,\"seed\":0,\"index\":0},{\"score_bits\":1,\"seed\":0,\"index\":1}]}",
        )
        .unwrap();
        assert!(WorstK::from_value(&bad).is_err(), "more entries than k must be rejected");
        let unsorted = serde_json::from_str::<Value>(
            "{\"k\":3,\"entries\":[{\"score_bits\":4617315517961601024,\"seed\":0,\"index\":0},{\"score_bits\":0,\"seed\":0,\"index\":1}]}",
        )
        .unwrap();
        assert!(WorstK::from_value(&unsorted).is_err(), "unsorted entries must be rejected");
    }
}
