//! Property tests for the simulation primitives and the JSON parser.

use m2ndp_sim::json::Json;
use m2ndp_sim::{BandwidthGate, BoundedQueue, EventQueue, Histogram};
use proptest::prelude::*;

/// A JSON document whose shape `picks` steers (depth-capped; exhausted
/// picks end in `null`), with strings that need every kind of escape.
fn json_doc(picks: &mut std::slice::Iter<'_, u8>, depth: u32) -> Json {
    let items = |picks: &mut std::slice::Iter<'_, u8>| -> Vec<Json> {
        (0..3).map(|_| json_doc(picks, depth + 1)).collect()
    };
    match picks.next().map(|p| p % 7) {
        Some(1) => Json::Bool(true),
        Some(2) => Json::U64(u64::MAX / 3),
        Some(3) => Json::F64(-0.15e-3),
        Some(4) => Json::Str("k\u{1}\"\\\n\u{e9}\u{1F600}".into()),
        Some(5) if depth < 4 => Json::Arr(items(picks)),
        Some(6) if depth < 4 => Json::Obj(
            items(picks)
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("k{i}\t"), v))
                .collect(),
        ),
        _ => Json::Null,
    }
}

/// Parses `bytes` (lossily decoded): the parser must return, never panic,
/// and a document it accepts must come back equal from its own
/// `pretty()` output.
fn check_json_round_trip(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(doc) = Json::parse(&text) {
        let again = Json::parse(&doc.pretty());
        prop_assert_eq!(again.as_ref(), Ok(&doc), "{:?} re-parsed differently", text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// FIFO order is preserved across any interleaving of pushes and pops.
    #[test]
    fn queue_preserves_fifo(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut q = BoundedQueue::new(64);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u32;
        for push in ops {
            if push {
                if q.push(next).is_ok() {
                    model.push_back(next);
                }
                next += 1;
            } else {
                prop_assert_eq!(q.pop(), model.pop_front());
            }
            prop_assert_eq!(q.len(), model.len());
        }
    }

    /// The event queue is a stable priority queue: time order first,
    /// insertion order for ties.
    #[test]
    fn event_queue_is_stable(times in prop::collection::vec(0u64..50, 1..100)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(*t, i);
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "unstable: ({lt},{li}) then ({t},{i})");
            }
            last = Some((t, i));
        }
    }

    /// A bandwidth gate never moves more bytes per window than its rate.
    #[test]
    fn gate_respects_rate(sizes in prop::collection::vec(1u64..512, 1..100)) {
        let rate = 32.0;
        let mut g = BandwidthGate::new(rate);
        let mut finish = 0;
        for s in &sizes {
            finish = g.send(0, *s);
        }
        let total: u64 = sizes.iter().sum();
        let min_cycles = (total as f64 / rate).floor() as u64;
        prop_assert!(finish >= min_cycles, "{finish} < {min_cycles}");
        prop_assert_eq!(g.total_bytes(), total);
    }

    /// Percentiles are monotone in p and bounded by min/max of the sample.
    #[test]
    fn percentiles_monotone(samples in prop::collection::vec(any::<u32>(), 1..300)) {
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s as u64);
        }
        let p50 = h.percentile(0.5);
        let p95 = h.percentile(0.95);
        let p100 = h.percentile(1.0);
        prop_assert!(p50 <= p95 && p95 <= p100);
        prop_assert_eq!(p100, *samples.iter().max().unwrap() as u64);
        prop_assert!(p50 >= *samples.iter().min().unwrap() as u64);
    }
}

proptest! {
    // Parsing is cheap: run the input-hardening properties deeper.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `Json::parse` on arbitrary bytes never panics (see
    /// [`check_json_round_trip`]).
    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        check_json_round_trip(&bytes);
    }

    /// The same over pretty-printed documents with a few bytes inserted,
    /// deleted or overwritten, which reach the string, escape, number and
    /// nesting paths far more often than random bytes; unedited documents
    /// must round-trip.
    #[test]
    fn json_parse_never_panics_on_edited_documents(
        picks in prop::collection::vec(any::<u8>(), 0..40),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), 0u8..3), 0..4),
    ) {
        let mut bytes = json_doc(&mut picks.iter(), 0).pretty().into_bytes();
        for (at, byte, kind) in edits {
            let at = usize::from(at) % (bytes.len() + 1);
            match kind {
                0 => bytes.insert(at, byte),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ if at < bytes.len() => bytes[at] = byte,
                _ => {}
            }
        }
        check_json_round_trip(&bytes);
    }
}
