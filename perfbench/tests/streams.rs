//! The workload seed fully determines every generated input: the same
//! seed gives identical streams, another seed different ones.

use perfbench::gen::{
    self, IngestStep, MixOp, TxnMixOp, BATCH_OPS, HOT_STRIDE, KEY_RANGE, PREFILL_KEYS, RANGE_SPAN,
    TXN_KEYS,
};

const OPS: usize = 5_000;

#[test]
fn prefill_is_seeded_and_distinct() {
    let a = gen::prefill(7);
    assert_eq!(a, gen::prefill(7));
    assert_ne!(a, gen::prefill(8));
    assert_eq!(a.len(), PREFILL_KEYS);
    let mut keys: Vec<u64> = a.iter().map(|&(k, _)| k).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), PREFILL_KEYS, "prefill keys are distinct");
    assert!(keys.iter().all(|&k| k < KEY_RANGE));
}

#[test]
fn rq_mix_stream_is_seeded() {
    let a = gen::rq_mix_stream(7, 0, OPS);
    assert_eq!(a, gen::rq_mix_stream(7, 0, OPS));
    assert_ne!(a, gen::rq_mix_stream(8, 0, OPS));
    assert_ne!(
        a,
        gen::rq_mix_stream(7, 1, OPS),
        "clients get their own streams"
    );
    let updates = a
        .iter()
        .filter(|op| matches!(op, MixOp::Insert(..) | MixOp::Remove(_)))
        .count();
    let ranges = a.iter().filter(|op| matches!(op, MixOp::Range(_))).count();
    assert!(
        (2300..2700).contains(&updates),
        "about 50% updates: {updates}"
    );
    assert!((350..650).contains(&ranges), "about 10% ranges: {ranges}");
    assert!(a
        .iter()
        .all(|op| !matches!(op, MixOp::Range(lo) if lo + RANGE_SPAN > KEY_RANGE)));
}

#[test]
fn rw_txn_stream_is_seeded() {
    let a = gen::rw_txn_stream(7, 0, OPS);
    assert_eq!(a, gen::rw_txn_stream(7, 0, OPS));
    assert_ne!(a, gen::rw_txn_stream(8, 0, OPS));
    let (mut keys, mut hot) = (0, 0);
    for op in &a {
        if let TxnMixOp::Txn { keys: k, .. } = op {
            let mut sorted = *k;
            sorted.sort_unstable();
            assert!(sorted.windows(2).all(|w| w[0] < w[1]), "distinct keys");
            keys += TXN_KEYS;
            hot += k.iter().filter(|&&k| k % HOT_STRIDE == 0).count();
        }
    }
    let share = hot as f64 / keys as f64;
    assert!((0.85..0.95).contains(&share), "about 90% hot keys: {share}");
}

#[test]
fn ingest_stream_is_seeded() {
    let a: Vec<IngestStep> = gen::ingest_stream(7, OPS / 10);
    assert_eq!(a, gen::ingest_stream(7, OPS / 10));
    assert_ne!(a, gen::ingest_stream(8, OPS / 10));
    let values: Vec<u64> = a.iter().flat_map(|s| s.sets.map(|(_, v)| v)).collect();
    assert_eq!(values.len(), OPS / 10 * BATCH_OPS);
    assert!(
        values.windows(2).all(|w| w[0] < w[1]),
        "set values are unique and increasing"
    );
}
