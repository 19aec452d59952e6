//! `rw-txn`: closed-loop clients on the Citrus store mixing serializable
//! read-write transactions (50%) over a hot key set with snapshot reads
//! (40%) and 50-key range queries (10%).

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use obs::MetricsRegistry;
use store::{CitrusStore, TxnAborted};
use txn::StoreTxnExt;

use crate::gen::{self, TxnMixOp, KEY_RANGE, RANGE_SPAN, TXN_KEYS, TXN_RANGE_SPAN};
use crate::measure::{ns_since, Acc, Layer, Layers, Samples};
use crate::round::{self, RangeLog, Recycler, Round};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Operations per client per round.
pub const OPS_PER_CLIENT: usize = 60_000;
/// A transaction still aborting after this many attempts counts as failed.
pub const MAX_ATTEMPTS: u64 = 1000;

/// The generated inputs of `rw-txn`.
pub struct RwTxn {
    prefill: Vec<(u64, u64)>,
    streams: Vec<Vec<TxnMixOp>>,
}

struct ClientOut {
    write: Samples,
    read: Samples,
    range: Samples,
    ranges: RangeLog,
    committed: u64,
    failed: u64,
    key_writes: u64,
    freed: u64,
    layers: Layers,
    span: (Instant, Instant),
}

impl RwTxn {
    pub fn new(seed: u64) -> Self {
        RwTxn {
            prefill: gen::prefill(seed),
            streams: (0..CLIENTS as u64)
                .map(|c| gen::rw_txn_stream(seed, c, OPS_PER_CLIENT))
                .collect(),
        }
    }

    pub fn round(&self, traced: bool) -> Round {
        let registry = traced.then(MetricsRegistry::new);
        let (store, setup_s) = round::timed_s(|| {
            let store = round::build_store(CLIENTS, registry.as_ref());
            round::prefill(&store, &self.prefill);
            std::sync::Arc::new(store)
        });
        let store: std::sync::Arc<CitrusStore<u64, u64>> = store;
        let stats0 = store.txn_stats();
        let advances0 = store.context().advance_calls();
        let barrier = Barrier::new(CLIENTS);
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .map(|ops| {
                    let (store, barrier) = (&store, &barrier);
                    s.spawn(move || client(store, ops, traced, barrier))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rw-txn client panicked"))
                .collect()
        });
        let wall_s = round::wall_s(&outs.iter().map(|o| o.span).collect::<Vec<_>>());

        let mut r = Round {
            setup_s,
            wall_s,
            ops: 0,
            failed: 0,
            write: Samples::default(),
            read: Samples::default(),
            range: Samples::default(),
            layers: Layers::new(traced),
            errors: Vec::new(),
        };
        let (mut committed, mut key_writes, mut freed) = (0, 0, 0);
        for o in outs {
            o.ranges.check(&mut r.errors);
            committed += o.committed;
            r.failed += o.failed;
            key_writes += o.key_writes;
            freed += o.freed;
            r.layers.merge(&o.layers);
            r.write.extend(o.write);
            r.read.extend(o.read);
            r.range.extend(o.range);
        }
        r.ops = (r.write.len() + r.read.len() + r.range.len()) as u64;

        // No lost update: every committed transaction added exactly one
        // to each of its keys (an absent key reads as zero).
        let prefill_sum: u64 = self.prefill.iter().map(|&(_, v)| v).sum();
        let h = store.register();
        let mut all = Vec::new();
        h.range_query(&0, &(KEY_RANGE - 1), &mut all);
        let sum: u64 = all.iter().map(|&(_, v)| v).sum();
        let expected = prefill_sum + committed * TXN_KEYS as u64;
        if sum != expected {
            r.errors.push(format!(
                "value sum {sum} != prefill sum {prefill_sum} + {committed} commits x {TXN_KEYS}"
            ));
        }
        drop(h);

        if traced {
            let stats = store.txn_stats();
            let commits = stats.commits - stats0.commits;
            r.layers.add_acc(
                Layer::StoreConflicts,
                Acc::of(commits, (stats.conflicts - stats0.conflicts) as f64),
            );
            r.layers.add_acc(
                Layer::StoreValidationFailures,
                Acc::of(
                    commits,
                    (stats.validation_failures - stats0.validation_failures) as f64,
                ),
            );
            let advances = store.context().advance_calls() - advances0;
            round::bundle_layers(&store, &mut r.layers, key_writes, freed, advances);
            if let Some(snap) = store.obs_snapshot(0) {
                round::pipeline_layers(&snap, &mut r.layers);
            }
        }
        r
    }
}

fn client(
    store: &std::sync::Arc<CitrusStore<u64, u64>>,
    ops: &[TxnMixOp],
    traced: bool,
    barrier: &Barrier,
) -> ClientOut {
    let h = store.register();
    let tid = h.tid();
    let n = ops.len();
    let mut o = ClientOut {
        write: Samples::with_capacity(n / 2 + 16),
        read: Samples::with_capacity(n / 2),
        range: Samples::with_capacity(n / 8),
        ranges: RangeLog::with_capacity(n / 8),
        committed: 0,
        failed: 0,
        key_writes: 0,
        freed: 0,
        layers: Layers::new(traced),
        span: (Instant::now(), Instant::now()),
    };
    let mut recycler = Recycler::default();
    let mut buf = Vec::with_capacity(RANGE_SPAN as usize);
    barrier.wait();
    let start = Instant::now();
    for &op in ops {
        let t0 = Instant::now();
        match op {
            TxnMixOp::Txn { keys, range_lo } => {
                let mut attempts = 0;
                let committed = loop {
                    attempts += 1;
                    let mut tx = h.rw_txn();
                    let mut values = [0u64; TXN_KEYS];
                    for (v, k) in values.iter_mut().zip(&keys) {
                        *v = o.layers.span(Layer::TxnGet, || tx.get(k)).unwrap_or(0);
                    }
                    let high = range_lo + TXN_RANGE_SPAN - 1;
                    o.layers
                        .span(Layer::TxnRange, || tx.range(&range_lo, &high, &mut buf));
                    for (&k, &v) in keys.iter().zip(&values) {
                        tx.set(k, v + 1);
                    }
                    match o.layers.span(Layer::TxnCommit, || tx.commit()) {
                        Ok(_) => break true,
                        Err(TxnAborted) => {
                            store.obs_note_rw_retry(tid);
                            if attempts >= MAX_ATTEMPTS {
                                break false;
                            }
                        }
                    }
                };
                if committed {
                    o.write.push(ns_since(t0));
                    o.layers
                        .add_acc(Layer::TxnAttempts, Acc::of(1, attempts as f64));
                    o.committed += 1;
                    o.key_writes += TXN_KEYS as u64;
                    recycler.note_writes(store, tid, TXN_KEYS as u64, &mut o.layers);
                } else {
                    o.failed += 1;
                }
            }
            TxnMixOp::Get(k) => {
                black_box(h.snapshot_get(&k));
                let ns = ns_since(t0);
                o.read.push(ns);
                o.layers.add(Layer::StoreGet, ns as f64);
            }
            TxnMixOp::Range(lo) => {
                let got = h.range_query(&lo, &(lo + RANGE_SPAN - 1), &mut buf);
                let ns = ns_since(t0);
                o.range.push(ns);
                o.layers.add(Layer::StoreRange, ns as f64);
                o.layers.add(Layer::StoreRangeKeys, got as f64);
                o.ranges.record(lo, &buf);
            }
        }
    }
    o.span = (start, Instant::now());
    o.freed = recycler.freed;
    o
}
