//! `rq-mix`: the paper's fig2 mix (50% updates, 40% point reads, 10%
//! 50-key range queries) from closed-loop clients calling the skip-list
//! store's primitive operations.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use bundle::api::{ConcurrentSet, RangeQuerySet};
use obs::MetricsRegistry;
use store::SkipListStore;

use crate::gen::{self, MixOp, PREFILL_KEYS, RANGE_SPAN};
use crate::measure::{ns_since, Layer, Layers, Samples};
use crate::round::{self, RangeLog, Recycler, Round};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Operations per client per round.
pub const OPS_PER_CLIENT: usize = 400_000;

/// The generated inputs of `rq-mix`.
pub struct RqMix {
    prefill: Vec<(u64, u64)>,
    streams: Vec<Vec<MixOp>>,
}

struct ClientOut {
    write: Samples,
    read: Samples,
    range: Samples,
    ranges: RangeLog,
    inserted: u64,
    removed: u64,
    key_writes: u64,
    freed: u64,
    layers: Layers,
    span: (Instant, Instant),
}

impl RqMix {
    pub fn new(seed: u64) -> Self {
        RqMix {
            prefill: gen::prefill(seed),
            streams: (0..CLIENTS as u64)
                .map(|c| gen::rq_mix_stream(seed, c, OPS_PER_CLIENT))
                .collect(),
        }
    }

    pub fn round(&self, traced: bool) -> Round {
        let registry = traced.then(MetricsRegistry::new);
        let (store, setup_s) = round::timed_s(|| {
            let store = round::build_store(CLIENTS, registry.as_ref());
            round::prefill(&store, &self.prefill);
            store
        });
        let store: SkipListStore<u64, u64> = store;
        let advances0 = store.context().advance_calls();
        let barrier = Barrier::new(CLIENTS);
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .streams
                .iter()
                .enumerate()
                .map(|(tid, ops)| {
                    let (store, barrier) = (&store, &barrier);
                    s.spawn(move || client(store, tid, ops, traced, barrier))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rq-mix client panicked"))
                .collect()
        });
        let wall_s = round::wall_s(&outs.iter().map(|o| o.span).collect::<Vec<_>>());

        let mut r = Round {
            setup_s,
            wall_s,
            ops: self.streams.iter().map(|s| s.len() as u64).sum(),
            failed: 0,
            write: Samples::default(),
            read: Samples::default(),
            range: Samples::default(),
            layers: Layers::new(traced),
            errors: Vec::new(),
        };
        let (mut inserted, mut removed, mut key_writes, mut freed) = (0, 0, 0, 0);
        for o in outs {
            o.ranges.check(&mut r.errors);
            inserted += o.inserted;
            removed += o.removed;
            key_writes += o.key_writes;
            freed += o.freed;
            r.layers.merge(&o.layers);
            r.write.extend(o.write);
            r.read.extend(o.read);
            r.range.extend(o.range);
        }
        let expected = PREFILL_KEYS as u64 + inserted - removed;
        let len = store.len(0) as u64;
        if len != expected {
            r.errors.push(format!(
                "final len {len} != prefill {PREFILL_KEYS} + {inserted} inserted - {removed} removed"
            ));
        }
        if traced {
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
    store: &SkipListStore<u64, u64>,
    tid: usize,
    ops: &[MixOp],
    traced: bool,
    barrier: &Barrier,
) -> ClientOut {
    let n = ops.len();
    let mut o = ClientOut {
        write: Samples::with_capacity(n / 2 + 16),
        read: Samples::with_capacity(n / 2),
        range: Samples::with_capacity(n / 8),
        ranges: RangeLog::with_capacity(n / 8),
        inserted: 0,
        removed: 0,
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
            MixOp::Insert(k, v) => {
                let ok = store.insert(tid, k, v);
                let ns = ns_since(t0);
                o.write.push(ns);
                o.layers.add(Layer::StoreUpdate, ns as f64);
                o.inserted += u64::from(ok);
                o.key_writes += 1;
                recycler.note_writes(store, tid, 1, &mut o.layers);
            }
            MixOp::Remove(k) => {
                let ok = store.remove(tid, &k);
                let ns = ns_since(t0);
                o.write.push(ns);
                o.layers.add(Layer::StoreUpdate, ns as f64);
                o.removed += u64::from(ok);
                o.key_writes += 1;
                recycler.note_writes(store, tid, 1, &mut o.layers);
            }
            MixOp::Get(k) => {
                black_box(store.get(tid, &k));
                let ns = ns_since(t0);
                o.read.push(ns);
                o.layers.add(Layer::StoreGet, ns as f64);
            }
            MixOp::Range(lo) => {
                let got = store.range_query(tid, &lo, &(lo + RANGE_SPAN - 1), &mut buf);
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
