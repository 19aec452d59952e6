//! `durable-ingest`: one producer thread keeps a window of 16-op `Set`
//! batches in flight through the group-commit front-end, into a store
//! whose write-ahead log fsyncs every group, and reads beside every batch
//! it submits.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bundle::api::{ConcurrentSet, RangeQuerySet};
use ingest::{Ingest, IngestConfig, IngestOutcome, Ticket};
use obs::{MetricsRegistry, SnapshotValue};
use store::{CommitLog, SkipListStore, TxnOp};
use wal::{GroupWal, SyncPolicy, WalRecovery};

use crate::gen::{self, IngestStep, BATCH_GETS, BATCH_OPS, KEY_RANGE, RANGE_SPAN};
use crate::measure::{ns_since, Acc, Layer, Layers, Samples};
use crate::round::{self, RangeLog, Recycler, Round};

/// The producer thread.
pub const CLIENTS: usize = 1;
/// Ingest committer threads.
pub const COMMITTERS: usize = 1;
/// Batches the producer keeps in flight.
pub const WINDOW: usize = 8;
/// Batches per round.
pub const BATCHES: usize = 10_000;
/// The log's sync policy: an acknowledged write is a durable write.
pub const SYNC: SyncPolicy = SyncPolicy::Always;
/// Keys whose last acknowledged value is checked after each round.
const SAMPLE_STRIDE: u64 = 64;

type Store = SkipListStore<u64, u64>;

/// The generated inputs of `durable-ingest`, and where its log lives.
pub struct DurableIngest {
    prefill: Vec<(u64, u64)>,
    steps: Vec<IngestStep>,
    wal_root: PathBuf,
}

/// A [`CommitLog`] that times each group the log appends (and fsyncs).
struct TimedLog {
    inner: Arc<GroupWal<u64, u64>>,
    calls: AtomicU64,
    total_ns: AtomicU64,
}

impl CommitLog<u64, u64> for TimedLog {
    fn log_group(
        &self,
        tid: usize,
        ts: u64,
        ops: &[TxnOp<u64, u64>],
        order: &[usize],
        applied: &[bool],
        shards: &[usize],
    ) {
        let t0 = Instant::now();
        self.inner.log_group(tid, ts, ops, order, applied, shards);
        self.total_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn sync(&self) {
        self.inner.sync();
    }
}

/// The last acknowledged write of a sampled key: `(ts, seq, value)`.
type Ack = (u64, u64, u64);

impl DurableIngest {
    pub fn new(seed: u64, wal_root: &Path) -> Self {
        DurableIngest {
            prefill: gen::prefill(seed),
            steps: gen::ingest_stream(seed, BATCHES),
            wal_root: wal_root.to_path_buf(),
        }
    }

    pub fn round(&self, index: usize, traced: bool) -> Round {
        let dir = self
            .wal_root
            .join(format!("round-{}-{index}", std::process::id()));
        // A log left behind by an interrupted run must not block create.
        let _ = std::fs::remove_dir_all(&dir);
        let registry = traced.then(MetricsRegistry::new);
        let ((store, ingest, wal, timed), setup_s) = round::timed_s(|| {
            let mut store: Store = round::build_store(CLIENTS + COMMITTERS, registry.as_ref());
            round::prefill(&store, &self.prefill);
            let wal = Arc::new(GroupWal::create(&dir, SYNC).expect("creating the WAL failed"));
            let timed = traced.then(|| {
                Arc::new(TimedLog {
                    inner: Arc::clone(&wal),
                    calls: AtomicU64::new(0),
                    total_ns: AtomicU64::new(0),
                })
            });
            let log: Arc<dyn CommitLog<u64, u64>> = match &timed {
                Some(t) => Arc::clone(t) as Arc<dyn CommitLog<u64, u64>>,
                None => Arc::clone(&wal) as Arc<dyn CommitLog<u64, u64>>,
            };
            store.attach_commit_log(log);
            let store = Arc::new(store);
            let cfg = IngestConfig {
                committers: COMMITTERS,
                ..IngestConfig::default()
            };
            let ingest = Ingest::spawn(Arc::clone(&store), cfg);
            (store, ingest, wal, timed)
        });
        let advances0 = store.context().advance_calls();
        // The committer registered its session first; the producer takes
        // the next free one.
        let session = store.register();
        let tid = session.tid();

        let mut r = Round {
            setup_s,
            wall_s: 0.0,
            ops: 0,
            failed: 0,
            write: Samples::with_capacity(self.steps.len()),
            read: Samples::with_capacity(self.steps.len() * BATCH_GETS),
            range: Samples::with_capacity(self.steps.len()),
            layers: Layers::new(traced),
            errors: Vec::new(),
        };
        let mut ranges = RangeLog::with_capacity(self.steps.len());
        let mut acks: Vec<Option<Ack>> = vec![None; (KEY_RANGE / SAMPLE_STRIDE) as usize];
        let mut recycler = Recycler::default();
        let mut in_flight: VecDeque<(Ticket<IngestOutcome>, Instant, usize)> =
            VecDeque::with_capacity(WINDOW);
        let mut buf = Vec::with_capacity(RANGE_SPAN as usize);
        let mut resolve = |r: &mut Round, out: IngestOutcome, t0: Instant, step: usize| {
            r.write.push(ns_since(t0));
            if out.applied.len() != BATCH_OPS {
                r.failed += BATCH_OPS as u64;
                return;
            }
            for &(k, v) in &self.steps[step].sets {
                if k % SAMPLE_STRIDE == 0 {
                    let slot = &mut acks[(k / SAMPLE_STRIDE) as usize];
                    if slot.is_none_or(|(ts, seq, _)| (ts, seq) < (out.ts, out.seq)) {
                        *slot = Some((out.ts, out.seq, v));
                    }
                }
            }
        };

        let start = Instant::now();
        for (i, step) in self.steps.iter().enumerate() {
            // Collect every batch already acknowledged, then block on the
            // oldest while the window is full.
            let mut j = 0;
            while j < in_flight.len() {
                if let Some(out) = in_flight[j].0.try_take() {
                    let (_, t0, s) = in_flight.remove(j).expect("index in range");
                    resolve(&mut r, out, t0, s);
                } else {
                    j += 1;
                }
            }
            if in_flight.len() == WINDOW {
                let (ticket, t0, s) = in_flight.pop_front().expect("window is full");
                resolve(&mut r, ticket.wait(), t0, s);
            }
            let ops: Vec<TxnOp<u64, u64>> =
                step.sets.iter().map(|&(k, v)| TxnOp::Set(k, v)).collect();
            let t0 = Instant::now();
            let ticket = r
                .layers
                .span(Layer::IngestSubmit, || ingest.submit_batch(ops));
            in_flight.push_back((ticket, t0, i));
            recycler.note_writes(&store, tid, BATCH_OPS as u64, &mut r.layers);

            for k in &step.gets {
                let t0 = Instant::now();
                black_box(store.get(tid, k));
                let ns = ns_since(t0);
                r.read.push(ns);
                r.layers.add(Layer::StoreGet, ns as f64);
            }
            let t0 = Instant::now();
            let lo = step.range_lo;
            let got = store.range_query(tid, &lo, &(lo + RANGE_SPAN - 1), &mut buf);
            let ns = ns_since(t0);
            r.range.push(ns);
            r.layers.add(Layer::StoreRange, ns as f64);
            r.layers.add(Layer::StoreRangeKeys, got as f64);
            ranges.record(lo, &buf);
        }
        while let Some((ticket, t0, s)) = in_flight.pop_front() {
            resolve(&mut r, ticket.wait(), t0, s);
        }
        r.wall_s = start.elapsed().as_secs_f64();
        let batches = self.steps.len() as u64;
        r.ops = batches * (BATCH_OPS + BATCH_GETS + 1) as u64 - r.failed;

        ingest.flush();
        ranges.check(&mut r.errors);
        let stats = ingest.stats();
        if wal.durable_position() != wal.position() {
            r.errors.push(format!(
                "WAL durable position {:?} != write position {:?} after flush",
                wal.durable_position(),
                wal.position()
            ));
        }
        for (i, ack) in acks.iter().enumerate() {
            if let Some((_, _, v)) = *ack {
                let k = i as u64 * SAMPLE_STRIDE;
                let got = store.get(tid, &k);
                if got != Some(v) {
                    r.errors.push(format!(
                        "key {k} reads {got:?}, last acknowledged value {v}"
                    ));
                    break;
                }
            }
        }

        if traced {
            let key_writes = batches * BATCH_OPS as u64;
            let advances = store.context().advance_calls() - advances0;
            round::bundle_layers(&store, &mut r.layers, key_writes, recycler.freed, advances);
            if let Some(snap) = store.obs_snapshot(0) {
                round::pipeline_layers(&snap, &mut r.layers);
                if let Some(SnapshotValue::Histogram(h)) = snap.get("ingest.ticket_wait_ns") {
                    r.layers
                        .add_acc(Layer::IngestTicketWait, Acc::of(h.count, h.sum as f64));
                }
            }
            r.layers.add_acc(
                Layer::IngestOpsPerGroup,
                Acc::of(stats.groups, stats.ops as f64),
            );
            r.layers.add_acc(
                Layer::IngestFoldedShare,
                Acc::of(stats.ops, (stats.ops - stats.folded_ops) as f64),
            );
            if let Some(t) = &timed {
                r.layers.add_acc(
                    Layer::WalLogGroup,
                    Acc::of(
                        t.calls.load(Ordering::Relaxed),
                        t.total_ns.load(Ordering::Relaxed) as f64,
                    ),
                );
            }
        }
        ingest.shutdown();
        drop(ingest);
        drop(session);
        drop(store);
        // Scanned after the store is gone, so the decoded log does not
        // add to the store's peak memory.
        let scan = WalRecovery::scan::<u64, u64>(&dir).expect("scanning the WAL failed");
        if scan.stats.groups != stats.groups {
            r.errors.push(format!(
                "WAL holds {} groups, ingest committed {}",
                scan.stats.groups, stats.groups
            ));
        }
        r.layers.add_acc(
            Layer::WalBytes,
            Acc::of(batches * BATCH_OPS as u64, scan.stats.bytes as f64),
        );
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            r.errors
                .push(format!("removing {} failed: {e}", dir.display()));
        }
        r
    }
}
