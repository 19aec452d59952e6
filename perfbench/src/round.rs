//! What every workload shares: the store shape, the result of one
//! measured round, the client-side recycler, and the range-result log
//! checked after each round.

use std::time::Instant;

use obs::{MetricsRegistry, MetricsSnapshot, SnapshotValue};
use store::{uniform_splits, BundledStore, ReclaimMode, ShardBackend, PIPELINE_STAGES};

use crate::gen::{KEY_RANGE, RANGE_SPAN};
use crate::measure::{ns_since, Acc, Layer, Layers, Samples, PIPELINE_LAYERS};

/// Range shards of every store.
pub const SHARDS: usize = 8;
/// A client sweeps one shard's bundles after every `RECYCLE_EVERY` of
/// its own key writes, in every workload; no background recycler runs.
pub const RECYCLE_EVERY: u64 = 2048;

/// The outcome of one round: set-up, measured phase, and checks.
#[derive(Debug)]
pub struct Round {
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// User ops completed in the measured phase.
    pub ops: u64,
    /// User ops that failed.
    pub failed: u64,
    pub write: Samples,
    pub read: Samples,
    pub range: Samples,
    /// Empty unless the round was traced.
    pub layers: Layers,
    /// One message per failed output check.
    pub errors: Vec<String>,
}

/// Latency classes of [`Summary::latency`], in order.
pub const CLASSES: [&str; 3] = ["write", "read", "range"];

/// What a run keeps of a round once its samples are summarised.
#[derive(Debug)]
pub struct Summary {
    pub traced: bool,
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub ops: u64,
    pub failed: u64,
    /// p50 and p90 in microseconds, per class of [`CLASSES`].
    pub latency: [[f64; 2]; 3],
    /// Samples per class of [`CLASSES`].
    pub samples: [usize; 3],
    pub layers: Layers,
    pub errors: Vec<String>,
}

impl Round {
    /// Reduce the round to its percentiles, dropping the samples.
    pub fn summarize(self, traced: bool) -> Summary {
        let mut errors = self.errors;
        let mut latency = [[0.0; 2]; 3];
        let mut samples = [0; 3];
        let classes = [self.write, self.read, self.range];
        for (i, mut s) in classes.into_iter().enumerate() {
            samples[i] = s.len();
            match s.percentiles_us(&[0.5, 0.9]) {
                Ok(p) => latency[i] = [p[0], p[1]],
                Err(e) => errors.push(format!("{}: {e}", CLASSES[i])),
            }
        }
        Summary {
            traced,
            setup_s: self.setup_s,
            ops_per_s: self.ops as f64 / self.wall_s,
            ops: self.ops,
            failed: self.failed,
            latency,
            samples,
            layers: self.layers,
            errors,
        }
    }
}

/// A store over `[0, KEY_RANGE)` in [`SHARDS`] range shards for
/// `threads` sessions; with `registry`, the store records into it (no
/// flight recorder).
pub fn build_store<S: ShardBackend<u64, u64>>(
    threads: usize,
    registry: Option<&MetricsRegistry>,
) -> BundledStore<u64, u64, S> {
    let splits = uniform_splits(SHARDS, KEY_RANGE);
    match registry {
        Some(r) => {
            BundledStore::with_obs_trace_capacity(threads, ReclaimMode::Reclaim, splits, r, 0)
        }
        None => BundledStore::new(threads, splits),
    }
}

/// Prefill `store` single-threaded on tid 0.
pub fn prefill<S: ShardBackend<u64, u64>>(store: &BundledStore<u64, u64, S>, pairs: &[(u64, u64)]) {
    use bundle::api::ConcurrentSet;
    for &(k, v) in pairs {
        assert!(store.insert(0, k, v), "prefill keys are distinct");
    }
}

/// Mean stage times of the commit pipeline, from the store's registry.
pub fn pipeline_layers(snapshot: &MetricsSnapshot, layers: &mut Layers) {
    for (stage, layer) in PIPELINE_STAGES.iter().zip(PIPELINE_LAYERS) {
        if let Some(SnapshotValue::Histogram(h)) =
            snapshot.get(&format!("store.pipeline.{stage}_ns"))
        {
            layers.add_acc(layer, Acc::of(h.count, h.sum as f64));
        }
    }
}

/// The bundle-side layer figures measured at the end of a round.
pub fn bundle_layers<S: ShardBackend<u64, u64>>(
    store: &BundledStore<u64, u64, S>,
    layers: &mut Layers,
    key_writes: u64,
    freed: u64,
    clock_advances: u64,
) {
    use bundle::api::ConcurrentSet;
    layers.add_acc(Layer::RecycleFreed, Acc::of(key_writes, freed as f64));
    layers.add_acc(
        Layer::ClockAdvances,
        Acc::of(key_writes, clock_advances as f64),
    );
    let len = store.len(0) as u64;
    layers.add_acc(
        Layer::EntriesPerKey,
        Acc::of(len, store.bundle_entries(0) as f64),
    );
}

/// Client-side bundle recycling: one shard per [`RECYCLE_EVERY`] key
/// writes.
#[derive(Debug, Default)]
pub struct Recycler {
    pending: u64,
    pub freed: u64,
}

impl Recycler {
    pub fn note_writes<S: ShardBackend<u64, u64>>(
        &mut self,
        store: &BundledStore<u64, u64, S>,
        tid: usize,
        writes: u64,
        layers: &mut Layers,
    ) {
        self.pending += writes;
        while self.pending >= RECYCLE_EVERY {
            self.pending -= RECYCLE_EVERY;
            self.freed +=
                layers.span(Layer::Recycle, || store.cleanup_bundles_chunk(tid, 1)) as u64;
        }
    }
}

/// Range results of a measured phase, kept for the checks that follow
/// it.
#[derive(Debug, Default)]
pub struct RangeLog {
    lows: Vec<u64>,
    ends: Vec<usize>,
    keys: Vec<u64>,
}

impl RangeLog {
    pub fn with_capacity(ranges: usize) -> Self {
        RangeLog {
            lows: Vec::with_capacity(ranges),
            ends: Vec::with_capacity(ranges),
            keys: Vec::with_capacity(ranges * RANGE_SPAN as usize / 2),
        }
    }

    pub fn record(&mut self, low: u64, out: &[(u64, u64)]) {
        self.lows.push(low);
        self.keys.extend(out.iter().map(|&(k, _)| k));
        self.ends.push(self.keys.len());
    }

    /// Every result is strictly ascending (sorted, no duplicates), inside
    /// `[low, low + RANGE_SPAN - 1]`, and at most `RANGE_SPAN` keys.
    pub fn check(&self, errors: &mut Vec<String>) {
        let mut start = 0;
        for (&low, &end) in self.lows.iter().zip(&self.ends) {
            let keys = &self.keys[start..end];
            start = end;
            let high = low + RANGE_SPAN - 1;
            let ok = keys.len() <= RANGE_SPAN as usize
                && keys.windows(2).all(|w| w[0] < w[1])
                && keys.iter().all(|k| (low..=high).contains(k));
            if !ok {
                errors.push(format!("range [{low}, {high}] returned {keys:?}"));
                return;
            }
        }
    }
}

/// The measured-phase wall time of clients that each report their own
/// start and end.
pub fn wall_s(spans: &[(Instant, Instant)]) -> f64 {
    let start = spans
        .iter()
        .map(|s| s.0)
        .min()
        .expect("at least one client");
    let end = spans
        .iter()
        .map(|s| s.1)
        .max()
        .expect("at least one client");
    end.duration_since(start).as_secs_f64()
}

/// Time `f` in seconds.
pub fn timed_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, ns_since(t0) as f64 / 1e9)
}
