//! Latency samples, per-layer accumulators, and the process facts
//! reported next to the results.

use std::path::Path;
use std::time::Instant;

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A percentile must leave at least this many samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Latency samples of one operation class, in nanoseconds.
#[derive(Debug, Default)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentiles `qs` (each in `(0, 1)`), in microseconds.
    /// Fails when a percentile would have fewer than
    /// [`MIN_TAIL_SAMPLES`] samples beyond it.
    pub fn percentiles_us(&mut self, qs: &[f64]) -> Result<Vec<f64>, String> {
        self.0.sort_unstable();
        let n = self.0.len();
        qs.iter()
            .map(|&q| {
                let rank = ((q * n as f64).ceil() as usize).max(1);
                if n - rank.min(n) < MIN_TAIL_SAMPLES {
                    return Err(format!(
                        "p{} of {n} samples leaves fewer than {MIN_TAIL_SAMPLES} beyond it",
                        q * 100.0
                    ));
                }
                Ok(self.0[rank - 1] as f64 / 1e3)
            })
            .collect()
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A count of events and the total of a quantity over them; the layer
/// metric is `total / count`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub count: u64,
    pub total: f64,
}

impl Acc {
    pub fn of(count: u64, total: f64) -> Self {
        Acc { count, total }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }

    pub fn merge(&mut self, other: Acc) {
        self.count += other.count;
        self.total += other.total;
    }
}

macro_rules! layers {
    ($($variant:ident => $name:literal, $unit:literal;)*) => {
        /// One per-layer metric measured in traced rounds.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Layer { $($variant),* }

        impl Layer {
            pub const ALL: &'static [Layer] = &[$(Layer::$variant),*];

            pub fn name(self) -> &'static str {
                match self { $(Layer::$variant => $name),* }
            }

            pub fn unit(self) -> &'static str {
                match self { $(Layer::$variant => $unit),* }
            }
        }
    };
}

layers! {
    StoreGet => "store.get_ns", "ns";
    StoreRange => "store.range_ns", "ns";
    StoreRangeKeys => "store.range_keys", "count";
    StoreUpdate => "store.update_ns", "ns";
    PipelineIntents => "store.pipeline.intents_ns", "ns";
    PipelinePrepare => "store.pipeline.prepare_ns", "ns";
    PipelineValidate => "store.pipeline.validate_ns", "ns";
    PipelineAdvance => "store.pipeline.advance_ns", "ns";
    PipelineFinalize => "store.pipeline.finalize_ns", "ns";
    StoreConflicts => "store.txn.conflicts_per_commit", "ratio";
    StoreValidationFailures => "store.txn.validation_failures_per_commit", "ratio";
    TxnGet => "txn.get_ns", "ns";
    TxnRange => "txn.range_ns", "ns";
    TxnCommit => "txn.commit_ns", "ns";
    TxnAttempts => "txn.attempts_per_commit", "ratio";
    Recycle => "bundle.recycle_ns", "ns";
    RecycleFreed => "bundle.recycle_freed_per_write", "ratio";
    EntriesPerKey => "bundle.entries_per_key", "ratio";
    ClockAdvances => "bundle.clock_advances_per_write", "ratio";
    IngestSubmit => "ingest.submit_ns", "ns";
    IngestTicketWait => "ingest.ticket_wait_ns", "ns";
    IngestOpsPerGroup => "ingest.ops_per_group", "count";
    IngestFoldedShare => "ingest.folded_share", "ratio";
    WalLogGroup => "wal.log_group_ns", "ns";
    WalBytes => "wal.bytes_per_write", "bytes";
}

/// The five commit-pipeline stages, in `store::PIPELINE_STAGES` order.
pub const PIPELINE_LAYERS: [Layer; 5] = [
    Layer::PipelineIntents,
    Layer::PipelinePrepare,
    Layer::PipelineValidate,
    Layer::PipelineAdvance,
    Layer::PipelineFinalize,
];

/// Per-layer accumulators of one thread or one round. Disabled (the
/// untraced rounds) it records nothing and [`Layers::span`] adds no
/// clock reads.
#[derive(Debug, Clone)]
pub struct Layers {
    enabled: bool,
    acc: Vec<Acc>,
}

impl Layers {
    pub fn new(enabled: bool) -> Self {
        Layers {
            enabled,
            acc: vec![Acc::default(); Layer::ALL.len()],
        }
    }

    /// Record one event of `layer` with quantity `value`.
    pub fn add(&mut self, layer: Layer, value: f64) {
        if self.enabled {
            self.acc[layer as usize].merge(Acc::of(1, value));
        }
    }

    /// Record a whole accumulator for `layer` (ratios of counter deltas).
    pub fn add_acc(&mut self, layer: Layer, acc: Acc) {
        if self.enabled {
            self.acc[layer as usize].merge(acc);
        }
    }

    /// Run `f`, timing it as one call into `layer` when enabled.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.add(layer, ns_since(t0) as f64);
        r
    }

    pub fn merge(&mut self, other: &Layers) {
        for (a, b) in self.acc.iter_mut().zip(&other.acc) {
            a.merge(*b);
        }
    }

    pub fn get(&self, layer: Layer) -> Acc {
        self.acc[layer as usize]
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the size and field order of the 64-bit Linux
    // `struct rusage` (two timevals, then 14 longs starting with
    // ru_maxrss), and `usage` is a valid, writable, exclusively borrowed
    // instance of it for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // ru_maxrss is in KiB on Linux.
    usage.maxrss as f64 / 1024.0
}

/// The type of the filesystem holding `path` (`ext4`, `tmpfs`, ...), or
/// its magic number in hex when unrecognised.
pub fn fs_type(path: &Path) -> String {
    use std::os::unix::ffi::OsStrExt;
    // 64-bit Linux `struct statfs` is 120 bytes with `f_type` (a long)
    // first; the buffer is larger than that.
    #[repr(C)]
    struct StatFs {
        f_type: i64,
        rest: [u64; 31],
    }
    extern "C" {
        fn statfs(path: *const std::ffi::c_char, buf: *mut StatFs) -> i32;
    }
    let Ok(cpath) = std::ffi::CString::new(path.as_os_str().as_bytes()) else {
        return "unknown".to_string();
    };
    let mut buf = StatFs {
        f_type: 0,
        rest: [0; 31],
    };
    // SAFETY: `cpath` is a NUL-terminated string that outlives the call,
    // and `buf` is a writable buffer at least as large as the C
    // `struct statfs`, whose first member is the long `f_type`.
    let rc = unsafe { statfs(cpath.as_ptr(), &mut buf) };
    if rc != 0 {
        return "unknown".to_string();
    }
    match buf.f_type {
        0xEF53 => "ext4".to_string(),
        0x0102_1994 => "tmpfs".to_string(),
        0x5846_5342 => "xfs".to_string(),
        0x9123_683E => "btrfs".to_string(),
        0x794C_7630 => "overlayfs".to_string(),
        other => format!("0x{other:x}"),
    }
}
