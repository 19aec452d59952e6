//! Seeded input generation. Every input the store sees — the prefill and
//! each client's operation stream — is a pure function of the workload
//! seed, generated before anything is timed.

/// Keys live in `[0, KEY_RANGE)`.
pub const KEY_RANGE: u64 = 1_000_000;
/// Keys inserted by the set-up: half the keyspace.
pub const PREFILL_KEYS: usize = (KEY_RANGE / 2) as usize;
/// Key span of a store range query (`[lo, lo + RANGE_SPAN - 1]`).
pub const RANGE_SPAN: u64 = 50;
/// Key span of the range read inside a read-write transaction.
pub const TXN_RANGE_SPAN: u64 = 16;
/// Keys read and written back by one read-write transaction.
pub const TXN_KEYS: usize = 4;
/// Set ops per durable-ingest batch.
pub const BATCH_OPS: usize = 16;
/// Point reads issued beside each durable-ingest batch.
pub const BATCH_GETS: usize = 4;
/// Every `HOT_STRIDE`-th key is hot: 1% of the keyspace.
pub const HOT_STRIDE: u64 = 100;
/// Share of transaction keys drawn from the hot set, in percent.
pub const HOT_PERCENT: u64 = 90;
/// Prefill values are drawn from `[0, PREFILL_VALUE_RANGE)`.
pub const PREFILL_VALUE_RANGE: u64 = 1000;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent generator for stream `stream` of `seed`.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is below 2^-40 for
    /// the ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Stream ids, so no two generated inputs share a generator.
const PREFILL_STREAM: u64 = 1;
const CLIENT_STREAM: u64 = 1 << 8;
const INGEST_STREAM: u64 = 1 << 16;

/// The set-up's `(key, value)` pairs: `PREFILL_KEYS` distinct keys of
/// `[0, KEY_RANGE)` in random insertion order.
pub fn prefill(seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::derive(seed, PREFILL_STREAM);
    let mut keys: Vec<u64> = (0..KEY_RANGE).collect();
    // Partial Fisher-Yates: the first PREFILL_KEYS slots are a uniform
    // random sample in random order.
    for i in 0..PREFILL_KEYS {
        let j = i + rng.below(KEY_RANGE - i as u64) as usize;
        keys.swap(i, j);
    }
    keys.truncate(PREFILL_KEYS);
    keys.into_iter()
        .map(|k| (k, rng.below(PREFILL_VALUE_RANGE)))
        .collect()
}

fn range_low(rng: &mut Rng, span: u64) -> u64 {
    rng.below(KEY_RANGE - span + 1)
}

/// One operation of the `rq-mix` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    /// Range query over `[lo, lo + RANGE_SPAN - 1]`.
    Range(u64),
}

/// Client `client`'s `rq-mix` stream: the paper's 50-40-10 mix
/// (updates, point reads, range queries) over uniform keys, updates
/// alternating insert and remove.
pub fn rq_mix_stream(seed: u64, client: u64, ops: usize) -> Vec<MixOp> {
    let mut rng = Rng::derive(seed, CLIENT_STREAM + client);
    let mut insert_next = true;
    (0..ops)
        .map(|_| {
            let roll = rng.below(100);
            if roll < 50 {
                let key = rng.below(KEY_RANGE);
                insert_next = !insert_next;
                if insert_next {
                    MixOp::Remove(key)
                } else {
                    MixOp::Insert(key, rng.below(PREFILL_VALUE_RANGE))
                }
            } else if roll < 90 {
                MixOp::Get(rng.below(KEY_RANGE))
            } else {
                MixOp::Range(range_low(&mut rng, RANGE_SPAN))
            }
        })
        .collect()
}

/// One operation of the `rw-txn` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnMixOp {
    /// Read `keys` and the range `[range_lo, range_lo + TXN_RANGE_SPAN - 1]`,
    /// then write every key back incremented.
    Txn {
        keys: [u64; TXN_KEYS],
        range_lo: u64,
    },
    /// A snapshot point read.
    Get(u64),
    /// Range query over `[lo, lo + RANGE_SPAN - 1]`.
    Range(u64),
}

fn txn_key(rng: &mut Rng) -> u64 {
    if rng.below(100) < HOT_PERCENT {
        rng.below(KEY_RANGE / HOT_STRIDE) * HOT_STRIDE
    } else {
        rng.below(KEY_RANGE)
    }
}

/// Client `client`'s `rw-txn` stream: 50% read-write transactions over
/// four distinct keys (90% of them from the hot 1% of the keyspace),
/// 40% snapshot reads and 10% range queries over uniform keys.
pub fn rw_txn_stream(seed: u64, client: u64, ops: usize) -> Vec<TxnMixOp> {
    let mut rng = Rng::derive(seed, CLIENT_STREAM + client);
    (0..ops)
        .map(|_| {
            let roll = rng.below(100);
            if roll < 50 {
                let mut keys = [0u64; TXN_KEYS];
                for i in 0..TXN_KEYS {
                    keys[i] = loop {
                        let k = txn_key(&mut rng);
                        if !keys[..i].contains(&k) {
                            break k;
                        }
                    };
                }
                TxnMixOp::Txn {
                    keys,
                    range_lo: range_low(&mut rng, TXN_RANGE_SPAN),
                }
            } else if roll < 90 {
                TxnMixOp::Get(rng.below(KEY_RANGE))
            } else {
                TxnMixOp::Range(range_low(&mut rng, RANGE_SPAN))
            }
        })
        .collect()
}

/// One producer step of the `durable-ingest` workload: a batch of `Set`
/// ops on distinct keys, plus the reads issued beside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestStep {
    /// `(key, value)` of each `Set`; values are unique across the stream,
    /// so a read-back names the write it observed.
    pub sets: [(u64, u64); BATCH_OPS],
    pub gets: [u64; BATCH_GETS],
    /// Range query over `[range_lo, range_lo + RANGE_SPAN - 1]`.
    pub range_lo: u64,
}

/// The `durable-ingest` producer's stream of `batches` steps.
pub fn ingest_stream(seed: u64, batches: usize) -> Vec<IngestStep> {
    let mut rng = Rng::derive(seed, INGEST_STREAM);
    let mut next_value = PREFILL_VALUE_RANGE;
    (0..batches)
        .map(|_| {
            let mut sets = [(0u64, 0u64); BATCH_OPS];
            for i in 0..BATCH_OPS {
                let key = loop {
                    let k = rng.below(KEY_RANGE);
                    if !sets[..i].iter().any(|&(s, _)| s == k) {
                        break k;
                    }
                };
                sets[i] = (key, next_value);
                next_value += 1;
            }
            let gets = [(); BATCH_GETS].map(|()| rng.below(KEY_RANGE));
            IngestStep {
                sets,
                gets,
                range_lo: range_low(&mut rng, RANGE_SPAN),
            }
        })
        .collect()
}
