//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload rq-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run is a fixed number of rounds, `--seconds / ROUND_SECONDS` (at
//! least `MIN_ROUNDS`). Each round builds and prefills a fresh store
//! (timed as `setup_s`), runs a fixed amount of closed-loop work, and
//! checks the outputs. `--trace 0` reports the end-to-end metrics as
//! medians over rounds; `--trace 1` alternates untraced and traced
//! rounds and reports the per-layer metrics. The last line of standard
//! output is one JSON object; the exit code is 0 only when every check
//! passed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::durable_ingest::{self, DurableIngest};
use perfbench::measure::{fs_type, median, peak_rss_mib, Layer, Layers, PIPELINE_LAYERS};
use perfbench::round::{Round, Summary, CLASSES};
use perfbench::rq_mix::{self, RqMix};
use perfbench::rw_txn::{self, RwTxn};

/// Nominal wall time of one round (set-up, measured phase and checks)
/// on a 2-core x86-64 box.
const ROUND_SECONDS: u64 = 3;
/// Fewest rounds in a run, so medians have something to reject.
const MIN_ROUNDS: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    RqMix,
    DurableIngest,
    RwTxn,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "rq-mix" => Some(Kind::RqMix),
            "durable-ingest" => Some(Kind::DurableIngest),
            "rw-txn" => Some(Kind::RwTxn),
            _ => None,
        }
    }

    /// Busy threads: clients plus committers.
    fn threads(self) -> usize {
        match self {
            Kind::RqMix => rq_mix::CLIENTS,
            Kind::DurableIngest => durable_ingest::CLIENTS + durable_ingest::COMMITTERS,
            Kind::RwTxn => rw_txn::CLIENTS,
        }
    }
}

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <rq-mix|durable-ingest|rw-txn> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let k = Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?;
                kind = Some((k, value));
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let (kind, name) = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The inputs of the chosen workload, generated from the seed.
enum Bench {
    RqMix(RqMix),
    DurableIngest(DurableIngest),
    RwTxn(RwTxn),
}

impl Bench {
    fn round(&self, index: usize, traced: bool) -> Round {
        match self {
            Bench::RqMix(w) => w.round(traced),
            Bench::DurableIngest(w) => w.round(index, traced),
            Bench::RwTxn(w) => w.round(traced),
        }
    }
}

/// One reported metric: name, value, unit, and the note printed beside it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note,
    }
}

/// The nine end-to-end metrics: medians over the rounds.
fn end_to_end(rounds: &[Summary]) -> Vec<Metric> {
    let n = rounds.len();
    let med = |f: &dyn Fn(&Summary) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut out = vec![
        metric(
            "setup_s",
            med(&|r| r.setup_s),
            "s",
            format!("median of {n} set-ups"),
        ),
        metric("rss_mb", peak_rss_mib(), "MiB", "peak of the run".into()),
        metric(
            "ops_per_s",
            med(&|r| r.ops_per_s),
            "1/s",
            format!("median of {n} rounds"),
        ),
    ];
    for (c, class) in CLASSES.iter().enumerate() {
        let samples: usize = rounds.iter().map(|r| r.samples[c]).sum();
        for (q, pct) in ["p50", "p90"].iter().enumerate() {
            out.push(metric(
                &format!("{class}_{pct}_us"),
                med(&|r| r.latency[c][q]),
                "us",
                format!("median of {n} rounds of {} samples", samples / n),
            ));
        }
    }
    out
}

/// The per-layer metrics of the traced rounds, plus the derived closure
/// and tracing overhead.
fn per_layer(rounds: &[Summary]) -> Vec<Metric> {
    let mut layers = Layers::new(true);
    let (mut traced_ops, mut untraced_ops) = (Vec::new(), Vec::new());
    for r in rounds {
        if r.traced {
            layers.merge(&r.layers);
            traced_ops.push(r.ops_per_s);
        } else {
            untraced_ops.push(r.ops_per_s);
        }
    }
    let mut out: Vec<Metric> = Layer::ALL
        .iter()
        .map(|&l| {
            let acc = layers.get(l);
            metric(
                l.name(),
                acc.mean(),
                l.unit(),
                format!("over {} events", acc.count),
            )
        })
        .collect();
    // Closure of the durable write: the ticket wait no pipeline stage
    // accounts for (`finalize` already contains the WAL append + fsync).
    let wait = layers.get(Layer::IngestTicketWait);
    let stages: f64 = PIPELINE_LAYERS.iter().map(|&l| layers.get(l).mean()).sum();
    let (unattributed, share) = if wait.count == 0 {
        (0.0, 0.0)
    } else {
        let u = wait.mean() - stages;
        (u, u / wait.mean())
    };
    out.push(metric(
        "ingest.unattributed_ns",
        unattributed,
        "ns",
        format!(
            "ticket wait {:.0} ns - stage sum {stages:.0} ns",
            wait.mean()
        ),
    ));
    out.push(metric(
        "ingest.unattributed_share",
        share,
        "ratio",
        "of the ticket wait".into(),
    ));
    let overhead = 1.0 - median(&traced_ops) / median(&untraced_ops);
    out.push(metric(
        "obs.trace_overhead",
        overhead,
        "ratio",
        format!(
            "{} traced vs {} untraced rounds",
            traced_ops.len(),
            untraced_ops.len()
        ),
    ));
    out
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.kind.threads();
    if threads > nproc {
        eprintln!(
            "perfbench: {} needs {threads} busy threads (clients + committers) \
             but only {nproc} are available; refusing to oversubscribe",
            args.name
        );
        return ExitCode::from(3);
    }
    let wal_root = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
        .join("perfbench-wal");
    if let Err(e) = std::fs::create_dir_all(&wal_root) {
        eprintln!("perfbench: creating {} failed: {e}", wal_root.display());
        return ExitCode::from(4);
    }
    let (wal_fs, sync) = match args.kind {
        Kind::DurableIngest => (fs_type(&wal_root), durable_ingest::SYNC.label()),
        _ => ("-".to_string(), "-".to_string()),
    };

    let bench = match args.kind {
        Kind::RqMix => Bench::RqMix(RqMix::new(args.seed)),
        Kind::DurableIngest => Bench::DurableIngest(DurableIngest::new(args.seed, &wal_root)),
        Kind::RwTxn => Bench::RwTxn(RwTxn::new(args.seed)),
    };
    let mut rounds_n = args.seconds.div_ceil(ROUND_SECONDS).max(MIN_ROUNDS) as usize;
    if args.trace {
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead compares rounds run under the same conditions.
        rounds_n = rounds_n.next_multiple_of(2);
    }
    let traced_rounds: Vec<bool> = (0..rounds_n).map(|i| args.trace && i % 2 == 1).collect();
    println!(
        "perfbench {} seed={} rounds={} trace={} nproc={nproc} threads={threads} \
         wal_fs={wal_fs} sync={sync}",
        args.name,
        args.seed,
        traced_rounds.len(),
        u8::from(args.trace)
    );
    let rounds: Vec<Summary> = traced_rounds
        .iter()
        .enumerate()
        .map(|(i, &traced)| {
            let r = bench.round(i, traced).summarize(traced);
            let [w, rd, rg] = r.latency;
            println!(
                "round {i} traced={} setup_s={:.3} ops_per_s={:.0} \
                 write_us={:.2}/{:.2} read_us={:.3}/{:.3} range_us={:.2}/{:.2}",
                u8::from(traced),
                r.setup_s,
                r.ops_per_s,
                w[0],
                w[1],
                rd[0],
                rd[1],
                rg[0],
                rg[1]
            );
            r
        })
        .collect();

    let mut errors: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let attempted: u64 = rounds.iter().map(|r| r.ops + r.failed).sum();
    let metrics = if args.trace {
        per_layer(&rounds)
    } else {
        end_to_end(&rounds)
    };
    errors.extend(
        metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} is not finite", m.name)),
    );
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for m in &metrics {
        println!("{:<44} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let correct = errors.is_empty();
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
