//! The repository benchmark: three workloads driven through the public
//! APIs of `store`, `txn`, `ingest` and `wal`, with end-to-end metrics
//! from untraced rounds and per-layer metrics from traced ones. See
//! `README.md` in this directory.

pub mod durable_ingest;
pub mod gen;
pub mod measure;
pub mod round;
pub mod rq_mix;
pub mod rw_txn;
