//! # shard-bench
//!
//! Benchmark harness reproducing the paper's evaluation (§VIII): Sysbench
//! and TPC-C workload generators, the system-under-test deployments
//! (ShardingSphere-JDBC / -Proxy plus baseline analogues), a multithreaded
//! driver, and one binary per paper table/figure (see `src/bin/`).

pub mod experiments;
pub mod metrics;
pub mod runner;
pub mod sysbench;
pub mod systems;
pub mod tpcc;

pub use metrics::{LatencyRecorder, Metrics};
pub use runner::{run, RunConfig, Workload};
pub use systems::{Deployment, Flavor, Mode, Sut, TableSpec, Topology};
