//! # shard-core
//!
//! The ShardingSphere-RS kernel: sharding configuration and algorithms,
//! the SQL engine (router, rewriter, executor, merger), distributed
//! transactions (Local / XA / BASE), the governor, DistSQL execution, and
//! pluggable features (read-write splitting, encryption, shadow DB, hints).

pub mod algorithm;
pub mod cache;
pub mod config;
pub mod datasource;
pub mod distsql;
pub mod error;
pub mod executor;
pub mod feature;
pub mod governor;
pub mod merge;
pub mod metadata;
pub mod obs;
pub mod plan;
pub mod rewrite;
pub mod route;

pub mod runtime;
pub mod settings;
pub mod transaction;

pub use error::{ErrorClass, KernelError, Result};
pub use obs::{
    Incident, IncidentKind, KernelMetrics, MetricsRegistry, SloMonitor, SlowQueryLog,
    StatementTrace, TraceCollector, TraceRecord,
};
pub use route::RouteStrategy;
pub use runtime::{QueryStream, RuntimeBuilder, Session, ShardingRuntime, StreamOutcome};
pub use transaction::TransactionType;
