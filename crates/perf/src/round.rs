//! One round: a fresh deployment, a warm-up, then a fixed number of ops
//! through the door, each timed with one `Instant` pair, with the host's
//! speed sampled in between.

use crate::deploy::Deployment;
use crate::gen::{Detail, Op, Rng};
use crate::reference::{self, Reference};
use crate::workload::{run_op, AnalyticsOracle, Checker, Client, DoorTracer, Untraced, Workload};
use shard_storage::ExecuteResult;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch samples the host's speed before its first op, after its last, and
/// in between whenever this much time has passed since the last sample:
/// about 100 samples in a round of nominal length, and the same share of
/// ops run on the caches a sample leaves behind in a batch of any length.
const REFERENCE_EVERY: Duration = Duration::from_millis(40);
/// Errors printed per batch before the rest are only counted.
const ERRORS_SHOWN: u64 = 5;

/// A deployment with one connected client and the harness's view of the
/// data, ready to run ops from a seeded stream.
pub struct Stage {
    pub workload: Workload,
    /// Declared, and so dropped, before the deployment: the proxy's worker
    /// exits as soon as its client hangs up.
    pub client: Client,
    pub deployment: Deployment,
    pub checker: Checker,
    /// Build + create + load, at nominal host speed.
    pub setup_s: f64,
    rng: Rng,
    op: Op,
    results: Vec<ExecuteResult>,
}

/// Latency of an op that failed or was never started.
pub const NO_LATENCY: f64 = f64::INFINITY;

/// What running a batch of ops at the door produced.
pub struct Batch {
    pub failed: u64,
    pub wall_ns: u64,
    /// Latency of every op by its index in the stream ([`NO_LATENCY`] for a
    /// failed one), as measured.
    pub latency_ns: Vec<f64>,
    /// Reference samples in the order taken; the first is before op 0, the
    /// last after the last op.
    pub reference_ns: Vec<f64>,
    /// For each sample but the last, the op it was taken just before.
    reference_before_op: Vec<usize>,
}

impl Batch {
    pub fn attempted(&self) -> u64 {
        self.latency_ns.len() as u64
    }

    /// Every op's latency at nominal host speed: scaled by the two reference
    /// samples that bracket its stretch of ops.
    pub fn scaled_ns(&self) -> Vec<f64> {
        let mut stretch = 0;
        self.latency_ns
            .iter()
            .enumerate()
            .map(|(i, latency)| {
                while self
                    .reference_before_op
                    .get(stretch + 1)
                    .is_some_and(|op| *op <= i)
                {
                    stretch += 1;
                }
                latency * reference::speed(&self.reference_ns[stretch..stretch + 2])
            })
            .collect()
    }
}

/// The latencies of the ops that succeeded, ascending.
pub fn sorted_latencies(latency_ns: &[f64]) -> Vec<f64> {
    let mut ok: Vec<f64> = latency_ns
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    ok.sort_unstable_by(f64::total_cmp);
    ok
}

impl Stage {
    /// Build the deployment (timed as `setup_s`) and connect.
    pub fn build(
        workload: Workload,
        seed: u64,
        oracle: Option<&Arc<AnalyticsOracle>>,
        reference: &mut Reference,
    ) -> Stage {
        let before = reference.sample_ns();
        let started = Instant::now();
        let deployment =
            Deployment::build(workload.table(), workload.rows(), workload.through_proxy());
        let setup_s = started.elapsed().as_secs_f64();
        let setup_s = setup_s * reference::speed(&[before, reference.sample_ns()]);
        let client = Client::connect(workload, &deployment);
        let checker = match workload {
            Workload::PointSelectJdbc | Workload::PointSelectProxy => Checker::Point,
            Workload::ReadWriteXaJdbc => Checker::ReadWrite(HashMap::new()),
            Workload::AnalyticsScanJdbc => {
                Checker::Analytics(Arc::clone(oracle.expect("analytics needs its oracle")))
            }
        };
        Stage {
            workload,
            client,
            deployment,
            checker,
            setup_s,
            rng: Rng::new(seed),
            op: Op {
                stmts: Vec::new(),
                detail: Detail::Point { id: 0 },
            },
            results: Vec::new(),
        }
    }

    /// Generate the stream's next op without running it.
    pub fn next_op(&mut self) -> &Op {
        self.workload.generate(&mut self.rng, &mut self.op);
        &self.op
    }

    /// Run the stream's next `ops` ops at the door. Ops not started when
    /// `cap` has elapsed count as failed, as does an op whose statements
    /// error or whose results are wrong.
    pub fn run(
        &mut self,
        ops: u64,
        cap: Duration,
        tracer: &mut impl DoorTracer,
        reference: &mut Reference,
    ) -> Batch {
        let mut batch = Batch {
            failed: 0,
            wall_ns: 0,
            latency_ns: vec![NO_LATENCY; ops as usize],
            reference_ns: vec![reference.sample_ns()],
            reference_before_op: vec![0],
        };
        let started = Instant::now();
        let mut sampled = started;
        for i in 0..ops as usize {
            self.workload.generate(&mut self.rng, &mut self.op);
            let mut t0 = Instant::now();
            if t0 - sampled >= REFERENCE_EVERY {
                batch.reference_ns.push(reference.sample_ns());
                batch.reference_before_op.push(i);
                t0 = Instant::now();
                sampled = t0;
            }
            if t0 - started > cap {
                eprintln!("round exceeded its {cap:?} cap after {i} of {ops} ops");
                batch.failed += ops - i as u64;
                break;
            }
            tracer.open_op();
            let outcome = run_op(&mut self.client, &self.op, &mut self.results, tracer);
            tracer.close_op();
            let latency = t0.elapsed();
            let outcome = outcome.and_then(|()| {
                if self.checker.check(&self.op, &self.results) {
                    Ok(())
                } else {
                    Err("wrong result".to_string())
                }
            });
            match outcome {
                Ok(()) => batch.latency_ns[i] = latency.as_nanos() as f64,
                Err(e) => {
                    batch.failed += 1;
                    if batch.failed <= ERRORS_SHOWN {
                        eprintln!("op {i} failed: {e}");
                    }
                }
            }
        }
        batch.reference_ns.push(reference.sample_ns());
        batch.wall_ns = started.elapsed().as_nanos() as u64;
        batch
    }

    /// Warm up with `ops` untimed ops; returns how many failed.
    pub fn warm_up(&mut self, ops: u64, cap: Duration, reference: &mut Reference) -> u64 {
        self.run(ops, cap, &mut Untraced, reference).failed
    }

    /// After the ops: rows of the table that differ from the harness's view.
    pub fn check_table(&self) -> u64 {
        let wrong = self.checker.check_table(&mut self.deployment.connection());
        if wrong > 0 {
            eprintln!("{wrong} rows differ from the shadow table");
        }
        wrong
    }
}
