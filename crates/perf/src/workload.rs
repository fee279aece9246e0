//! The four workloads: what one op is, which door it goes through, how many
//! ops a round runs, and how its results are checked.

use crate::deploy::{self, Deployment, Table};
use crate::gen::{self, AnalyticsCycle, Class, Detail, Op, Rng, RwTxn};
use shard_jdbc::Connection;
use shard_proxy::ProxyClient;
use shard_sql::Value;
use shard_storage::{ExecuteResult, ResultSet};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointSelectJdbc,
    PointSelectProxy,
    ReadWriteXaJdbc,
    AnalyticsScanJdbc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointSelectJdbc,
        Workload::PointSelectProxy,
        Workload::ReadWriteXaJdbc,
        Workload::AnalyticsScanJdbc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointSelectJdbc => "point_select_jdbc",
            Workload::PointSelectProxy => "point_select_proxy",
            Workload::ReadWriteXaJdbc => "read_write_xa_jdbc",
            Workload::AnalyticsScanJdbc => "analytics_scan_jdbc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops of one measured round per nominal second of that round, sized on
    /// the seed tree so that a round asked to last N seconds does. These
    /// are the benchmark's fixed work: changing them is a benchmark change.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Workload::PointSelectJdbc => 115_000,
            Workload::PointSelectProxy => 25_000,
            Workload::ReadWriteXaJdbc => 1_200,
            Workload::AnalyticsScanJdbc => 40,
        }
    }

    /// Ops of the traced round's door phase per nominal second of an
    /// untraced round.
    pub fn traced_ops_per_second(self) -> u64 {
        match self {
            Workload::PointSelectJdbc => 10_000,
            Workload::PointSelectProxy => 5_000,
            Workload::ReadWriteXaJdbc => 200,
            Workload::AnalyticsScanJdbc => 10,
        }
    }

    pub fn through_proxy(self) -> bool {
        self == Workload::PointSelectProxy
    }

    pub fn table(self) -> Table {
        match self {
            Workload::AnalyticsScanJdbc => Table::Hits,
            _ => Table::Sbtest,
        }
    }

    pub fn rows(self) -> i64 {
        match self.table() {
            Table::Sbtest => gen::SBTEST_ROWS,
            Table::Hits => gen::HITS_ROWS,
        }
    }

    /// Statements that put a fresh connection into the workload's mode.
    pub fn session_setup(self) -> &'static [&'static str] {
        match self {
            Workload::ReadWriteXaJdbc => &["SET VARIABLE transaction_type = XA"],
            _ => &[],
        }
    }

    pub fn generate(self, rng: &mut Rng, op: &mut Op) {
        match self {
            Workload::PointSelectJdbc | Workload::PointSelectProxy => gen::point_select_op(rng, op),
            Workload::ReadWriteXaJdbc => gen::read_write_op(rng, op),
            Workload::AnalyticsScanJdbc => gen::analytics_op(rng, op),
        }
    }
}

/// A front door: something that takes SQL text and parameters.
pub trait Door {
    fn exec(&mut self, sql: &str, params: &[Value]) -> Result<ExecuteResult, String>;
}

impl Door for Connection {
    fn exec(&mut self, sql: &str, params: &[Value]) -> Result<ExecuteResult, String> {
        self.execute(sql, params).map_err(|e| e.to_string())
    }
}

impl Door for ProxyClient {
    fn exec(&mut self, sql: &str, params: &[Value]) -> Result<ExecuteResult, String> {
        self.execute(sql, params).map_err(|e| e.to_string())
    }
}

/// Sees every op, and every statement inside it, start and end at the door.
pub trait DoorTracer {
    fn open_op(&mut self);
    fn close_op(&mut self);
    fn open_stmt(&mut self, class: Class) -> u32;
    fn close_stmt(&mut self, id: u32);
}

/// The end-to-end rounds record nothing but one `Instant` pair per op.
pub struct Untraced;

impl DoorTracer for Untraced {
    fn open_op(&mut self) {}
    fn close_op(&mut self) {}
    fn open_stmt(&mut self, _: Class) -> u32 {
        0
    }
    fn close_stmt(&mut self, _: u32) {}
}

/// Run one op's statements in order, keeping their results for the check
/// that follows outside the timed region. On an error inside a transaction
/// the transaction is rolled back.
pub fn run_op(
    door: &mut impl Door,
    op: &Op,
    results: &mut Vec<ExecuteResult>,
    tracer: &mut impl DoorTracer,
) -> Result<(), String> {
    results.clear();
    for stmt in &op.stmts {
        let id = tracer.open_stmt(stmt.class);
        let outcome = door.exec(stmt.sql, &stmt.params);
        tracer.close_stmt(id);
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => {
                if matches!(op.detail, Detail::ReadWrite(_)) {
                    let _ = door.exec("ROLLBACK", &[]);
                }
                return Err(format!("{}: {e}", stmt.class.name()));
            }
        }
    }
    Ok(())
}

// -- result checking -----------------------------------------------------------

/// Reference results for the analytics statements, one per parameter choice,
/// from one unsharded engine loaded with the same rows.
pub struct AnalyticsOracle {
    group_by: ResultSet,
    multi_agg: Vec<ResultSet>,
    top_n: Vec<ResultSet>,
    filter_scan: Vec<ResultSet>,
}

impl AnalyticsOracle {
    pub fn build() -> Self {
        let engine = deploy::unsharded_oracle(Table::Hits, gen::HITS_ROWS);
        let answer = |class: Class, choice: i64| {
            let s = gen::analytics_stmt(class, choice);
            engine
                .execute_sql(s.sql, &s.params, None)
                .expect("oracle statement")
                .query()
        };
        let per_choice = |class: Class| {
            (0..gen::ANALYTICS_CHOICES)
                .map(|c| answer(class, c))
                .collect()
        };
        AnalyticsOracle {
            group_by: answer(Class::GroupBy, 0),
            multi_agg: per_choice(Class::MultiAgg),
            top_n: per_choice(Class::TopN),
            filter_scan: per_choice(Class::FilterScan),
        }
    }
}

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Partial aggregates merge in a different order than one engine sums
        // in: floats agree to rounding, everything else exactly.
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        (Value::Null, Value::Null) => true,
        _ => a.sql_cmp(b) == Some(std::cmp::Ordering::Equal),
    }
}

fn row_eq(got: &[Value], want: &[Value]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| value_eq(a, b))
}

fn rows_eq(got: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| row_eq(g, w))
}

/// Compare ignoring row order (the statement has no ORDER BY).
fn rows_eq_unordered(got: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    let sorted = |rows: &[Vec<Value>]| {
        let mut v = rows.to_vec();
        v.sort_by(|a, b| a[0].total_cmp(&b[0]));
        v
    };
    rows_eq(&sorted(got), &sorted(want))
}

fn rows_of(r: &ExecuteResult) -> &[Vec<Value>] {
    match r {
        ExecuteResult::Query(rs) => &rs.rows,
        ExecuteResult::Update { .. } => &[],
    }
}

fn single_str(r: &ExecuteResult) -> Option<&str> {
    match rows_of(r) {
        [row] => match row.as_slice() {
            [Value::Str(s)] => Some(s),
            _ => None,
        },
        _ => None,
    }
}

/// What the harness knows the data to be, per workload.
pub enum Checker {
    /// Read-only sysbench: every row still holds what it was loaded with.
    Point,
    /// Rows a committed transaction changed, `id → (k, c)`; every other row
    /// holds what it was loaded with.
    ReadWrite(HashMap<i64, (i64, String)>),
    Analytics(std::sync::Arc<AnalyticsOracle>),
}

impl Checker {
    fn shadow_row(shadow: &HashMap<i64, (i64, String)>, id: i64) -> (i64, String) {
        shadow
            .get(&id)
            .cloned()
            .unwrap_or_else(|| (gen::initial_k(id), gen::initial_c(id)))
    }

    /// Check a successfully executed op's results; for a read-write
    /// transaction also apply its writes to the shadow table.
    pub fn check(&mut self, op: &Op, results: &[ExecuteResult]) -> bool {
        match (self, &op.detail) {
            (Checker::Point, Detail::Point { id }) => {
                single_str(&results[0]).is_some_and(|c| gen::is_initial_c(*id, c))
            }
            (Checker::ReadWrite(shadow), Detail::ReadWrite(t)) => {
                let ok = check_read_write(shadow, t, results);
                apply_read_write(shadow, t);
                ok
            }
            (Checker::Analytics(oracle), Detail::Analytics(c)) => {
                check_analytics(oracle, *c, results)
            }
            _ => unreachable!("checker and op belong to different workloads"),
        }
    }

    /// Record that `op` committed without its results having been seen (the
    /// storage-floor replay bypasses the door).
    pub fn committed(&mut self, op: &Op) {
        if let (Checker::ReadWrite(shadow), Detail::ReadWrite(t)) = (self, &op.detail) {
            apply_read_write(shadow, t);
        }
    }

    /// After a read-write round: compare the whole table to the shadow.
    /// Returns the number of rows that differ (0 for the other workloads).
    pub fn check_table(&self, conn: &mut Connection) -> u64 {
        let Checker::ReadWrite(shadow) = self else {
            return 0;
        };
        let rs = match conn.query("SELECT id, k, c FROM sbtest ORDER BY id", &[]) {
            Ok(rs) => rs,
            Err(e) => {
                eprintln!("table check failed to run: {e}");
                return gen::SBTEST_ROWS as u64;
            }
        };
        let mut wrong = (rs.rows.len() as i64 - gen::SBTEST_ROWS).unsigned_abs();
        for (id, row) in (0..gen::SBTEST_ROWS).zip(&rs.rows) {
            let (k, c) = Self::shadow_row(shadow, id);
            if !row_eq(row, &[Value::Int(id), Value::Int(k), Value::Str(c)]) {
                wrong += 1;
            }
        }
        wrong
    }
}

fn check_read_write(
    shadow: &HashMap<i64, (i64, String)>,
    t: &RwTxn,
    results: &[ExecuteResult],
) -> bool {
    // results: BEGIN, 10 point selects, 4 ranges, 4 writes, COMMIT.
    let points_ok = t.points.iter().zip(&results[1..]).all(|(id, r)| {
        single_str(r).is_some_and(|got| match shadow.get(id) {
            Some((_, c)) => got == c,
            None => gen::is_initial_c(*id, got),
        })
    });
    let range_rows = |i: usize| -> Vec<(i64, String)> {
        (t.ranges[i]..t.ranges[i] + gen::RANGE_SPAN)
            .map(|id| Checker::shadow_row(shadow, id))
            .collect()
    };
    let first = 1 + t.points.len();
    let cs = |i: usize, sort: bool, dedup: bool| -> Vec<Vec<Value>> {
        let mut c: Vec<String> = range_rows(i).into_iter().map(|(_, c)| c).collect();
        if sort {
            c.sort();
        }
        if dedup {
            c.dedup();
        }
        c.into_iter().map(|c| vec![Value::Str(c)]).collect()
    };
    let sum: i64 = range_rows(1).iter().map(|(k, _)| k).sum();
    points_ok
        && rows_eq_unordered(rows_of(&results[first]), &cs(0, false, false))
        && rows_eq(rows_of(&results[first + 1]), &[vec![Value::Int(sum)]])
        && rows_eq(rows_of(&results[first + 2]), &cs(2, true, false))
        && rows_eq(rows_of(&results[first + 3]), &cs(3, true, true))
        && results[first + 4..first + 8]
            .iter()
            .all(|r| r.affected() == 1)
}

fn apply_read_write(shadow: &mut HashMap<i64, (i64, String)>, t: &RwTxn) {
    let mut row = Checker::shadow_row(shadow, t.index_id);
    row.0 += 1;
    shadow.insert(t.index_id, row);
    let mut row = Checker::shadow_row(shadow, t.nonindex_id);
    row.1.clone_from(&t.nonindex_c);
    shadow.insert(t.nonindex_id, row);
    shadow.insert(t.reinsert_id, (t.reinsert_k, t.reinsert_c.clone()));
}

fn check_analytics(oracle: &AnalyticsOracle, c: AnalyticsCycle, results: &[ExecuteResult]) -> bool {
    rows_eq(rows_of(&results[0]), &oracle.group_by.rows)
        && rows_eq(
            rows_of(&results[1]),
            &oracle.multi_agg[c.agg_choice as usize].rows,
        )
        && rows_eq(
            rows_of(&results[2]),
            &oracle.top_n[c.top_choice as usize].rows,
        )
        && rows_eq_unordered(
            rows_of(&results[3]),
            &oracle.filter_scan[c.user_choice as usize].rows,
        )
}

/// A client connected through the workload's door, ready to run ops.
pub enum Client {
    Jdbc(Box<Connection>),
    Proxy(ProxyClient),
}

impl Door for Client {
    fn exec(&mut self, sql: &str, params: &[Value]) -> Result<ExecuteResult, String> {
        match self {
            Client::Jdbc(c) => c.exec(sql, params),
            Client::Proxy(c) => c.exec(sql, params),
        }
    }
}

impl Client {
    pub fn connect(workload: Workload, deployment: &Deployment) -> Client {
        let mut client = match &deployment.proxy {
            Some(proxy) if workload.through_proxy() => {
                Client::Proxy(ProxyClient::connect(proxy.addr()).expect("connect to proxy"))
            }
            _ => Client::Jdbc(Box::new(deployment.connection())),
        };
        for sql in workload.session_setup() {
            client.exec(sql, &[]).expect("session setup");
        }
        client
    }
}
