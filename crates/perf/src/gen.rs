//! Seeded input generation. The program under test sees only the generated
//! statements; the harness keeps what it needs to check their results.

use shard_sql::Value;

/// xorshift64*, seeded through splitmix64 so seeds 0, 1, 2 … give unrelated
/// streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (the modulo bias at n ≤ 10⁵ is below 10⁻¹⁴).
    pub fn below(&mut self, n: u64) -> i64 {
        (self.next_u64() % n) as i64
    }
}

/// Statement classes: where inside a multi-statement op the time goes
/// (`jdbc.stmt.<class>_us`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Begin,
    PointSelect,
    Range,
    RangeSum,
    RangeOrder,
    RangeDistinct,
    UpdateIndex,
    UpdateNonindex,
    Delete,
    Insert,
    Commit,
    GroupBy,
    MultiAgg,
    TopN,
    FilterScan,
}

impl Class {
    pub const ALL: [Class; 15] = [
        Class::Begin,
        Class::PointSelect,
        Class::Range,
        Class::RangeSum,
        Class::RangeOrder,
        Class::RangeDistinct,
        Class::UpdateIndex,
        Class::UpdateNonindex,
        Class::Delete,
        Class::Insert,
        Class::Commit,
        Class::GroupBy,
        Class::MultiAgg,
        Class::TopN,
        Class::FilterScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Begin => "begin",
            Class::PointSelect => "point_select",
            Class::Range => "range",
            Class::RangeSum => "range_sum",
            Class::RangeOrder => "range_order",
            Class::RangeDistinct => "range_distinct",
            Class::UpdateIndex => "update_index",
            Class::UpdateNonindex => "update_nonindex",
            Class::Delete => "delete",
            Class::Insert => "insert",
            Class::Commit => "commit",
            Class::GroupBy => "group_by",
            Class::MultiAgg => "multi_agg",
            Class::TopN => "top_n",
            Class::FilterScan => "filter_scan",
        }
    }

    /// Reads can be replayed any number of times at any depth without
    /// changing what later statements see; the onion replay takes only these.
    pub fn is_read(self) -> bool {
        !matches!(
            self,
            Class::Begin
                | Class::Commit
                | Class::UpdateIndex
                | Class::UpdateNonindex
                | Class::Delete
                | Class::Insert
        )
    }
}

/// One statement as the program receives it.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub class: Class,
    pub sql: &'static str,
    pub params: Vec<Value>,
}

impl Stmt {
    fn new(class: Class, sql: &'static str, params: Vec<Value>) -> Self {
        Stmt { class, sql, params }
    }
}

// -- sysbench ----------------------------------------------------------------

pub const SBTEST_ROWS: i64 = 100_000;
pub const RANGE_SPAN: i64 = 20;
pub const POINT_SELECTS_PER_TXN: usize = 10;

pub const SBTEST_DDL: &str = "CREATE TABLE sbtest (id BIGINT NOT NULL, k INT NOT NULL DEFAULT 0, \
     c VARCHAR(120) NOT NULL DEFAULT '', pad VARCHAR(60) NOT NULL DEFAULT '', PRIMARY KEY (id))";
pub const POINT_SELECT: &str = "SELECT c FROM sbtest WHERE id = ?";
const RANGE: &str = "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?";
const RANGE_SUM: &str = "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?";
const RANGE_ORDER: &str = "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c";
const RANGE_DISTINCT: &str = "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c";
const UPDATE_INDEX: &str = "UPDATE sbtest SET k = k + 1 WHERE id = ?";
const UPDATE_NONINDEX: &str = "UPDATE sbtest SET c = ? WHERE id = ?";
const DELETE: &str = "DELETE FROM sbtest WHERE id = ?";
const INSERT: &str = "INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)";

const GROUP_MOD: u64 = 100_000_000_000;

/// sysbench's `###########-###########-…` payload: `groups` groups of 11
/// digits, each a fixed mix of `x`.
fn digit_groups(x: u64, groups: u64) -> String {
    let mut s = String::with_capacity(groups as usize * 12);
    for j in 0..groups {
        if j > 0 {
            s.push('-');
        }
        let g = x
            .wrapping_add(j)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            % GROUP_MOD;
        s.push_str(&format!("{g:011}"));
    }
    s
}

pub fn initial_k(id: i64) -> i64 {
    id % 1000 + 1
}

/// The 119-character `c` a row is loaded with.
pub fn initial_c(id: i64) -> String {
    digit_groups(id as u64, 10)
}

pub fn pad(id: i64) -> String {
    digit_groups(id as u64 ^ 0x5555, 5)
}

/// Does `c` equal [`initial_c`]`(id)`? Compares group by group without
/// allocating, so the point-select rounds check every row they read.
pub fn is_initial_c(id: i64, c: &str) -> bool {
    let mut groups = 0u64;
    for (j, part) in c.split('-').enumerate() {
        let want = (id as u64)
            .wrapping_add(j as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            % GROUP_MOD;
        if part.len() != 11 || part.parse::<u64>() != Ok(want) {
            return false;
        }
        groups += 1;
    }
    groups == 10
}

/// What one `oltp_read_write` transaction touches; the shadow table is
/// updated from this when the transaction commits.
#[derive(Debug, Clone, Default)]
pub struct RwTxn {
    pub points: Vec<i64>,
    /// Low ends of the four range statements.
    pub ranges: [i64; 4],
    pub index_id: i64,
    pub nonindex_id: i64,
    pub nonindex_c: String,
    pub reinsert_id: i64,
    pub reinsert_k: i64,
    pub reinsert_c: String,
}

/// One op's workload-specific detail, kept for checking its results.
#[derive(Debug, Clone)]
pub enum Detail {
    Point { id: i64 },
    ReadWrite(RwTxn),
    Analytics(AnalyticsCycle),
}

/// One generated op: the statements the door receives, in order.
#[derive(Debug, Clone)]
pub struct Op {
    pub stmts: Vec<Stmt>,
    pub detail: Detail,
}

pub fn point_select_op(rng: &mut Rng, op: &mut Op) {
    let id = rng.below(SBTEST_ROWS as u64);
    op.detail = Detail::Point { id };
    // Reuse the one statement and its parameter slot: nothing is allocated
    // per op in the point-select rounds.
    match op.stmts.as_mut_slice() {
        [s] if s.class == Class::PointSelect => s.params[0] = Value::Int(id),
        _ => {
            op.stmts.clear();
            op.stmts.push(Stmt::new(
                Class::PointSelect,
                POINT_SELECT,
                vec![Value::Int(id)],
            ));
        }
    }
}

pub fn read_write_op(rng: &mut Rng, op: &mut Op) {
    let rows = SBTEST_ROWS as u64;
    let mut t = RwTxn::default();
    op.stmts.clear();
    op.stmts.push(Stmt::new(Class::Begin, "BEGIN", Vec::new()));
    for _ in 0..POINT_SELECTS_PER_TXN {
        let id = rng.below(rows);
        t.points.push(id);
        op.stmts.push(Stmt::new(
            Class::PointSelect,
            POINT_SELECT,
            vec![Value::Int(id)],
        ));
    }
    let range_stmts = [
        (Class::Range, RANGE),
        (Class::RangeSum, RANGE_SUM),
        (Class::RangeOrder, RANGE_ORDER),
        (Class::RangeDistinct, RANGE_DISTINCT),
    ];
    for (i, (class, sql)) in range_stmts.into_iter().enumerate() {
        let lo = rng.below(rows - RANGE_SPAN as u64 + 1);
        t.ranges[i] = lo;
        op.stmts.push(Stmt::new(
            class,
            sql,
            vec![Value::Int(lo), Value::Int(lo + RANGE_SPAN - 1)],
        ));
    }
    t.index_id = rng.below(rows);
    op.stmts.push(Stmt::new(
        Class::UpdateIndex,
        UPDATE_INDEX,
        vec![Value::Int(t.index_id)],
    ));
    t.nonindex_id = rng.below(rows);
    t.nonindex_c = digit_groups(rng.next_u64(), 10);
    op.stmts.push(Stmt::new(
        Class::UpdateNonindex,
        UPDATE_NONINDEX,
        vec![Value::Str(t.nonindex_c.clone()), Value::Int(t.nonindex_id)],
    ));
    t.reinsert_id = rng.below(rows);
    t.reinsert_k = rng.below(rows) + 1;
    t.reinsert_c = digit_groups(rng.next_u64(), 10);
    op.stmts.push(Stmt::new(
        Class::Delete,
        DELETE,
        vec![Value::Int(t.reinsert_id)],
    ));
    op.stmts.push(Stmt::new(
        Class::Insert,
        INSERT,
        vec![
            Value::Int(t.reinsert_id),
            Value::Int(t.reinsert_k),
            Value::Str(t.reinsert_c.clone()),
            Value::Str(pad(t.reinsert_id)),
        ],
    ));
    op.stmts
        .push(Stmt::new(Class::Commit, "COMMIT", Vec::new()));
    op.detail = Detail::ReadWrite(t);
}

// -- analytics ---------------------------------------------------------------

pub const HITS_ROWS: i64 = 20_000;
pub const HITS_REGIONS: i64 = 6;
/// `user_id = id % HITS_USERS`, so an equality filter returns
/// `HITS_ROWS / HITS_USERS` = 4 rows.
pub const HITS_USERS: i64 = 5_000;

pub const HITS_DDL: &str = "CREATE TABLE t_hits (event_id BIGINT PRIMARY KEY, user_id BIGINT, \
     region VARCHAR(16), referer VARCHAR(64), duration_ms INT, bytes_sent BIGINT, price DOUBLE)";

/// Row `id` of `t_hits`: NULL-bearing `referer` / `duration_ms`, and a
/// `bytes_sent` that is unique per row (211 is coprime to 10⁶), so the top-N
/// statement has one right answer.
pub fn hits_row(id: i64) -> [Value; 7] {
    [
        Value::Int(id),
        Value::Int(id % HITS_USERS),
        Value::Str(format!("r{}", id % HITS_REGIONS)),
        if id % 4 == 0 {
            Value::Null
        } else {
            Value::Str(format!("https://ref{}.example.com", id % 97))
        },
        if id % 5 == 0 {
            Value::Null
        } else {
            Value::Int((id * 37) % 30_000)
        },
        Value::Int((id * 211) % 1_000_000),
        Value::Float(((id * 31) % 10_000) as f64 / 100.0),
    ]
}

const GROUP_BY: &str = "SELECT region, COUNT(*), SUM(bytes_sent), AVG(duration_ms), MIN(price), \
     MAX(price) FROM t_hits GROUP BY region ORDER BY region";
const MULTI_AGG: &str = "SELECT COUNT(*), COUNT(referer), SUM(bytes_sent), MAX(price) FROM t_hits \
     WHERE duration_ms > ?";
const TOP_N: &str = "SELECT event_id, user_id, bytes_sent FROM t_hits WHERE duration_ms < ? \
     ORDER BY bytes_sent DESC LIMIT 20";
const FILTER_SCAN: &str = "SELECT event_id, region, bytes_sent FROM t_hits WHERE user_id = ?";

/// Distinct values each analytics parameter is drawn from. Few enough that
/// the oracle answers every combination once per invocation; close enough
/// together (thresholds 16 ms apart on a 30 s range) that selectivity, and
/// with it the cycle's cost, does not depend on the draw.
pub const ANALYTICS_CHOICES: i64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyticsCycle {
    pub agg_choice: i64,
    pub top_choice: i64,
    pub user_choice: i64,
}

pub fn analytics_stmt(class: Class, choice: i64) -> Stmt {
    match class {
        Class::GroupBy => Stmt::new(class, GROUP_BY, Vec::new()),
        Class::MultiAgg => Stmt::new(class, MULTI_AGG, vec![Value::Int(12_000 + 16 * choice)]),
        Class::TopN => Stmt::new(class, TOP_N, vec![Value::Int(18_000 + 16 * choice)]),
        Class::FilterScan => Stmt::new(class, FILTER_SCAN, vec![Value::Int(311 * choice + 7)]),
        other => unreachable!("{other:?} is not an analytics statement"),
    }
}

pub fn analytics_op(rng: &mut Rng, op: &mut Op) {
    let n = ANALYTICS_CHOICES as u64;
    let cycle = AnalyticsCycle {
        agg_choice: rng.below(n),
        top_choice: rng.below(n),
        user_choice: rng.below(n),
    };
    op.stmts.clear();
    op.stmts.push(analytics_stmt(Class::GroupBy, 0));
    op.stmts
        .push(analytics_stmt(Class::MultiAgg, cycle.agg_choice));
    op.stmts.push(analytics_stmt(Class::TopN, cycle.top_choice));
    op.stmts
        .push(analytics_stmt(Class::FilterScan, cycle.user_choice));
    op.detail = Detail::Analytics(cycle);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{DefaultHasher, Hash, Hasher};

    fn stream_hash(seed: u64, gen: fn(&mut Rng, &mut Op)) -> u64 {
        let mut rng = Rng::new(seed);
        let mut op = Op {
            stmts: Vec::new(),
            detail: Detail::Point { id: 0 },
        };
        let mut h = DefaultHasher::new();
        for _ in 0..200 {
            gen(&mut rng, &mut op);
            for s in &op.stmts {
                s.sql.hash(&mut h);
                format!("{:?}", s.params).hash(&mut h);
            }
        }
        h.finish()
    }

    #[test]
    fn equal_seeds_give_equal_streams_and_different_seeds_do_not() {
        for gen in [point_select_op, read_write_op, analytics_op] {
            assert_eq!(stream_hash(42, gen), stream_hash(42, gen));
            assert_ne!(stream_hash(42, gen), stream_hash(43, gen));
        }
    }

    #[test]
    fn initial_c_round_trips_and_rejects_other_rows() {
        let c = initial_c(31_337);
        assert_eq!(c.len(), 119);
        assert!(is_initial_c(31_337, &c));
        assert!(!is_initial_c(31_338, &c));
        assert!(!is_initial_c(31_337, &c[..107]));
        assert_eq!(pad(5).len(), 59);
    }

    #[test]
    fn read_write_txn_has_the_sysbench_shape() {
        let mut rng = Rng::new(1);
        let mut op = Op {
            stmts: Vec::new(),
            detail: Detail::Point { id: 0 },
        };
        read_write_op(&mut rng, &mut op);
        assert_eq!(op.stmts.len(), 20);
        assert_eq!(op.stmts.iter().filter(|s| s.class.is_read()).count(), 14);
        let Detail::ReadWrite(t) = &op.detail else {
            panic!("detail")
        };
        assert!(t.ranges.iter().all(|lo| lo + RANGE_SPAN <= SBTEST_ROWS));
    }
}
