//! The stage view of a statement's record.
//!
//! A [`StatementTrace`] is what `EXPLAIN ANALYZE` renders and
//! `Session::last_trace()` returns: the five pipeline stages, the units and
//! the kernel's verdicts, read off a sealed
//! [`TraceRecord`](super::span::TraceRecord). It records nothing itself.

use super::span::TraceRecord;

/// The five kernel pipeline stages (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Parse,
    Route,
    Rewrite,
    Execute,
    Merge,
}

impl Stage {
    pub const ALL: [Stage; 5] = [
        Stage::Parse,
        Stage::Route,
        Stage::Rewrite,
        Stage::Execute,
        Stage::Merge,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Route => "route",
            Stage::Rewrite => "rewrite",
            Stage::Execute => "execute",
            Stage::Merge => "merge",
        }
    }

    /// Stable index into per-stage instrument arrays: the pipeline order.
    pub fn index(&self) -> usize {
        *self as usize
    }
}

/// Timing and row count for one per-shard execution unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSpan {
    /// Data source the unit ran on (after read-write splitting).
    pub datasource: String,
    /// Actual table(s) the rewritten SQL targeted, comma-joined.
    pub tables: String,
    pub elapsed_us: u64,
    pub rows: u64,
}

/// A finished per-statement trace.
#[derive(Debug, Clone)]
pub struct StatementTrace {
    pub sql: String,
    pub total_us: u64,
    /// Stage timings in pipeline order; a stage revisited by the read-retry
    /// loop accumulates into its existing entry.
    pub stages: Vec<(Stage, u64)>,
    pub units: Vec<UnitSpan>,
    /// Merge strategy that combined the shard results, when any.
    pub merger: Option<String>,
    /// Routing-intelligence verdict (index-route / aggregate-pushdown /
    /// colocated / scatter), when the statement was routed.
    pub route_strategy: Option<String>,
    /// Storage scan path the per-shard statements take (`batch` = vectorized
    /// columnar, `row` = row-at-a-time), when the statement scans.
    pub scan_mode: Option<String>,
    /// Online-resharding phase of a touched table (`backfill`, `catch_up`,
    /// …), when one of the statement's tables is mid-migration.
    pub reshard_state: Option<String>,
    /// Rows in the final (merged, decrypted) result.
    pub rows: u64,
}

impl StatementTrace {
    /// Render the trace as the `EXPLAIN ANALYZE` tree, one line per row.
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!(
            "statement: {} [total={}us rows={}]",
            self.sql, self.total_us, self.rows
        ));
        let n = self.stages.len();
        for (i, (stage, us)) in self.stages.iter().enumerate() {
            let last_stage = i + 1 == n;
            let elbow = if last_stage { "└─" } else { "├─" };
            let mut line = format!("{elbow} {:<8} {us}us", stage.as_str());
            match stage {
                Stage::Route
                    if !self.units.is_empty()
                        || self.route_strategy.is_some()
                        || self.scan_mode.is_some()
                        || self.reshard_state.is_some() =>
                {
                    line.push(' ');
                    line.push('[');
                    let mut first = true;
                    if !self.units.is_empty() {
                        line.push_str(&format!("units={}", self.units.len()));
                        first = false;
                    }
                    if let Some(s) = &self.route_strategy {
                        if !first {
                            line.push(' ');
                        }
                        line.push_str(&format!("route_strategy={s}"));
                        first = false;
                    }
                    if let Some(m) = &self.scan_mode {
                        if !first {
                            line.push(' ');
                        }
                        line.push_str(&format!("scan_mode={m}"));
                        first = false;
                    }
                    if let Some(r) = &self.reshard_state {
                        if !first {
                            line.push(' ');
                        }
                        line.push_str(&format!("reshard_state={r}"));
                    }
                    line.push(']');
                }
                Stage::Merge => {
                    line.push_str(&format!(" [rows={}", self.rows));
                    if let Some(m) = &self.merger {
                        line.push_str(&format!(" strategy={m}"));
                    }
                    line.push(']');
                }
                _ => {}
            }
            lines.push(line);
            if *stage == Stage::Execute {
                let cont = if last_stage { "   " } else { "│  " };
                let m = self.units.len();
                for (j, unit) in self.units.iter().enumerate() {
                    let unit_elbow = if j + 1 == m { "└─" } else { "├─" };
                    lines.push(format!(
                        "{cont} {unit_elbow} {}.{} {}us rows={}",
                        unit.datasource, unit.tables, unit.elapsed_us, unit.rows
                    ));
                }
            }
        }
        lines
    }
}

/// The view is read off the record: stage times are its stage spans (a
/// stage the read-retry loop revisited sums), units are its unit spans.
impl From<&TraceRecord> for StatementTrace {
    fn from(record: &TraceRecord) -> Self {
        let stage_us = record.stage_us();
        let v = &record.verdicts;
        StatementTrace {
            sql: record.sql.clone(),
            total_us: record.total_us,
            stages: Stage::ALL
                .into_iter()
                .filter(|s| stage_us[s.index()] > 0)
                .map(|s| (s, stage_us[s.index()]))
                .collect(),
            units: record
                .units()
                .map(|u| {
                    let (datasource, tables) = u.detail.split_once('.').unwrap_or((&u.detail, "-"));
                    UnitSpan {
                        datasource: datasource.to_string(),
                        tables: tables.to_string(),
                        elapsed_us: u.elapsed_us,
                        rows: u.rows.unwrap_or(0),
                    }
                })
                .collect(),
            merger: v.merger.map(|k| format!("{k:?}")),
            route_strategy: v.route_strategy.map(str::to_string),
            scan_mode: v.scan_mode.map(str::to_string),
            reshard_state: v.reshard_state.map(str::to_string),
            rows: v.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shapes_a_tree() {
        let trace = StatementTrace {
            sql: "SELECT * FROM t ORDER BY id LIMIT 3".into(),
            total_us: 120,
            stages: vec![
                (Stage::Parse, 10),
                (Stage::Route, 5),
                (Stage::Rewrite, 4),
                (Stage::Execute, 80),
                (Stage::Merge, 9),
            ],
            units: vec![
                UnitSpan {
                    datasource: "ds_0".into(),
                    tables: "t_0".into(),
                    elapsed_us: 40,
                    rows: 3,
                },
                UnitSpan {
                    datasource: "ds_1".into(),
                    tables: "t_1".into(),
                    elapsed_us: 38,
                    rows: 3,
                },
            ],
            merger: Some("OrderBy".into()),
            route_strategy: Some("scatter".into()),
            scan_mode: Some("row".into()),
            reshard_state: Some("backfill".into()),
            rows: 3,
        };
        let lines = trace.render();
        assert!(lines[0].starts_with("statement: SELECT"));
        assert!(lines[0].contains("total=120us"));
        assert!(lines.iter().any(|l| l.contains("route")
            && l.contains(
                "[units=2 route_strategy=scatter scan_mode=row reshard_state=backfill]"
            )));
        assert!(lines.iter().any(|l| l.contains("ds_0.t_0 40us rows=3")));
        assert!(lines.iter().any(|l| l.contains("ds_1.t_1 38us rows=3")));
        let merge_line = lines.last().unwrap();
        assert!(merge_line.starts_with("└─ merge"));
        assert!(merge_line.contains("strategy=OrderBy"));
    }
}
