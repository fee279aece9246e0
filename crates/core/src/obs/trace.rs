//! Per-statement stage tracing.
//!
//! A [`TraceContext`] rides on the session while one statement runs through
//! the kernel pipeline; each stage boundary calls [`TraceContext::lap`] and
//! the executor attaches one [`UnitSpan`] per execution unit. The finished
//! [`StatementTrace`] backs `EXPLAIN ANALYZE` (rendered as a tree) and the
//! slow-query log. Tracing cost when disabled is a single branch — the
//! context is simply `None` on the session.

use std::time::Instant;

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

    /// Stable index into per-stage instrument arrays.
    pub fn index(&self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Route => 1,
            Stage::Rewrite => 2,
            Stage::Execute => 3,
            Stage::Merge => 4,
        }
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
    pub fn stage_us(&self, stage: Stage) -> Option<u64> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, us)| *us)
    }

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

/// Live stage timer for the statement currently executing on a session.
pub struct TraceContext {
    start: Instant,
    mark: Instant,
    stages: Vec<(Stage, u64)>,
    units: Vec<UnitSpan>,
    merger: Option<String>,
    route_strategy: Option<String>,
    scan_mode: Option<String>,
    reshard_state: Option<String>,
    rows: u64,
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::new()
    }
}

impl TraceContext {
    pub fn new() -> Self {
        let now = Instant::now();
        TraceContext {
            start: now,
            mark: now,
            stages: Vec::with_capacity(Stage::ALL.len()),
            units: Vec::new(),
            merger: None,
            route_strategy: None,
            scan_mode: None,
            reshard_state: None,
            rows: 0,
        }
    }

    /// Close the current span as `stage` and start timing the next one.
    /// Returns the span's duration. Durations are clamped to ≥ 1µs so a
    /// stage that ran is always distinguishable from one that did not.
    pub fn lap(&mut self, stage: Stage) -> u64 {
        let now = Instant::now();
        let us = (now.duration_since(self.mark).as_micros() as u64).max(1);
        self.mark = now;
        self.add_span(stage, us);
        us
    }

    /// Record a span measured externally (e.g. parse time captured before
    /// the context existed). Revisited stages accumulate.
    pub fn add_span(&mut self, stage: Stage, us: u64) {
        if let Some((_, acc)) = self.stages.iter_mut().find(|(s, _)| *s == stage) {
            *acc += us;
        } else {
            self.stages.push((stage, us));
        }
    }

    /// Spans recorded so far, in pipeline order.
    pub fn stages(&self) -> &[(Stage, u64)] {
        &self.stages
    }

    /// Wall time since the context was created (≥ 1µs).
    pub fn total_us(&self) -> u64 {
        (self.start.elapsed().as_micros() as u64).max(1)
    }

    /// Reset the span clock without recording (skip setup work between
    /// stages that should not be attributed to either).
    pub fn remark(&mut self) {
        self.mark = Instant::now();
    }

    pub fn set_units(&mut self, units: Vec<UnitSpan>) {
        self.units = units;
    }

    pub fn set_merger(&mut self, merger: Option<String>) {
        self.merger = merger;
    }

    pub fn set_route_strategy(&mut self, strategy: Option<String>) {
        self.route_strategy = strategy;
    }

    pub fn set_scan_mode(&mut self, mode: Option<String>) {
        self.scan_mode = mode;
    }

    pub fn set_reshard_state(&mut self, state: Option<String>) {
        self.reshard_state = state;
    }

    pub fn set_rows(&mut self, rows: u64) {
        self.rows = rows;
    }

    pub fn finish(self, sql: String) -> StatementTrace {
        let total_us = (self.start.elapsed().as_micros() as u64).max(1);
        StatementTrace {
            sql,
            total_us,
            stages: self.stages,
            units: self.units,
            merger: self.merger,
            route_strategy: self.route_strategy,
            scan_mode: self.scan_mode,
            reshard_state: self.reshard_state,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_accumulate_and_stay_nonzero() {
        let mut ctx = TraceContext::new();
        assert!(ctx.lap(Stage::Parse) >= 1);
        assert!(ctx.lap(Stage::Route) >= 1);
        ctx.lap(Stage::Route); // retry revisits the stage
        let trace = ctx.finish("SELECT 1".into());
        assert_eq!(trace.stages.len(), 2);
        assert!(trace.stage_us(Stage::Parse).unwrap() >= 1);
        assert!(trace.stage_us(Stage::Route).unwrap() >= 2);
        assert!(trace.total_us >= 1);
    }

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
