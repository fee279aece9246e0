//! `SET [VARIABLE] name = value` / `SHOW VARIABLE name` (DistSQL RAL): one
//! declaration per variable in [`VARIABLES`] — its names, how a value is
//! parsed and applied, how it is shown, one doc line. [`set`], [`show`],
//! their error messages and the README's variable table all derive from
//! that table, so every settable name is showable and every shown value is
//! settable.

use crate::error::{KernelError, Result};
use crate::runtime::Session;
use crate::transaction::TransactionType;
use std::time::Duration;

/// How a variable's value is parsed, applied and shown.
enum Kind {
    /// Shown as `on` or `off`.
    OnOff {
        get: fn(&Session) -> bool,
        set: fn(&mut Session, bool),
    },
    Int {
        get: fn(&Session) -> u64,
        set: fn(&mut Session, u64),
    },
    /// A grammar of its own; `set` answers `Ok(false)` to a value outside
    /// `accepts`.
    Custom {
        accepts: &'static str,
        get: fn(&Session) -> String,
        set: fn(&mut Session, &str) -> Result<bool>,
    },
    /// Accepted with any value and ignored, so MySQL drivers that configure
    /// their connection can connect.
    Ignored,
}

impl Kind {
    /// The value forms `SET` accepts, for error messages and the docs.
    fn accepts(&self) -> &'static str {
        match self {
            Kind::OnOff { .. } => "on/off, 1/0 or true/false",
            Kind::Int { .. } => "a non-negative integer",
            Kind::Custom { accepts, .. } => accepts,
            Kind::Ignored => "anything",
        }
    }
}

struct Variable {
    /// Canonical name first, then aliases (for [`Kind::Ignored`], every name
    /// the declaration covers).
    names: &'static [&'static str],
    kind: Kind,
    /// One line for the README's variable table.
    doc: &'static str,
}

fn parse_on_off(value: &str) -> Option<bool> {
    match value.to_lowercase().as_str() {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "false" => Some(false),
        _ => None,
    }
}

static VARIABLES: &[Variable] = &[
    Variable {
        names: &["transaction_type"],
        kind: Kind::Custom {
            accepts: "LOCAL, XA or BASE",
            get: |s| s.transaction_type().to_string(),
            set: |s, v| match TransactionType::parse(v) {
                Some(t) => s.set_transaction_type(t).map(|()| true),
                None => Ok(false),
            },
        },
        doc: "Transaction type of this session's transactions (not changeable inside one)",
    },
    Variable {
        names: &["max_connections_per_query", "maxcon"],
        kind: Kind::Int {
            get: |s| s.runtime().max_connections_per_query(),
            set: |s, n| s.runtime().set_max_connections_per_query(n),
        },
        doc: "MaxCon: connections one statement may open per data source (at least 1)",
    },
    Variable {
        names: &["max_requests_per_second"],
        kind: Kind::Int {
            get: |s| s.runtime().throttle.read().as_ref().map_or(0, |t| t.rate()),
            set: |s, n| s.runtime().set_throttle(n),
        },
        doc: "Statements admitted per second, runtime-wide; 0 = unlimited",
    },
    Variable {
        names: &["sql_plan_cache_size"],
        kind: Kind::Int {
            get: |s| s.runtime().plan_cache().capacity() as u64,
            set: |s, n| s.runtime().plan_cache().set_capacity(n as usize),
        },
        doc: "Entries per level of the parse + route-plan cache; 0 disables it",
    },
    Variable {
        names: &["statement_timeout_ms", "statement_timeout"],
        kind: Kind::Int {
            get: |s| s.statement_timeout.map_or(0, |t| t.as_millis() as u64),
            set: |s, n| s.statement_timeout = (n > 0).then(|| Duration::from_millis(n)),
        },
        doc: "Per-statement deadline of this session in ms; 0 = none",
    },
    Variable {
        names: &["group_commit_window_us"],
        kind: Kind::Int {
            get: |s| s.runtime().group_commit_window_us(),
            set: |s, n| s.runtime().set_group_commit_window_us(n),
        },
        doc: "Window in which concurrent commits share one durability flush, in µs; 0 = flush per commit",
    },
    Variable {
        names: &["trace"],
        kind: Kind::OnOff {
            get: |s| s.trace_enabled(),
            set: |s, on| s.set_trace_enabled(on),
        },
        doc: "Record every statement of this session and keep the last one's stage view (`Session::last_trace`)",
    },
    Variable {
        names: &["metrics"],
        kind: Kind::OnOff {
            get: |s| s.runtime().metrics().on(),
            set: |s, on| s.runtime().metrics().set_enabled(on),
        },
        doc: "Record kernel counters and histograms (`SHOW METRICS`, `/metrics`)",
    },
    Variable {
        names: &["slow_query_threshold_ms"],
        kind: Kind::Int {
            get: |s| s.runtime().slow_query_log().threshold_us() / 1000,
            set: |s, n| {
                s.runtime()
                    .slow_query_log()
                    .set_threshold_us(n.saturating_mul(1000))
            },
        },
        doc: "Statements at least this slow enter `SHOW SLOW_QUERIES`; while armed, every statement records its kernel spans; 0 disarms the log",
    },
    Variable {
        names: &["slow_query_log_size"],
        kind: Kind::Int {
            get: |s| s.runtime().slow_query_log().capacity() as u64,
            set: |s, n| s.runtime().slow_query_log().set_capacity(n as usize),
        },
        doc: "Entries the slow-query ring keeps",
    },
    Variable {
        names: &["agg_pushdown"],
        kind: Kind::OnOff {
            get: |s| s.runtime().agg_pushdown(),
            set: |s, on| s.runtime().set_agg_pushdown(on),
        },
        doc: "Shards return partial aggregates; off ships raw rows to the merger (ablation)",
    },
    Variable {
        names: &["reshard_fence_timeout_ms"],
        kind: Kind::Int {
            get: |s| s.runtime().reshard_fence_timeout_ms(),
            set: |s, n| s.runtime().set_reshard_fence_timeout_ms(n),
        },
        doc: "Bound on an online reshard's write fence and snapshot barrier in ms (at least 1)",
    },
    Variable {
        names: &["trace_sample"],
        kind: Kind::Custom {
            accepts: "off, N or 1/N",
            get: |s| match s.runtime().trace_collector().sample_period() {
                0 => "off".into(),
                n => format!("1/{n}"),
            },
            set: |s, v| {
                let v = v.to_lowercase();
                let period = if v == "off" {
                    Some(0)
                } else {
                    v.strip_prefix("1/").unwrap_or(&v).parse().ok()
                };
                if let Some(p) = period {
                    s.runtime().trace_collector().set_sample_period(p);
                }
                Ok(period.is_some())
            },
        },
        doc: "Head-sample one statement in N: its cross-layer span tree enters `SHOW TRACE` and its stage times the `stage_*_us` histograms; off = none",
    },
    Variable {
        names: &["slo_read_p99_ms"],
        kind: Kind::Int {
            get: |s| s.runtime().slo_monitor().read_p99_ms(),
            set: |s, n| s.runtime().slo_monitor().set_read_p99_ms(n),
        },
        doc: "Read-latency objective of the SLO burn-rate monitor in ms; 0 unsets it",
    },
    Variable {
        names: &["slo_error_pct"],
        kind: Kind::Custom {
            accepts: "a percentage from 0 to 100",
            get: |s| (s.runtime().slo_monitor().error_pct_x100() as f64 / 100.0).to_string(),
            set: |s, v| {
                let pct = v.parse::<f64>().ok().filter(|p| (0.0..=100.0).contains(p));
                if let Some(pct) = pct {
                    let x100 = (pct * 100.0).round() as u64;
                    s.runtime().slo_monitor().set_error_pct_x100(x100);
                }
                Ok(pct.is_some())
            },
        },
        doc: "Error-rate objective of the SLO burn-rate monitor in percent; 0 unsets it",
    },
    Variable {
        names: &[
            "autocommit",
            "sql_mode",
            "time_zone",
            "character_set_results",
        ],
        kind: Kind::Ignored,
        doc: "Accepted and ignored, for MySQL driver compatibility; shown as `ignored`",
    },
];

fn lookup(name: &str) -> Result<&'static Variable> {
    let name = name.to_lowercase();
    VARIABLES
        .iter()
        .find(|v| v.names.contains(&name.as_str()))
        .ok_or_else(|| KernelError::Config(format!("unknown variable '{name}'")))
}

/// `SET [VARIABLE] name = value`.
pub(crate) fn set(session: &mut Session, name: &str, value: &str) -> Result<()> {
    let var = lookup(name)?;
    let accepted = match &var.kind {
        Kind::OnOff { set, .. } => parse_on_off(value).map(|on| set(session, on)).is_some(),
        Kind::Int { set, .. } => value.parse().map(|n| set(session, n)).is_ok(),
        Kind::Custom { set, .. } => set(session, value)?,
        Kind::Ignored => true,
    };
    if accepted {
        Ok(())
    } else {
        Err(KernelError::Config(format!(
            "{} must be {}, not '{value}'",
            var.names[0],
            var.kind.accepts()
        )))
    }
}

/// `SHOW VARIABLE name`.
pub(crate) fn show(session: &Session, name: &str) -> Result<String> {
    Ok(match &lookup(name)?.kind {
        Kind::OnOff { get, .. } => if get(session) { "on" } else { "off" }.to_string(),
        Kind::Int { get, .. } => get(session).to_string(),
        Kind::Custom { get, .. } => get(session),
        Kind::Ignored => "ignored".to_string(),
    })
}

/// The README's variable table (markdown), generated from the declarations;
/// a test holds README.md to it.
pub fn readme_table() -> String {
    let mut table = String::from("| Variable | Accepts | Meaning |\n|---|---|---|\n");
    for var in VARIABLES {
        let names: Vec<String> = var.names.iter().map(|n| format!("`{n}`")).collect();
        table.push_str(&format!(
            "| {} | {} | {} |\n",
            names.join(", "),
            var.kind.accepts(),
            var.doc
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardingRuntime;
    use shard_storage::StorageEngine;

    fn session() -> Session {
        ShardingRuntime::builder()
            .datasource("ds_0", StorageEngine::new("ds_0"))
            .build()
            .session()
    }

    /// Every name of every declaration, aliases included.
    fn all_names() -> impl Iterator<Item = &'static str> {
        VARIABLES.iter().flat_map(|v| v.names.iter().copied())
    }

    #[test]
    fn whatever_show_prints_set_accepts_and_keeps() {
        let mut s = session();
        // Move every variable off its default first, so "unchanged" is not
        // trivially the default.
        for (name, value) in [
            ("transaction_type", "XA"),
            ("maxcon", "3"),
            ("max_requests_per_second", "5000"),
            ("sql_plan_cache_size", "64"),
            ("statement_timeout", "250"),
            ("group_commit_window_us", "40"),
            ("trace", "true"),
            ("metrics", "0"),
            ("slow_query_threshold_ms", "7"),
            ("slow_query_log_size", "9"),
            ("agg_pushdown", "OFF"),
            ("reshard_fence_timeout_ms", "123"),
            ("trace_sample", "1/4"),
            ("slo_read_p99_ms", "20"),
            ("slo_error_pct", "2.5"),
        ] {
            set(&mut s, name, value).unwrap();
            assert_ne!(show(&s, name).unwrap(), show(&session(), name).unwrap());
        }
        for name in all_names() {
            let shown = show(&s, name).unwrap();
            set(&mut s, name, &shown).unwrap_or_else(|e| panic!("SET {name} = {shown}: {e}"));
            assert_eq!(show(&s, name).unwrap(), shown, "{name}");
            // Names are case-insensitive, and the defaults round-trip too.
            let mut fresh = session();
            let default = show(&fresh, &name.to_uppercase()).unwrap();
            set(&mut fresh, name, &default).unwrap();
            assert_eq!(show(&fresh, name).unwrap(), default, "{name}");
        }
    }

    #[test]
    fn aliases_are_the_same_variable() {
        let mut s = session();
        for var in VARIABLES
            .iter()
            .filter(|v| !matches!(v.kind, Kind::Ignored))
        {
            for alias in var.names {
                assert!(std::ptr::eq(lookup(alias).unwrap(), var));
            }
        }
        set(&mut s, "maxcon", "5").unwrap();
        assert_eq!(show(&s, "max_connections_per_query").unwrap(), "5");
        set(&mut s, "statement_timeout", "750").unwrap();
        assert_eq!(show(&s, "statement_timeout_ms").unwrap(), "750");
    }

    #[test]
    fn a_bad_value_names_the_variable_and_what_it_accepts() {
        let mut s = session();
        for var in VARIABLES
            .iter()
            .filter(|v| !matches!(v.kind, Kind::Ignored))
        {
            for name in var.names {
                let before = show(&s, name).unwrap();
                let err = set(&mut s, name, "sideways").unwrap_err().to_string();
                assert!(err.contains(var.names[0]), "{err}");
                assert!(err.contains(var.kind.accepts()), "{err}");
                assert!(err.contains("'sideways'"), "{err}");
                assert_eq!(show(&s, name).unwrap(), before);
            }
        }
        for (name, value) in [
            ("maxcon", "-1"),
            ("slo_error_pct", "101"),
            ("slo_error_pct", "-0.5"),
            ("trace_sample", "2/3"),
            ("max_requests_per_second", "unlimited"),
        ] {
            assert!(set(&mut s, name, value).is_err(), "SET {name} = {value}");
        }
    }

    #[test]
    fn slo_error_pct_rounds_instead_of_truncating() {
        let mut s = session();
        for pct in ["0.29", "0.57", "1.15"] {
            set(&mut s, "slo_error_pct", pct).unwrap();
            assert_eq!(show(&s, "slo_error_pct").unwrap(), pct);
        }
        assert_eq!(s.runtime().slo_monitor().error_pct_x100(), 115);
    }

    #[test]
    fn retired_and_unknown_names_are_unknown_variables() {
        let mut s = session();
        for name in [
            "mvcc",
            "batch_scan",
            "batch_writes",
            "xa_fanout",
            "gsi",
            "nope",
        ] {
            let expect = format!("unknown variable '{name}'");
            for sql in [
                format!("SET VARIABLE {name} = on"),
                format!("SET {name} = on"),
                format!("SHOW VARIABLE {name}"),
            ] {
                let err = s.execute_sql(&sql, &[]).unwrap_err().to_string();
                assert!(err.contains(&expect), "{sql}: {err}");
            }
        }
    }

    #[test]
    fn fifteen_variables_and_four_ignored_names() {
        let (ignored, real): (Vec<_>, Vec<_>) = VARIABLES
            .iter()
            .partition(|v| matches!(v.kind, Kind::Ignored));
        assert_eq!(real.len(), 15);
        assert_eq!(ignored.iter().map(|v| v.names.len()).sum::<usize>(), 4);
        let mut names: Vec<_> = all_names().collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all_names().count(), "a name is declared twice");
    }

    #[test]
    fn the_readme_table_is_this_table() {
        let readme = include_str!("../../../README.md");
        let table = readme_table();
        assert!(
            readme.contains(&table),
            "README.md's variable table differs from settings.rs; it should read:\n{table}"
        );
    }
}
