//! Expression evaluation with SQL three-valued logic.

use crate::error::{Result, StorageError};
use shard_sql::ast::{BinaryOp, ColumnRef, Expr, FunctionCall, UnaryOp};
use shard_sql::{format_expr, Dialect, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Column bindings for one (possibly joined) row shape: per table, the
/// qualifier (alias or table name) and the table's column-name list. The list
/// is the one its [`TableSchema`](crate::schema::TableSchema) built, shared,
/// so opening a statement copies no name.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    tables: Vec<ScopeTable>,
}

#[derive(Debug, Clone)]
struct ScopeTable {
    qualifier: Option<String>,
    names: Arc<[String]>,
    /// Positions in `names` of the columns a row carries, in row order;
    /// `None` when it carries all of them.
    picked: Option<Vec<usize>>,
}

impl ScopeTable {
    fn width(&self) -> usize {
        self.picked.as_ref().map_or(self.names.len(), Vec::len)
    }

    /// The name bound at row slot `k` of this table.
    fn name(&self, k: usize) -> &str {
        &self.names[self.picked.as_ref().map_or(k, |p| p[k])]
    }
}

impl Scope {
    pub fn new() -> Self {
        Scope::default()
    }

    pub fn from_table(qualifier: &str, names: &Arc<[String]>) -> Self {
        let mut s = Scope::new();
        s.add_table(qualifier, names);
        s
    }

    /// Bind the columns at `picked` (positions in `names`) only, in that
    /// order: the batch leaf's rows carry just what the statement references.
    pub fn from_picked(qualifier: &str, names: &Arc<[String]>, picked: &[usize]) -> Self {
        let mut s = Scope::new();
        s.push(Some(qualifier), names, Some(picked.to_vec()));
        s
    }

    pub fn add_table(&mut self, qualifier: &str, names: &Arc<[String]>) {
        self.push(Some(qualifier), names, None);
    }

    /// Bind plain output columns (result-set shapes, e.g. HAVING over a
    /// projected group row).
    pub fn from_columns(columns: &[String]) -> Self {
        let mut s = Scope::new();
        s.push(None, &columns.into(), None);
        s
    }

    fn push(&mut self, qualifier: Option<&str>, names: &Arc<[String]>, picked: Option<Vec<usize>>) {
        self.tables.push(ScopeTable {
            qualifier: qualifier.map(str::to_string),
            names: Arc::clone(names),
            picked,
        });
    }

    pub fn len(&self) -> usize {
        self.tables.iter().map(ScopeTable::width).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve a column reference to its row position. Unqualified names must
    /// be unambiguous.
    pub fn resolve(&self, col: &ColumnRef) -> Result<usize> {
        let mut found = None;
        let mut base = 0;
        for table in &self.tables {
            // A qualified reference looks in the table it names only.
            let in_reach = match (&col.table, &table.qualifier) {
                (None, _) => true,
                (Some(want), Some(q)) => q.eq_ignore_ascii_case(want),
                (Some(_), None) => false,
            };
            let width = table.width();
            if !in_reach {
                base += width;
                continue;
            }
            for k in 0..width {
                if !table.name(k).eq_ignore_ascii_case(&col.column) {
                    continue;
                }
                if col.table.is_some() {
                    return Ok(base + k);
                }
                if found.is_some() {
                    return Err(StorageError::Execution(format!(
                        "ambiguous column '{}'",
                        col.column
                    )));
                }
                found = Some(base + k);
            }
            base += width;
        }
        found.ok_or_else(|| StorageError::ColumnNotFound(col.to_string()))
    }

    /// The qualifier+name pair at a slot (projection naming).
    pub fn binding(&self, i: usize) -> (Option<&str>, &str) {
        let mut k = i;
        for table in &self.tables {
            if k < table.width() {
                return (table.qualifier.as_deref(), table.name(k));
            }
            k -= table.width();
        }
        panic!("slot {i} of a {}-column scope", self.len())
    }
}

/// Evaluation context: the current row, bound parameters, and (for HAVING)
/// pre-computed aggregate values keyed by their rendered call text.
pub struct EvalContext<'a> {
    pub scope: &'a Scope,
    pub row: &'a [Value],
    pub params: &'a [Value],
    pub aggregates: Option<&'a HashMap<String, Value>>,
}

impl<'a> EvalContext<'a> {
    pub fn new(scope: &'a Scope, row: &'a [Value], params: &'a [Value]) -> Self {
        EvalContext {
            scope,
            row,
            params,
            aggregates: None,
        }
    }
}

/// Evaluate an expression against a row.
pub fn eval(expr: &Expr, ctx: &EvalContext<'_>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(c) => {
            let idx = ctx.scope.resolve(c)?;
            Ok(ctx.row[idx].clone())
        }
        Expr::Param(i) => ctx
            .params
            .get(*i)
            .cloned()
            .ok_or(StorageError::MissingParameter(*i)),
        Expr::Nested(inner) => eval(inner, ctx),
        Expr::Unary { op, operand } => {
            let v = eval(operand, ctx)?;
            match op {
                UnaryOp::Not => Ok(match v {
                    Value::Null => Value::Null,
                    other => Value::Bool(!other.is_true()),
                }),
                UnaryOp::Minus => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    Value::Null => Ok(Value::Null),
                    other => Err(StorageError::Execution(format!("cannot negate {other}"))),
                },
                UnaryOp::Plus => Ok(v),
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, ctx),
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval(expr, ctx)?;
            let lo = eval(low, ctx)?;
            let hi = eval(high, ctx)?;
            let (Some(c1), Some(c2)) = (v.sql_cmp(&lo), v.sql_cmp(&hi)) else {
                return Ok(Value::Null);
            };
            let between = c1 != std::cmp::Ordering::Less && c2 != std::cmp::Ordering::Greater;
            Ok(Value::Bool(between != *negated))
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, ctx)?;
                match v.sql_cmp(&iv) {
                    Some(std::cmp::Ordering::Equal) => return Ok(Value::Bool(!*negated)),
                    None => saw_null = true,
                    _ => {}
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval(expr, ctx)?;
            let p = eval(pattern, ctx)?;
            match (&v, &p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                _ => {
                    let text = v.to_string();
                    let pat = p.to_string();
                    Ok(Value::Bool(like_match(&text, &pat) != *negated))
                }
            }
        }
        Expr::Function(call) => eval_function(call, ctx),
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            let base = operand.as_ref().map(|e| eval(e, ctx)).transpose()?;
            for (cond, result) in branches {
                let hit = match &base {
                    Some(b) => {
                        let c = eval(cond, ctx)?;
                        b.sql_cmp(&c) == Some(std::cmp::Ordering::Equal)
                    }
                    None => eval(cond, ctx)?.is_true(),
                };
                if hit {
                    return eval(result, ctx);
                }
            }
            match else_result {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Evaluate a WHERE/HAVING predicate: NULL counts as false.
pub fn eval_predicate(expr: &Expr, ctx: &EvalContext<'_>) -> Result<bool> {
    Ok(eval(expr, ctx)?.is_true())
}

fn eval_binary(left: &Expr, op: BinaryOp, right: &Expr, ctx: &EvalContext<'_>) -> Result<Value> {
    // AND/OR get short-circuit + 3VL treatment.
    match op {
        BinaryOp::And => {
            let l = eval(left, ctx)?;
            if !l.is_null() && !l.is_true() {
                return Ok(Value::Bool(false));
            }
            let r = eval(right, ctx)?;
            if !r.is_null() && !r.is_true() {
                return Ok(Value::Bool(false));
            }
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            return Ok(Value::Bool(true));
        }
        BinaryOp::Or => {
            let l = eval(left, ctx)?;
            if l.is_true() {
                return Ok(Value::Bool(true));
            }
            let r = eval(right, ctx)?;
            if r.is_true() {
                return Ok(Value::Bool(true));
            }
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            return Ok(Value::Bool(false));
        }
        _ => {}
    }

    let l = eval(left, ctx)?;
    let r = eval(right, ctx)?;
    if op.is_comparison() {
        let Some(ord) = l.sql_cmp(&r) else {
            return Ok(Value::Null);
        };
        use std::cmp::Ordering::*;
        let b = match op {
            BinaryOp::Eq => ord == Equal,
            BinaryOp::NotEq => ord != Equal,
            BinaryOp::Lt => ord == Less,
            BinaryOp::LtEq => ord != Greater,
            BinaryOp::Gt => ord == Greater,
            BinaryOp::GtEq => ord != Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinaryOp::Concat => Ok(Value::Str(format!("{l}{r}"))),
        BinaryOp::Plus
        | BinaryOp::Minus
        | BinaryOp::Multiply
        | BinaryOp::Divide
        | BinaryOp::Modulo => arithmetic(&l, op, &r),
        _ => unreachable!("comparison handled above"),
    }
}

fn arithmetic(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    // Integer arithmetic stays integral except division-by-zero → NULL
    // (MySQL semantics) and true division of non-multiples.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinaryOp::Plus => Value::Int(a.wrapping_add(*b)),
            BinaryOp::Minus => Value::Int(a.wrapping_sub(*b)),
            BinaryOp::Multiply => Value::Int(a.wrapping_mul(*b)),
            BinaryOp::Divide => {
                if *b == 0 {
                    Value::Null
                } else if a % b == 0 {
                    Value::Int(a / b)
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            BinaryOp::Modulo => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.rem_euclid(*b))
                }
            }
            _ => unreachable!(),
        });
    }
    let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
        return Err(StorageError::Execution(format!(
            "cannot apply arithmetic to {l} and {r}"
        )));
    };
    Ok(match op {
        BinaryOp::Plus => Value::Float(a + b),
        BinaryOp::Minus => Value::Float(a - b),
        BinaryOp::Multiply => Value::Float(a * b),
        BinaryOp::Divide => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        BinaryOp::Modulo => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a % b)
            }
        }
        _ => unreachable!(),
    })
}

fn eval_function(call: &FunctionCall, ctx: &EvalContext<'_>) -> Result<Value> {
    if call.is_aggregate() {
        // Aggregates are computed by the executor; HAVING/projection over
        // grouped rows looks them up by rendered call text.
        if let Some(aggs) = ctx.aggregates {
            let key = format_expr(&Expr::Function(call.clone()), Dialect::Standard);
            return aggs
                .get(&key)
                .cloned()
                .ok_or_else(|| StorageError::Execution(format!("aggregate '{key}' not computed")));
        }
        return Err(StorageError::Execution(format!(
            "aggregate {} outside grouped context",
            call.name
        )));
    }
    let args: Vec<Value> = call
        .args
        .iter()
        .map(|a| eval(a, ctx))
        .collect::<Result<_>>()?;
    let arg = |i: usize| -> Result<&Value> {
        args.get(i)
            .ok_or_else(|| StorageError::Execution(format!("{} missing argument {i}", call.name)))
    };
    match call.name.as_str() {
        "ABS" => match arg(0)? {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            Value::Null => Ok(Value::Null),
            other => Err(StorageError::Execution(format!("ABS of {other}"))),
        },
        "UPPER" | "UCASE" => Ok(match arg(0)? {
            Value::Null => Value::Null,
            v => Value::Str(v.to_string().to_uppercase()),
        }),
        "LOWER" | "LCASE" => Ok(match arg(0)? {
            Value::Null => Value::Null,
            v => Value::Str(v.to_string().to_lowercase()),
        }),
        "LENGTH" | "CHAR_LENGTH" => Ok(match arg(0)? {
            Value::Null => Value::Null,
            v => Value::Int(v.to_string().chars().count() as i64),
        }),
        "COALESCE" => {
            for v in &args {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        "MOD" => arithmetic(arg(0)?, BinaryOp::Modulo, arg(1)?),
        "ROUND" => {
            let places = args.get(1).and_then(|v| v.as_int()).unwrap_or(0);
            match arg(0)? {
                Value::Null => Ok(Value::Null),
                v => {
                    let f = v.as_float().ok_or_else(|| {
                        StorageError::Execution(format!("ROUND of non-numeric {v}"))
                    })?;
                    let mul = 10f64.powi(places as i32);
                    let rounded = (f * mul).round() / mul;
                    if places <= 0 {
                        Ok(Value::Int(rounded as i64))
                    } else {
                        Ok(Value::Float(rounded))
                    }
                }
            }
        }
        "SUBSTR" | "SUBSTRING" => {
            let s = match arg(0)? {
                Value::Null => return Ok(Value::Null),
                v => v.to_string(),
            };
            // SQL is 1-based.
            let start = arg(1)?.as_int().unwrap_or(1).max(1) as usize - 1;
            let len = args
                .get(2)
                .and_then(|v| v.as_int())
                .map(|l| l.max(0) as usize);
            let chars: Vec<char> = s.chars().collect();
            let end = match len {
                Some(l) => (start + l).min(chars.len()),
                None => chars.len(),
            };
            if start >= chars.len() {
                return Ok(Value::Str(String::new()));
            }
            Ok(Value::Str(chars[start..end].iter().collect()))
        }
        "CONCAT" => {
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            Ok(Value::Str(args.iter().map(|v| v.to_string()).collect()))
        }
        other => Err(StorageError::Execution(format!(
            "unsupported function '{other}'"
        ))),
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (single char).
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=t.len()).any(|skip| rec(&t[skip..], rest))
            }
            Some('_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(c) => t.first() == Some(c) && rec(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_sql::parser::parse_statement;
    use shard_sql::Statement;

    fn expr_of(sql: &str) -> Expr {
        match parse_statement(&format!("SELECT * FROM t WHERE {sql}")).unwrap() {
            Statement::Select(s) => s.where_clause.unwrap(),
            _ => unreachable!(),
        }
    }

    fn eval_with(sql: &str, cols: &[&str], row: &[Value]) -> Value {
        let scope = Scope::from_table("t", &cols.iter().map(|c| c.to_string()).collect());
        let ctx = EvalContext::new(&scope, row, &[]);
        eval(&expr_of(sql), &ctx).unwrap()
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            eval_with("a > 5", &["a"], &[Value::Int(7)]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("a = 'x'", &["a"], &[Value::Str("x".into())]),
            Value::Bool(true)
        );
        assert_eq!(eval_with("a > 5", &["a"], &[Value::Null]), Value::Null);
    }

    #[test]
    fn three_valued_and_or() {
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL
        assert_eq!(
            eval_with("a > 1 AND 1 = 2", &["a"], &[Value::Null]),
            Value::Bool(false)
        );
        assert_eq!(
            eval_with("a > 1 OR 1 = 1", &["a"], &[Value::Null]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("a > 1 AND 1 = 1", &["a"], &[Value::Null]),
            Value::Null
        );
    }

    #[test]
    fn arithmetic_semantics() {
        assert_eq!(
            eval_with("a + 2 = 5", &["a"], &[Value::Int(3)]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("7 / 2 = 3.5", &["a"], &[Value::Null]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("6 / 2 = 3", &["a"], &[Value::Null]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("1 / 0 IS NULL", &["a"], &[Value::Null]),
            Value::Bool(true)
        );
        // rem_euclid: negative dividend stays non-negative, matching our
        // sharding algorithms.
        assert_eq!(
            eval_with("-7 % 3 = 2", &["a"], &[Value::Null]),
            Value::Bool(true)
        );
    }

    #[test]
    fn between_in_like() {
        assert_eq!(
            eval_with("a BETWEEN 2 AND 4", &["a"], &[Value::Int(3)]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("a NOT IN (1, 2)", &["a"], &[Value::Int(3)]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("a LIKE 'ab%'", &["a"], &[Value::Str("abcd".into())]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("a LIKE 'a_c'", &["a"], &[Value::Str("abc".into())]),
            Value::Bool(true)
        );
    }

    #[test]
    fn in_list_with_null_is_unknown_when_absent() {
        assert_eq!(
            eval_with("a IN (1, NULL)", &["a"], &[Value::Int(5)]),
            Value::Null
        );
        assert_eq!(
            eval_with("a IN (5, NULL)", &["a"], &[Value::Int(5)]),
            Value::Bool(true)
        );
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(
            eval_with("UPPER(a) = 'HI'", &["a"], &[Value::Str("hi".into())]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("LENGTH(a) = 2", &["a"], &[Value::Str("hi".into())]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("COALESCE(a, 9) = 9", &["a"], &[Value::Null]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with(
                "SUBSTR(a, 2, 2) = 'bc'",
                &["a"],
                &[Value::Str("abcd".into())]
            ),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("ABS(a) = 4", &["a"], &[Value::Int(-4)]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("MOD(a, 3) = 1", &["a"], &[Value::Int(7)]),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("ROUND(a) = 3", &["a"], &[Value::Float(2.6)]),
            Value::Bool(true)
        );
    }

    #[test]
    fn case_expression_forms() {
        assert_eq!(
            eval_with(
                "CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END = 'pos'",
                &["a"],
                &[Value::Int(3)]
            ),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with(
                "CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END = 'two'",
                &["a"],
                &[Value::Int(2)]
            ),
            Value::Bool(true)
        );
    }

    #[test]
    fn ambiguous_column_rejected() {
        let mut scope = Scope::new();
        scope.add_table("a", &["x".to_string()].into());
        scope.add_table("b", &["x".to_string()].into());
        let ctx = EvalContext::new(&scope, &[Value::Int(1), Value::Int(2)], &[]);
        assert!(eval(&Expr::col("x"), &ctx).is_err());
        assert_eq!(eval(&Expr::qcol("b", "x"), &ctx).unwrap(), Value::Int(2));
    }

    #[test]
    fn params_resolve() {
        let scope = Scope::from_table("t", &["a".to_string()].into());
        let ctx = EvalContext::new(&scope, &[Value::Int(10)], &[Value::Int(10)]);
        assert_eq!(eval(&expr_of("a = ?"), &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn missing_param_errors() {
        let scope = Scope::from_table("t", &["a".to_string()].into());
        let ctx = EvalContext::new(&scope, &[Value::Int(10)], &[]);
        assert!(matches!(
            eval(&expr_of("a = ?"), &ctx),
            Err(StorageError::MissingParameter(0))
        ));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%o"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "___"));
        assert!(!like_match("ab", "___"));
        assert!(like_match("a%b", "a%b"));
    }
}
