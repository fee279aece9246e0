//! Table schema: column metadata, primary key, and value admission checks.

use crate::error::{Result, StorageError};
use shard_sql::ast::{ColumnDef, DataType};
use shard_sql::Value;
use std::sync::Arc;

/// Schema of one physical table. Immutable once built: DDL replaces the
/// table, never its schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    pub name: String,
    columns: Vec<ColumnDef>,
    /// Indices into `columns` forming the primary key (possibly composite).
    pub primary_key: Vec<usize>,
    /// `columns[i].name`, in order: the one copy every statement's
    /// [`Scope`](crate::eval::Scope) over this table shares.
    names: Arc<[String]>,
}

impl TableSchema {
    pub fn new(
        name: impl Into<String>,
        columns: Vec<ColumnDef>,
        primary_key: &[String],
    ) -> Result<Self> {
        let name = name.into();
        let mut pk = Vec::with_capacity(primary_key.len());
        for pk_col in primary_key {
            let idx = columns
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(pk_col))
                .ok_or_else(|| StorageError::ColumnNotFound(pk_col.clone()))?;
            pk.push(idx);
        }
        Ok(TableSchema {
            name,
            names: columns.iter().map(|c| c.name.clone()).collect(),
            columns,
            primary_key: pk,
        })
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn names(&self) -> &Arc<[String]> {
        &self.names
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Extract the primary-key values from a full row.
    pub fn pk_of(&self, row: &[Value]) -> Vec<Value> {
        self.primary_key.iter().map(|&i| row[i].clone()).collect()
    }

    /// Validate and coerce a full row before insertion: NOT NULL checks and
    /// numeric coercion (`Int` ↔ `Float` per the declared type). Strings are
    /// not silently truncated — VARCHAR lengths are advisory, as in our
    /// benchmark schemas.
    pub fn admit_row(&self, mut row: Vec<Value>) -> Result<Vec<Value>> {
        if row.len() != self.columns.len() {
            return Err(StorageError::Execution(format!(
                "table '{}' expects {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (i, col) in self.columns.iter().enumerate() {
            let v = &mut row[i];
            if v.is_null() {
                if let Some(default) = &col.default {
                    *v = default.clone();
                }
            }
            if v.is_null() {
                if col.not_null && !col.auto_increment {
                    return Err(StorageError::NotNullViolation {
                        table: self.name.clone(),
                        column: col.name.clone(),
                    });
                }
                continue;
            }
            *v = coerce(v.clone(), &col.data_type, &col.name)?;
        }
        Ok(row)
    }
}

/// Coerce a value to a column type, erroring on impossible conversions.
fn coerce(v: Value, dt: &DataType, column: &str) -> Result<Value> {
    let mismatch = |found: &Value| StorageError::TypeMismatch {
        column: column.to_string(),
        expected: format!("{dt:?}"),
        found: format!("{found:?}"),
    };
    Ok(match dt {
        DataType::Int | DataType::BigInt | DataType::Timestamp => match v {
            Value::Int(_) => v,
            Value::Float(f) if f.fract() == 0.0 => Value::Int(f as i64),
            Value::Bool(b) => Value::Int(b as i64),
            Value::Str(ref s) => match s.parse::<i64>() {
                Ok(i) => Value::Int(i),
                Err(_) => return Err(mismatch(&v)),
            },
            _ => return Err(mismatch(&v)),
        },
        DataType::Float | DataType::Double | DataType::Decimal => match v {
            Value::Float(_) => v,
            Value::Int(i) => Value::Float(i as f64),
            Value::Str(ref s) => match s.parse::<f64>() {
                Ok(f) => Value::Float(f),
                Err(_) => return Err(mismatch(&v)),
            },
            _ => return Err(mismatch(&v)),
        },
        DataType::Varchar(_) | DataType::Char(_) | DataType::Text => match v {
            Value::Str(_) => v,
            Value::Int(i) => Value::Str(i.to_string()),
            Value::Float(f) => Value::Str(f.to_string()),
            Value::Bool(b) => Value::Str(b.to_string()),
            _ => return Err(mismatch(&v)),
        },
        DataType::Bool => match v {
            Value::Bool(_) => v,
            Value::Int(i) => Value::Bool(i != 0),
            _ => return Err(mismatch(&v)),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_sql::ast::ColumnDef;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t_user",
            vec![
                ColumnDef::new("uid", DataType::BigInt).not_null(),
                ColumnDef::new("name", DataType::Varchar(32)),
                ColumnDef::new("score", DataType::Double),
            ],
            &["uid".to_string()],
        )
        .unwrap()
    }

    #[test]
    fn pk_resolution() {
        let s = schema();
        assert_eq!(s.primary_key, vec![0]);
        assert_eq!(
            s.pk_of(&[Value::Int(7), Value::Null, Value::Null]),
            vec![Value::Int(7)]
        );
    }

    #[test]
    fn unknown_pk_column_rejected() {
        let err = TableSchema::new(
            "t",
            vec![ColumnDef::new("a", DataType::Int)],
            &["zzz".to_string()],
        )
        .unwrap_err();
        assert_eq!(err, StorageError::ColumnNotFound("zzz".into()));
    }

    #[test]
    fn admit_coerces_numerics() {
        let s = schema();
        let row = s
            .admit_row(vec![Value::Str("5".into()), Value::Int(9), Value::Int(3)])
            .unwrap();
        assert_eq!(row[0], Value::Int(5));
        assert_eq!(row[1], Value::Str("9".into()));
        assert_eq!(row[2], Value::Float(3.0));
    }

    #[test]
    fn admit_rejects_null_in_not_null() {
        let s = schema();
        let err = s
            .admit_row(vec![Value::Null, Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, StorageError::NotNullViolation { .. }));
    }

    #[test]
    fn admit_rejects_wrong_arity() {
        let s = schema();
        assert!(s.admit_row(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn admit_applies_defaults() {
        let mut cols = vec![ColumnDef::new("a", DataType::Int)];
        cols[0].default = Some(Value::Int(42));
        let s = TableSchema::new("t", cols, &[]).unwrap();
        let row = s.admit_row(vec![Value::Null]).unwrap();
        assert_eq!(row[0], Value::Int(42));
    }

    #[test]
    fn admit_rejects_non_numeric_string() {
        let s = schema();
        let err = s
            .admit_row(vec![Value::Str("abc".into()), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }
}
