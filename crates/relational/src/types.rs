//! Static type metadata: data types, columns and schemas.

use std::fmt;

use crate::error::{Error, Result};
use crate::value::Value;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
    Bool,
    Date,
}

impl DataType {
    /// True when `value` may be stored in a column of this type.
    /// NULL is storable everywhere; ints are accepted by FLOAT columns.
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Float, Value::Int(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Bool, Value::Bool(_))
                | (DataType::Date, Value::Date(_))
        )
    }

    /// Parse a SQL type name.
    pub fn from_sql_name(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(DataType::Int),
            "FLOAT" | "REAL" | "DOUBLE" | "NUMERIC" | "DECIMAL" => Some(DataType::Float),
            "VARCHAR" | "CHAR" | "TEXT" | "STRING" => Some(DataType::Str),
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "DATE" => Some(DataType::Date),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "VARCHAR",
            DataType::Bool => "BOOLEAN",
            DataType::Date => "DATE",
        };
        write!(f, "{s}")
    }
}

/// One column of a schema. `qualifier` carries the table name or alias the
/// column is visible under during execution (empty for anonymous results).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub dtype: DataType,
    pub qualifier: Option<String>,
}

impl Column {
    /// An unqualified column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            dtype,
            qualifier: None,
        }
    }

    /// A column qualified by a table name or alias.
    pub fn qualified(
        qualifier: impl Into<String>,
        name: impl Into<String>,
        dtype: DataType,
    ) -> Column {
        Column {
            name: name.into(),
            dtype,
            qualifier: Some(qualifier.into()),
        }
    }

    /// Whether the reference `qualifier.name` (or a bare `name`) can name
    /// this column: names match case-insensitively, and a given qualifier
    /// must match too. The one matching rule of column resolution.
    pub fn answers_to(&self, qualifier: Option<&str>, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name)
            && qualifier.map_or(true, |q| {
                self.qualifier
                    .as_deref()
                    .is_some_and(|cq| cq.eq_ignore_ascii_case(q))
            })
    }
}

/// An ordered list of columns. Column names are matched case-insensitively,
/// as SQL identifiers are case-insensitive in this engine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Append a column (used when composing join schemas).
    pub fn push(&mut self, column: Column) {
        self.columns.push(column);
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Resolve a possibly-qualified column reference to its index.
    ///
    /// Unqualified names must be unambiguous across the schema; qualified
    /// names match on both qualifier and name.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.answers_to(qualifier, name) {
                if found.is_some() {
                    let full = match qualifier {
                        Some(q) => format!("{q}.{name}"),
                        None => name.to_string(),
                    };
                    return Err(Error::AmbiguousColumn { name: full });
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| Error::UnknownColumn {
            name: match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            },
        })
    }

    /// Indexes of all columns visible under `qualifier` (for `t.*`).
    pub fn columns_of(&self, qualifier: &str) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.qualifier
                    .as_deref()
                    .is_some_and(|q| q.eq_ignore_ascii_case(qualifier))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Copy of this schema with every qualifier replaced by `qualifier`
    /// (applied when a table factor gets an alias).
    pub fn with_qualifier(&self, qualifier: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column::qualified(qualifier, c.name.clone(), c.dtype))
                .collect(),
        }
    }

    /// Copy with all qualifiers stripped (result sets presented to users).
    pub fn unqualified(&self) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column::new(c.name.clone(), c.dtype))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::qualified("t", "a", DataType::Int),
            Column::qualified("t", "b", DataType::Str),
            Column::qualified("u", "a", DataType::Int),
        ])
    }

    #[test]
    fn resolve_qualified() {
        let s = sample();
        assert_eq!(s.resolve(Some("u"), "a").unwrap(), 2);
        assert_eq!(s.resolve(Some("T"), "A").unwrap(), 0);
    }

    #[test]
    fn resolve_unqualified_unique() {
        let s = sample();
        assert_eq!(s.resolve(None, "b").unwrap(), 1);
    }

    #[test]
    fn resolve_unqualified_ambiguous() {
        let s = sample();
        assert!(matches!(
            s.resolve(None, "a"),
            Err(Error::AmbiguousColumn { .. })
        ));
    }

    #[test]
    fn resolve_missing() {
        let s = sample();
        assert!(matches!(
            s.resolve(None, "zz"),
            Err(Error::UnknownColumn { .. })
        ));
    }

    #[test]
    fn datatype_admits_nulls_and_int_in_float() {
        assert!(DataType::Str.admits(&Value::Null));
        assert!(DataType::Float.admits(&Value::Int(3)));
        assert!(!DataType::Int.admits(&Value::Str("x".into())));
    }

    #[test]
    fn datatype_names_parse() {
        assert_eq!(DataType::from_sql_name("integer"), Some(DataType::Int));
        assert_eq!(DataType::from_sql_name("VARCHAR"), Some(DataType::Str));
        assert_eq!(DataType::from_sql_name("blob"), None);
    }

    #[test]
    fn columns_of_lists_per_qualifier() {
        let s = sample();
        assert_eq!(s.columns_of("t"), vec![0, 1]);
        assert_eq!(s.columns_of("u"), vec![2]);
    }
}
