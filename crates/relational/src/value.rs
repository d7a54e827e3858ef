//! Runtime values: the dynamic cell type of the engine.
//!
//! SQL three-valued logic is modelled by [`Value::Null`]; comparisons and
//! arithmetic that touch NULL yield NULL, and predicates treat non-TRUE as
//! filtered-out. Values must be hashable and totally orderable so they can
//! be used as grouping keys and sort keys; floats are ordered by IEEE total
//! order and hashed by bit pattern.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};

/// A calendar date, stored as days since 1970-01-01 (may be negative).
///
/// The representation makes comparison and interval arithmetic trivial,
/// which matters because MINE RULE temporal clauses (`CLUSTER BY date
/// HAVING BODY.date < HEAD.date`) compare dates per candidate rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    days: i32,
}

impl Date {
    /// Construct from a civil calendar date. Returns `None` for invalid
    /// dates such as February 30th.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Option<Date> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date {
            days: days_from_civil(year, month, day),
        })
    }

    /// Days since the Unix epoch (1970-01-01).
    pub fn days_since_epoch(self) -> i32 {
        self.days
    }

    /// Construct directly from a day count since the epoch.
    pub fn from_days_since_epoch(days: i32) -> Date {
        Date { days }
    }

    /// Decompose into `(year, month, day)`.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.days)
    }

    /// Add a (possibly negative) number of days.
    pub fn plus_days(self, n: i32) -> Date {
        Date {
            days: self.days + n,
        }
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Date> {
        let mut it = s.split('-');
        let y: i32 = it.next()?.parse().ok()?;
        let m: u32 = it.next()?.parse().ok()?;
        let d: u32 = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Date::from_ymd(y, m, d)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

// Howard Hinnant's civil-days algorithms (public domain).
fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let mp = ((m as i64) + 9) % 12; // [0, 11], Mar = 0
    let doy = (153 * mp + 2) / 5 + (d as i64) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era as i64 * 146097 + doe - 719468) as i32
}

fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// A single cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean (result of predicates, also storable).
    Bool(bool),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a predicate outcome: NULL and false are both "not true".
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Extract an `i64`, coercing from float when lossless.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => Err(Error::type_mismatch(format!("expected INT, got {other}"))),
        }
    }

    /// Extract an `f64`, coercing from int.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(Error::type_mismatch(format!("expected FLOAT, got {other}"))),
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::type_mismatch(format!(
                "expected STRING, got {other}"
            ))),
        }
    }

    /// Extract a date.
    pub fn as_date(&self) -> Result<Date> {
        match self {
            Value::Date(d) => Ok(*d),
            other => Err(Error::type_mismatch(format!("expected DATE, got {other}"))),
        }
    }

    /// SQL comparison with NULL propagation: returns `None` if either side
    /// is NULL, `Some(ordering)` otherwise. Numeric types compare across
    /// int/float; all other cross-type comparisons are errors.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.total_cmp(b)),
            (Int(a), Float(b)) => Some((*a as f64).total_cmp(b)),
            (Float(a), Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (a, b) => return Err(Error::type_mismatch(format!("cannot compare {a} with {b}"))),
        })
    }

    /// Total ordering used for ORDER BY and for deterministic output:
    /// NULL sorts first, then values grouped by type tag.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Date(_) => 4,
            }
        }
        match self.sql_cmp(other) {
            Ok(Some(ord)) => ord,
            _ => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                _ => tag(self).cmp(&tag(other)),
            },
        }
    }

    /// Name of the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Float(_) => "FLOAT",
            Value::Str(_) => "STRING",
            Value::Bool(_) => "BOOL",
            Value::Date(_) => "DATE",
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Equality used for grouping/dedup: NULLs compare equal to each
        // other (SQL GROUP BY semantics), numerics compare across types.
        // Same-type pairs compare directly — what `sql_cmp` would decide,
        // without building its result; FLOATs by `total_cmp`, so `0.0`
        // and `-0.0` stay apart and a NaN equals itself.
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.total_cmp(b).is_eq(),
            (Str(a), Str(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            _ => matches!(self.sql_cmp(other), Ok(Some(Ordering::Equal))),
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and equal-valued floats must hash identically because
            // they compare equal. Hash every numeric as its f64 bits
            // (exact for |i| < 2^53, which covers engine-generated ids).
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Grouping equality as it was defined before same-type pairs took a
    /// shortcut: through `sql_cmp`.
    fn eq_by_comparison(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => true,
            _ => matches!(a.sql_cmp(b), Ok(Some(Ordering::Equal))),
        }
    }

    #[test]
    fn equality_agrees_with_the_comparison_on_every_pair() {
        let date = |days| Value::Date(Date::from_days_since_epoch(days));
        let values = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::Float(-1.0),
            Value::Float(1.5),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(i64::MAX as f64),
            Value::Str(String::new()),
            Value::Str("1".into()),
            Value::Str("a".into()),
            Value::Str("A".into()),
            Value::Str("é".into()),
            Value::Str("e\u{301}".into()),
            Value::Str("日本".into()),
            Value::Bool(false),
            Value::Bool(true),
            date(0),
            date(1),
            date(-1),
        ];
        for a in &values {
            for b in &values {
                assert_eq!(a == b, eq_by_comparison(a, b), "{a:?} == {b:?}");
            }
        }
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (1995, 12, 17), (2000, 2, 29), (1899, 3, 31)] {
            let date = Date::from_ymd(y, m, d).unwrap();
            assert_eq!(date.ymd(), (y, m, d));
        }
    }

    #[test]
    fn date_rejects_invalid() {
        assert!(Date::from_ymd(1999, 2, 29).is_none());
        assert!(Date::from_ymd(1999, 13, 1).is_none());
        assert!(Date::from_ymd(1999, 0, 1).is_none());
        assert!(Date::from_ymd(1999, 4, 31).is_none());
    }

    #[test]
    fn date_ordering_follows_calendar() {
        let a = Date::from_ymd(1995, 12, 17).unwrap();
        let b = Date::from_ymd(1995, 12, 18).unwrap();
        assert!(a < b);
        assert_eq!(a.plus_days(1), b);
    }

    #[test]
    fn date_parse_display_roundtrip() {
        let d = Date::parse("1995-12-18").unwrap();
        assert_eq!(d.to_string(), "1995-12-18");
        assert!(Date::parse("1995-12").is_none());
        assert!(Date::parse("nonsense").is_none());
    }

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null).unwrap(), None);
    }

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_cross_type_is_error() {
        assert!(Value::Int(1).sql_cmp(&Value::Str("1".into())).is_err());
    }

    #[test]
    fn grouping_equality_treats_nulls_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn int_and_float_hash_consistently_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(Value::Int(7), Value::Float(7.0));
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut v = [Value::Int(3), Value::Null, Value::Int(1)];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], Value::Null);
        assert_eq!(v[1], Value::Int(1));
    }
}
