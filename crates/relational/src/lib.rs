//! # relational — an in-memory SQL92-subset engine
//!
//! This crate is the "SQL server" substrate of the tightly-coupled data
//! mining architecture of Meo, Psaila & Ceri (ICDE 1998). It provides just
//! enough of SQL92 — plus Oracle-style sequences — for the paper's
//! preprocessing and postprocessing programs (Appendix A, queries
//! `Q0`–`Q11`) to run unchanged in structure:
//!
//! * typed tables, views, sequences in a case-insensitive catalog;
//! * `SELECT` with comma joins (planned as hash joins), `WHERE`,
//!   `GROUP BY`/`HAVING`, `DISTINCT`, `ORDER BY`, `LIMIT`, derived tables,
//!   scalar/`IN`/`EXISTS` subqueries and host variables (`:totg`);
//! * `INSERT INTO t (SELECT ...)`, `CREATE TABLE ... AS`, `DELETE`,
//!   `UPDATE`, `CREATE SEQUENCE`/`NEXTVAL`;
//! * `DATE` values with interval arithmetic, needed by temporal
//!   MINE RULE statements.
//!
//! The mining kernel (crate `minerule`) drives this engine exactly the way
//! the paper's kernel drives a commercial SQL server: by generating SQL
//! text, executing it, and reading encoded tables back.
//!
//! ## Quickstart
//!
//! ```
//! use relational::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE purchase (tr INT, item VARCHAR, price INT)").unwrap();
//! db.execute("INSERT INTO purchase VALUES (1, 'ski_pants', 140), (1, 'hiking_boots', 180)").unwrap();
//! let rs = db.query("SELECT item FROM purchase WHERE price >= 150").unwrap();
//! assert_eq!(rs.len(), 1);
//! ```

pub mod catalog;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod key;
pub mod persist;
pub mod resultset;
pub mod row;
pub mod sequence;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod table;
pub mod types;
pub mod value;

pub use engine::{Database, ExecOutcome, ExecStats};
pub use error::{Error, ObjectKind, Result};
pub use expr::compile::{CompiledExpr, ExecCounter};
pub use expr::vector::{ColumnBatch, VECTOR_BATCH_ROWS};
pub use index::HashIndex;
pub use key::{KeyHash, KeyInterner};
pub use resultset::ResultSet;
pub use row::Row;
pub use storage::{StorageBackend, StorageConfig, StorageStats, WalFault, WalFaultKind};
pub use table::{Table, TableDelta};
pub use types::{Column, DataType, Schema};
pub use value::{Date, Value};
