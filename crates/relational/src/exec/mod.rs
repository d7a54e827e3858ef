//! Query execution.

pub(crate) mod counted;
pub mod explain;
pub mod join;
pub mod select;

pub use join::Relation;
pub use select::run_select;
