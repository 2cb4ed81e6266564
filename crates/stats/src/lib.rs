//! # hbat-stats — statistics aggregation and reporting
//!
//! Small utilities shared by the experiment harness: run-time weighted
//! averages (the paper's aggregate across benchmarks) and monospace table
//! rendering for regenerated tables and figures.

pub mod agg;
pub mod chart;
pub mod ci;
pub mod table;

pub use agg::{weighted_average, Summary};
pub use chart::BarChart;
pub use ci::{t_critical, ConfLevel, ConfidenceInterval};
pub use table::{fnum, percent, Align, TextTable};
