//! Experiment harness regenerating the paper's evaluation (Figures 6–8).
//!
//! The [`grid`] module defines the paper's parameter grid (four networks
//! profiled at 1000×1000 / batch 8, `P ∈ 2..=8`, `M ∈ 3..=16` GB,
//! `β ∈ {12, 24}` GB/s) and evaluates one *cell* — both planners on one
//! `(network, P, M, β)` instance. [`parallel`] fans cells out over a
//! scoped worker pool. The `fig6`/`fig7`/`fig8` modules
//! aggregate cells into exactly the series the paper plots and render
//! them as text tables + CSV files.

pub mod baseline;
pub mod csv;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod grid;
pub mod loadgen;
pub mod parallel;
pub mod plan_speed;
pub mod record;
pub mod summary;

pub use baseline::smoke_grid;
pub use grid::{chains_for, paper_chains, run_cell, Cell, CellResult, GridConfig};
pub use parallel::run_cells;
pub use plan_speed::{plan_speed_grid, run_plan_speed, PlanSpeedRecord};
