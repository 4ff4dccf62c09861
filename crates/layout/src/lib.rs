//! # sm-layout — synthetic VLSI layout substrate for split-manufacturing research
//!
//! This crate provides everything below the machine-learning attack in the
//! reproduction of *"Analysis of Security of Split Manufacturing Using
//! Machine Learning"* (Zeng, Zhang, Davoodi): a 9-metal-layer process
//! technology, a standard-cell library, a seeded synthetic benchmark
//! generator modelled on the ISPD-2011 `superblue` suite, a row-based
//! placer, a congestion-driven multi-layer global router, and the
//! split-view extraction that turns a routed design into an attack
//! challenge (v-pins plus hidden ground truth).
//!
//! ## Quick start
//!
//! ```
//! use sm_layout::suite::Suite;
//! use sm_layout::tech::SplitLayer;
//!
//! // Generate a small version of the five-design suite and cut the first
//! // benchmark at split layer 8 (between metals M8 and M9).
//! let suite = Suite::ispd2011_like(0.01)?;
//! let view = suite.benchmarks()[0].split(SplitLayer::new(8)?);
//! println!("{} v-pins on {}", view.num_vpins(), view.name);
//! for vp in view.vpins().iter().take(3) {
//!     println!("v-pin at {} connects pins near {}", vp.loc, vp.pin_loc);
//! }
//! # Ok::<(), sm_layout::error::LayoutError>(())
//! ```
//!
//! The attacker-facing surface is [`split::SplitView`]: locations, route
//! fragments, cell areas and congestion of every v-pin — with the true
//! matching stored separately for evaluation only.

pub mod cells;
pub mod congestion;
pub mod error;
pub mod generator;
pub mod geom;
pub mod io;
pub mod netlist;
pub mod route;
pub mod split;
pub mod suite;
pub mod tech;

pub use error::LayoutError;
pub use split::{SplitView, VPin};
pub use suite::{Benchmark, Suite};
pub use tech::SplitLayer;
