//! # sm-ml — decision-tree machine learning substrate
//!
//! A from-scratch reimplementation of the Weka components the paper's
//! attack depends on: [`tree::Tree`] (CART-style decision tree),
//! [`learners::RepTreeLearner`] (reduced-error pruning, Weka `REPTree`),
//! [`learners::RandomTreeLearner`] (Weka `RandomTree`),
//! [`bagging::Bagging`] (bootstrap aggregation with soft voting, Eq. (1)–(3)
//! of the paper; Bagging of RandomTrees is the RandomForest configuration
//! of the conference version), and the feature-importance metrics of
//! Section IV-A ([`metrics`]). The slow per-node scan that the
//! histogram tree fit is checked against lives in [`oracle`].
//!
//! ## Quick start
//!
//! ```
//! use sm_ml::bagging::Bagging;
//! use sm_ml::data::Dataset;
//! use sm_ml::learners::RepTreeLearner;
//!
//! let mut ds = Dataset::new(2);
//! for i in 0..300 {
//!     let x = f64::from(i % 100);
//!     ds.push(&[x, -x], x > 50.0)?;
//! }
//! let model = Bagging::fit(&ds, &RepTreeLearner::default(), 10, 0)?;
//! let p = model.proba(&[80.0, -80.0]);
//! assert!(p > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bagging;
pub mod bayes;
mod binned;
pub mod compiled;
pub mod data;
pub mod error;
pub mod knn;
pub mod learners;
pub mod linear;
pub mod metrics;
pub mod oracle;
pub mod parallel;
pub mod tree;

pub use bagging::{Bagging, DEFAULT_BAGGING_TREES};
pub use bayes::GaussianNaiveBayes;
pub use compiled::CompiledEnsemble;
pub use data::Dataset;
pub use error::TrainError;
pub use knn::KNearest;
pub use learners::{RandomTreeLearner, RepTreeLearner, TreeLearner};
pub use linear::{LogisticParams, LogisticRegression};
pub use parallel::{par_chunks, par_map, Parallelism, MAX_THREADS};
pub use tree::{Tree, TreeParams};
