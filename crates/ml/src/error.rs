//! Error types for the machine-learning substrate.

/// Errors produced while building datasets or training models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrainError {
    /// The training set is empty.
    EmptyDataset,
    /// The training set contains only one class; a discriminative model
    /// cannot be fit.
    SingleClass,
    /// A sample's feature count disagrees with the dataset's.
    FeatureMismatch {
        /// Features the dataset expects per sample.
        expected: usize,
        /// Features the offending sample carried.
        got: usize,
    },
    /// A feature has more candidate split thresholds than a `u16` bin
    /// code addresses; only `TreeParams::bins` past 65,536 can cause it.
    TooManyThresholds {
        /// The feature's column.
        feature: usize,
        /// Candidate thresholds it would need.
        thresholds: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "cannot train on an empty dataset"),
            TrainError::SingleClass => {
                write!(
                    f,
                    "training set contains a single class; nothing to discriminate"
                )
            }
            TrainError::FeatureMismatch { expected, got } => {
                write!(f, "sample has {got} features, dataset expects {expected}")
            }
            TrainError::TooManyThresholds {
                feature,
                thresholds,
            } => write!(
                f,
                "feature {feature} needs {thresholds} split thresholds, past the {} a u16 \
                 bin code addresses; use fewer bins",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for TrainError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_detail() {
        let e = TrainError::FeatureMismatch {
            expected: 11,
            got: 9,
        };
        let msg = e.to_string();
        assert!(msg.contains("11") && msg.contains('9'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrainError>();
    }
}
