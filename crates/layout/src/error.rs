//! Error types for the layout substrate.

/// Errors produced while building or splitting layouts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// A split layer outside `1..=8` was requested.
    InvalidSplitLayer(u8),
    /// A design specification is internally inconsistent.
    InvalidSpec(String),
    /// A net references a cell or pin that does not exist.
    DanglingReference(String),
    /// A coordinate lies outside the bound every [`crate::SplitView`]
    /// keeps ([`crate::split::MAX_COORD`]).
    CoordinateOutOfRange(String),
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::InvalidSplitLayer(v) => {
                write!(f, "split layer V{v} outside the valid range V1..=V8")
            }
            LayoutError::InvalidSpec(msg) => write!(f, "invalid design spec: {msg}"),
            LayoutError::DanglingReference(msg) => write!(f, "dangling reference: {msg}"),
            LayoutError::CoordinateOutOfRange(msg) => {
                write!(f, "coordinate out of range: {msg}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LayoutError::InvalidSplitLayer(12);
        assert!(e.to_string().contains("V12"));
        let e = LayoutError::InvalidSpec("zero cells".into());
        assert!(e.to_string().contains("zero cells"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LayoutError>();
    }
}
