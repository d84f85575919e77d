//! The engine's error surface.

use std::error::Error as StdError;
use std::fmt;

/// Everything that can go wrong while building or querying an [`Engine`].
///
/// [`Engine`]: crate::Engine
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The request's deadline passed before it finished.
    DeadlineExceeded,
    /// A point of the request (a query of a score, a point of an insert)
    /// does not have the resident dataset's dimensionality. Nothing was
    /// scored and nothing was inserted.
    Dimension {
        /// Position of the offending point within the request.
        index: usize,
        /// Dimensionality of the resident dataset.
        expected: usize,
        /// Dimensionality of the offending point.
        got: usize,
    },
    /// A point of the request has a NaN or infinite coordinate. Nothing
    /// was scored and nothing was inserted.
    NonFinite {
        /// Position of the offending point within the request.
        index: usize,
    },
    /// An insert batch would widen the resident points' bounding box past
    /// what `f64` can span (finite coordinates such as `±1e308`), so no
    /// plan could be built over it. Nothing was inserted.
    Extent,
    /// The request panicked. The panic was contained: only this request
    /// failed, the calling thread got this error back, and the engine
    /// keeps serving subsequent requests.
    TaskPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Preprocessing (sampling, planning, or re-planning) failed in the
    /// underlying pipeline.
    Pipeline(dod::Error),
}

impl EngineError {
    /// The error's short stable code: the `error` label of a failed
    /// request's span, the reason of the flight dump it triggers, and the
    /// `code` of a `dod serve` error reply.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::DeadlineExceeded => "deadline",
            EngineError::Dimension { .. } => "dimension",
            EngineError::NonFinite { .. } => "non_finite",
            EngineError::Extent => "extent",
            EngineError::TaskPanicked { .. } => "panic",
            EngineError::Pipeline(_) => "pipeline",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            EngineError::Dimension {
                index,
                expected,
                got,
            } => write!(
                f,
                "point {index} has dimension {got}, resident dataset has dimension {expected}"
            ),
            EngineError::NonFinite { index } => {
                write!(f, "point {index} has a NaN or infinite coordinate")
            }
            EngineError::Extent => write!(
                f,
                "the batch would widen the resident bounding box past what f64 can span"
            ),
            EngineError::TaskPanicked { message } => {
                write!(f, "request panicked: {message}")
            }
            EngineError::Pipeline(e) => write!(f, "pipeline preprocessing failed: {e}"),
        }
    }
}

impl StdError for EngineError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            EngineError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dod::Error> for EngineError {
    fn from(e: dod::Error) -> Self {
        EngineError::Pipeline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(EngineError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        let e = EngineError::Dimension {
            index: 1,
            expected: 2,
            got: 1,
        };
        assert_eq!(
            e.to_string(),
            "point 1 has dimension 1, resident dataset has dimension 2"
        );
        let p = EngineError::TaskPanicked {
            message: "boom".into(),
        };
        assert!(p.to_string().contains("boom"));
        assert!(p.to_string().contains("panicked"));
    }

    #[test]
    fn pipeline_errors_chain_their_source() {
        let inner: dod::Error = dod::ConfigError::NoReducers.into();
        let e = EngineError::from(inner);
        assert!(e.source().is_some());
        // Two hops: EngineError -> dod::Error -> ConfigError.
        assert!(e.source().unwrap().source().is_some());
    }
}
