//! The telemetry plane's error taxonomy.

use std::error::Error;
use std::fmt;

use iqs_obs::SnapshotDiffError;

/// Errors from the SLO engine and telemetry shipping layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloError {
    /// An objective or shipper was configured with an impossible
    /// parameter; the message names it.
    Config(&'static str),
    /// Two snapshots that should form an (earlier, later) window pair do
    /// not — the underlying diff error names the series (and, for a
    /// histogram, the bucket) that shrank. Seen when a caller feeds
    /// non-cumulative snapshots into [`crate::SloEngine::observe`] or
    /// [`crate::TelemetryShipper::next_batch`], or swaps a diff's
    /// arguments.
    Window(SnapshotDiffError),
}

impl fmt::Display for SloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SloError::Config(what) => write!(f, "invalid SLO configuration: {what}"),
            SloError::Window(_) => write!(f, "snapshots do not form a monotone window pair"),
        }
    }
}

impl Error for SloError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SloError::Config(_) => None,
            SloError::Window(err) => Some(err),
        }
    }
}

impl From<SnapshotDiffError> for SloError {
    fn from(err: SnapshotDiffError) -> SloError {
        SloError::Window(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let config = SloError::Config("target must be in (0, 1)");
        assert!(config.to_string().contains("target must be in (0, 1)"));
        assert!(config.source().is_none());

        let diff = SnapshotDiffError { field: "histogram", bucket: Some(5), later: 1, earlier: 3 };
        let window = SloError::from(diff);
        assert!(window.to_string().contains("monotone window pair"));
        let source = window.source().expect("window errors chain to the diff");
        assert!(source.to_string().contains("bucket 5"));
    }
}
