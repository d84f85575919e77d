//! The engine's request surface: what a caller sends, what it gets back.

use std::time::Duration;

use dod_core::PointId;

use crate::error::EngineError;

/// A point-in-time health snapshot of a running engine
/// ([`Engine::health`](crate::Engine::health)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHealth {
    /// Requests currently executing, on whichever threads called
    /// [`Engine::execute`](crate::Engine::execute).
    pub in_flight: usize,
    /// Threads one request or one epoch rebuild may use
    /// ([`EngineBuilder::workers`](crate::EngineBuilder::workers)).
    pub workers: usize,
    /// Total requests that panicked (each contained to its own request;
    /// the calling thread survived).
    pub panics: u64,
    /// Current plan epoch.
    pub epoch: u64,
    /// Partitions in the resident plan (0 for an empty dataset).
    pub partitions: usize,
    /// Total requests run since the engine was built (each minted
    /// a [`RequestId`]).
    pub requests: u64,
    /// Resident (alive) points in the dataset.
    pub points: usize,
    /// Streaming mutations (inserts, removes, window expiries) applied
    /// since the last epoch swap.
    pub churn: u64,
    /// Dead-letter entries across this engine's durable jobs (0 when the
    /// config carries no checkpoint spec).
    pub dlq_depth: u64,
    /// Milliseconds since the newest checkpoint write across this
    /// engine's durable jobs; `None` without a checkpoint spec or before
    /// the first durable write.
    pub checkpoint_age_ms: Option<u64>,
}

/// The id minted for one engine request, propagated as the `request`
/// label on every event that request emits — the key `dod obs` groups
/// span trees by. Ids start at 1 and are unique per engine instance.
pub type RequestId = u64;

/// The verdict for one scored query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScorePoint {
    /// Number of resident points within distance `r` of the query,
    /// counted only until it reaches `k` (the exact total is irrelevant
    /// to the outlier decision, so counting stops early).
    pub neighbors: usize,
    /// `true` iff `neighbors < k`: the query point would be a
    /// distance-threshold outlier with respect to the resident dataset.
    pub outlier: bool,
}

/// A sliding-window bound on the resident dataset. Both limits may be
/// active at once; a config with neither is unbounded (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowConfig {
    /// Keep at most this many resident points, expiring the oldest.
    pub max_points: Option<usize>,
    /// Expire points older than this (measured from their insertion).
    pub max_age: Option<Duration>,
}

/// One engine operation, run by [`Engine::execute`](crate::Engine::execute).
#[derive(Debug, Clone)]
pub enum Request {
    /// Score external query points against the resident dataset.
    Score {
        /// The query points.
        points: Vec<Vec<f64>>,
    },
    /// Detect all outliers of the resident dataset.
    Detect,
    /// Insert new points into the resident dataset, splicing them into
    /// the per-partition state (or epoch-swapping when the plan cannot
    /// absorb them exactly).
    Insert {
        /// The points to insert.
        points: Vec<Vec<f64>>,
    },
    /// Remove resident points by id.
    Remove {
        /// Ids of the points to remove (as minted by insert, or the
        /// build-time dataset positions).
        ids: Vec<PointId>,
    },
    /// Reconfigure the sliding window (`Some`) or just run an expiry
    /// sweep under the current one (`None`). Setting an unbounded
    /// [`WindowConfig`] clears the window.
    Window {
        /// The new window bound, or `None` to tick the existing one.
        config: Option<WindowConfig>,
    },
}

/// The result of one [`Request`], matched to its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Score`].
    Score(Vec<ScorePoint>),
    /// Answer to [`Request::Detect`]: ascending outlier ids.
    Outliers(Vec<PointId>),
    /// Answer to [`Request::Insert`].
    Insert(InsertReceipt),
    /// Answer to [`Request::Remove`].
    Remove(RemoveReceipt),
    /// Answer to [`Request::Window`].
    Window(WindowStatus),
}

impl Response {
    /// The score vector, if this is a [`Response::Score`].
    pub fn into_score(self) -> Option<Vec<ScorePoint>> {
        match self {
            Response::Score(s) => Some(s),
            _ => None,
        }
    }

    /// The outlier ids, if this is a [`Response::Outliers`].
    pub fn into_outliers(self) -> Option<Vec<PointId>> {
        match self {
            Response::Outliers(o) => Some(o),
            _ => None,
        }
    }

    /// The insert receipt, if this is a [`Response::Insert`].
    pub fn into_insert(self) -> Option<InsertReceipt> {
        match self {
            Response::Insert(r) => Some(r),
            _ => None,
        }
    }

    /// The remove receipt, if this is a [`Response::Remove`].
    pub fn into_remove(self) -> Option<RemoveReceipt> {
        match self {
            Response::Remove(r) => Some(r),
            _ => None,
        }
    }

    /// The window status, if this is a [`Response::Window`].
    pub fn into_window(self) -> Option<WindowStatus> {
        match self {
            Response::Window(w) => Some(w),
            _ => None,
        }
    }
}

/// Outcome of a [`Request::Insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertReceipt {
    /// Stable id minted for each inserted point, in input order. Valid
    /// across refreshes (an epoch swap preserves ids).
    pub ids: Vec<PointId>,
    /// Points the sliding window expired as a consequence of this
    /// insert (possibly including just-inserted points).
    pub expired: usize,
    /// Whether the op fell back to an epoch-swap refresh (out-of-domain
    /// point, no resident plan, or staleness threshold crossed).
    pub refreshed: bool,
    /// Resident (alive) points after the op.
    pub resident: usize,
}

/// Outcome of a [`Request::Remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoveReceipt {
    /// Points actually removed.
    pub removed: usize,
    /// Ids that were unknown or already removed.
    pub missing: usize,
    /// Whether the op fell back to an epoch-swap refresh.
    pub refreshed: bool,
    /// Resident (alive) points after the op.
    pub resident: usize,
}

/// Outcome of a [`Request::Window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStatus {
    /// The window in effect after the op.
    pub window: WindowConfig,
    /// Points the expiry sweep evicted.
    pub expired: usize,
    /// Whether the op fell back to an epoch-swap refresh.
    pub refreshed: bool,
    /// Resident (alive) points after the op.
    pub resident: usize,
}

/// An already-resolved request, as [`Engine::submit`](crate::Engine::submit)
/// returns it.
#[derive(Debug)]
pub struct Pending<T>(pub(crate) Result<T, EngineError>);

impl<T> Pending<T> {
    /// The request's result.
    pub fn wait(self) -> Result<T, EngineError> {
        self.0
    }
}
