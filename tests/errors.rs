//! Compile-time guarantees for the workspace's public error enums: every
//! one implements `std::error::Error + Display` and is boxable as
//! `Box<dyn Error + Send + Sync>`, so callers can `?` any IQS error
//! through a `Box<dyn Error>` main and error chains compose across the
//! crate boundary (structure errors wrapped in service errors expose
//! `source()`).

use std::error::Error;

use iqs::alias::WeightError;
use iqs::core::QueryError;
use iqs::net::{FrameError, NetError};
use iqs::serve::ServeError;
use iqs::shard::ShardError;
use iqs::spatial::SpatialError;
use iqs::tier::TierError;
use iqs::tree::{BstError, TreeError};

/// The contract: `Error + Display` (implied) + `Send + Sync + 'static`,
/// i.e. boxable into the ergonomic `Box<dyn Error + Send + Sync>`.
fn assert_boxable<E: Error + Send + Sync + 'static>() {}

#[test]
fn all_public_error_enums_are_boxable_errors() {
    assert_boxable::<WeightError>();
    assert_boxable::<QueryError>();
    assert_boxable::<TreeError>();
    assert_boxable::<BstError>();
    assert_boxable::<SpatialError>();
    assert_boxable::<ServeError>();
    assert_boxable::<ShardError>();
    assert_boxable::<FrameError>();
    assert_boxable::<NetError>();
    assert_boxable::<TierError>();
}

#[test]
fn errors_round_trip_through_dyn_error() {
    // A structure error wrapped by the service layer keeps its source
    // chain visible through the trait object.
    let service_err: Box<dyn Error + Send + Sync> =
        Box::new(ServeError::from(QueryError::EmptyRange));
    assert!(service_err.source().is_some(), "wrapped errors must expose source()");
    assert!(!service_err.to_string().is_empty());

    // A service error wrapped by the sharded tier chains two deep.
    let shard_err: Box<dyn Error + Send + Sync> =
        Box::new(ShardError::from(ServeError::from(QueryError::EmptyRange)));
    let source = shard_err.source().expect("shard errors expose the service source");
    assert!(source.source().is_some(), "the chain reaches the structure error");

    // A structure error wrapped by the tiered backend keeps its source,
    // and the tier error converts onward into the service surface.
    let tier_err: Box<dyn Error + Send + Sync> = Box::new(TierError::from(QueryError::EmptyRange));
    assert!(tier_err.source().is_some(), "TierError::Query exposes the structure source");
    let through_serve = ServeError::from(TierError::from(QueryError::EmptyRange));
    assert!(through_serve.source().is_some(), "tier errors chain through ServeError");

    // A frame error wrapped by the transport layer keeps its source.
    let net_err: Box<dyn Error + Send + Sync> =
        Box::new(NetError::from(FrameError::Truncated { needed: 32, have: 4 }));
    assert!(net_err.source().is_some(), "NetError::Frame exposes the frame source");

    // Every enum Displays something non-empty through the trait object.
    let samples: Vec<Box<dyn Error + Send + Sync>> = vec![
        Box::new(WeightError::Empty),
        Box::new(QueryError::EmptyRange),
        Box::new(ServeError::Overloaded),
    ];
    for e in &samples {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn question_mark_composes_across_layers() {
    fn run() -> Result<(), Box<dyn Error + Send + Sync>> {
        let mut registry = iqs::serve::IndexRegistry::new();
        // Structure-level error (?-converted through ServeError).
        let bad = registry.register_range_static("x", vec![(f64::NAN, 1.0)]);
        assert!(bad.is_err());
        bad?;
        Ok(())
    }
    assert!(run().is_err());
}
