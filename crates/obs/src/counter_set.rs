//! One declarative descriptor per counter set.
//!
//! A *counter set* is what a layer meters itself with: a live struct of
//! relaxed atomics on the request path, and the immutable snapshot of it
//! that crosses the wire, is diffed per interval, pooled per cluster and
//! scraped as Prometheus text. [`counter_set!`](crate::counter_set) takes
//! one table, a row per series, and generates all of that:
//!
//! ```
//! iqs_obs::counter_set! {
//!     #[derive(Default)]
//!     pub struct DoorCounters;
//!     #[derive(Debug, Clone, PartialEq, Default)]
//!     pub struct DoorSnapshot;
//!     counters {
//!         /// Times the door opened.
//!         opened: delta => counter "door_events_total" [event = "opened"] "Door events";
//!         /// People inside right now.
//!         inside: level => gauge "door_inside" "People inside";
//!     }
//! }
//! let live = DoorCounters::default();
//! live.opened.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
//! live.inside.store(1, std::sync::atomic::Ordering::Relaxed);
//! let (earlier, later) = (DoorSnapshot { opened: 1, inside: 4 }, live.snapshot());
//! assert_eq!(later.minus(&earlier), Ok(DoorSnapshot { opened: 1, inside: 1 }));
//! assert_eq!(earlier.minus(&later).unwrap_err().field, "opened");
//! ```
//!
//! **A row** is `field: fold`, then `=> type "family" [label = "value"]
//! "help"` when the series is exported; rows of one family are adjacent.
//! The *fold* says what the series does between two snapshots: a `delta`
//! only grows, so `minus` subtracts it and refuses a pair in which it
//! shrank; a `level` (a gauge, or a total sampled from elsewhere) keeps
//! the later value. `merge` adds both, saturating. A `histograms` row is
//! a [`LogHistogram`](crate::LogHistogram) (`, exemplars` attaches the
//! slow log's trace ids). Struct — hence JSON — order is counters, then
//! histograms. `laws name [json];` emits the test `name`: [`laws::check`]
//! on arbitrary values, and [`laws::json`] when `[json]` is there.

/// Declares a counter set from one table (grammar and generated items:
/// the [module docs](crate::counter_set)).
#[macro_export]
macro_rules! counter_set {
    (@exemplars exemplars $slow:ident) => { $slow };
    (@minus level $field:ident $later:ident $earlier:ident) => { $later.$field };
    (@minus delta $field:ident $later:ident $earlier:ident) => {
        $later.$field.checked_sub($earlier.$field).ok_or($crate::SnapshotDiffError {
            field: stringify!($field),
            bucket: None,
            later: $later.$field,
            earlier: $earlier.$field,
        })?
    };
    (@laws [] $($unused:tt)*) => {};
    (@laws [$test:ident $($also:ident)?] $Snap:ident [$($field:ident)*] [$($h:ident $($hs:ident)*)?]) => {
        #[cfg(test)]
        #[test]
        fn $test() {
            let fields = [$(stringify!($field)),*];
            for round in 0..64 {
                let mut next = $crate::counter_set::laws::values(round);
                let (a, b) = (<$Snap>::arbitrary(&mut next), <$Snap>::arbitrary(&mut next));
                let mut w = $crate::PromWriter::new();
                a.write_counters(&mut w);
                // `$h` is there, and the method generated, iff the set has histograms.
                $( let _ = stringify!($h); a.write_histograms(&mut w, None); )?
                let (merge, minus) = (<$Snap>::merge, <$Snap>::minus);
                $crate::counter_set::laws::check(&a, &b, &fields, merge, minus, &w.finish());
                $( $crate::counter_set::laws::$also(&a, &fields); )?
            }
        }
    };
    (
        $(#[$live_meta:meta])* $live_vis:vis struct $Live:ident;
        $(#[$snap_meta:meta])* $snap_vis:vis struct $Snap:ident;
        $( laws $law_test:ident $([$also:ident])?; )?
        counters { $(
            $(#[$c_meta:meta])* $c:ident : $fold:ident
                $( => $kind:ident $family:literal $([$lk:ident = $lv:literal])? $help:literal )? ;
        )* }
        $( histograms { $(
            $(#[$h_meta:meta])* $h:ident => $h_family:literal $h_help:literal $(, $ex:ident)? ;
        )* } )?
    ) => {
        $(#[$live_meta])*
        $live_vis struct $Live {
            $( pub(crate) $c: ::std::sync::atomic::AtomicU64, )*
            $($( pub(crate) $h: $crate::LogHistogram, )*)?
        }

        impl $Live {
            /// A point-in-time copy of every series (relaxed loads).
            $live_vis fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $c: self.$c.load(::std::sync::atomic::Ordering::Relaxed), )*
                    $($( $h: self.$h.snapshot(), )*)?
                }
            }
        }

        $(#[$snap_meta])*
        $snap_vis struct $Snap {
            $( $(#[$c_meta])* pub $c: u64, )*
            $($( $(#[$h_meta])* pub $h: $crate::HistogramSnapshot, )*)?
        }

        impl $Snap {
            /// Series-wise difference `self - earlier`, for metering an
            /// interval: *delta* series and histograms subtract, *level*
            /// series keep the later value.
            ///
            /// # Errors
            /// `iqs_obs::SnapshotDiffError` naming the first delta series
            /// that shrank: not an (earlier, later) pair of one source.
            pub fn minus(
                &self,
                earlier: &$Snap,
            ) -> ::std::result::Result<$Snap, $crate::SnapshotDiffError> {
                Ok($Snap {
                    $( $c: $crate::counter_set!(@minus $fold $c self earlier), )*
                    $($( $h: self.$h.minus(&earlier.$h)
                        .map_err(|e| $crate::SnapshotDiffError { field: stringify!($h), ..e })?, )*)?
                })
            }

            /// Series-wise accumulation `self += other`, pooling sources:
            /// every series adds, saturating — levels too (the pool's total
            /// backlog).
            pub fn merge(&mut self, other: &$Snap) {
                $( self.$c = self.$c.saturating_add(other.$c); )*
                $($( self.$h.merge(&other.$h); )*)?
            }

            /// Writes every exported scalar series in table order.
            pub fn write_counters(&self, w: &mut $crate::PromWriter) {
                $($(
                    let label: Option<(&str, &str)> = None $( .or(Some((stringify!($lk), $lv))) )?;
                    w.header($family, $help, stringify!($kind));
                    w.sample($family, label.as_slice(), self.$c);
                )?)*
            }

            $(
            /// Writes every histogram in table order, with `slow`'s
            /// exemplar trace ids on the rows that take them.
            pub fn write_histograms(
                &self,
                w: &mut $crate::PromWriter,
                slow: Option<&$crate::SlowLog>,
            ) {
                $(
                    let exemplars: Option<&$crate::SlowLog> =
                        None $( .or($crate::counter_set!(@exemplars $ex slow)) )?;
                    $crate::prom_histogram(w, $h_family, $h_help, &self.$h, exemplars);
                )*
            }
            )?

            /// Arbitrary values from `next`.
            #[cfg(test)]
            pub(crate) fn arbitrary(next: &mut dyn FnMut() -> u64) -> $Snap {
                $Snap {
                    $( $c: next(), )*
                    $($( $h: $crate::HistogramSnapshot {
                        buckets: ::std::array::from_fn(|_| next() >> 8),
                    }, )*)?
                }
            }
        }

        $crate::counter_set!(@laws [$($law_test $($also)?)?] $Snap
            [$($c)* $($($h)*)?] [$($($h)*)?]);
    };
}

/// The laws every counter set obeys, checked by the test a `laws` line
/// in its table emits.
#[doc(hidden)]
pub mod laws {
    use crate::SnapshotDiffError;
    use std::fmt::Debug;

    /// Stream `round` of arbitrary values off the suite seed
    /// (`IQS_TEST_SEED`, so a rotated seed reaches these tests too),
    /// each below 2^62 so that two of them — or a histogram's 64 counts,
    /// each shifted down by 8 — add without saturating.
    pub fn values(round: u64) -> impl FnMut() -> u64 {
        let mut state = iqs_testkit::seed::suite_seed() ^ round;
        move || {
            state = iqs_testkit::seed::derive(state, "counter-set-laws");
            state >> 2
        }
    }

    /// For arbitrary `a` and `b`: `merge` then `minus` recovers the
    /// operand, except that level series keep the later value; the
    /// swapped pair is refused under a declared field's name; and
    /// `exposition` (of `a`) opens no family and samples no series twice.
    pub fn check<S: Clone + PartialEq + Debug>(
        a: &S,
        b: &S,
        fields: &[&str],
        merge: fn(&mut S, &S),
        minus: fn(&S, &S) -> Result<S, SnapshotDiffError>,
        exposition: &str,
    ) {
        let mut ab = a.clone();
        merge(&mut ab, b);
        let back = minus(&ab, b).expect("a merged snapshot is later than its operand");
        // No delta series of either shrinks against the other: they are equal.
        assert!(
            minus(&back, a).is_ok() && minus(a, &back).is_ok(),
            "{back:?} lost a delta of {a:?}"
        );
        // A self-diff zeroes the deltas and keeps the levels.
        assert_eq!(minus(&back, &back), minus(&ab, &ab), "a level series lost the later value");
        let refused = minus(a, &ab).expect_err("the swapped pair reads as an interval");
        assert!(fields.contains(&refused.field), "{refused}");

        let mut seen = Vec::new();
        for line in exposition.lines().filter(|line| !line.starts_with("# TYPE ")) {
            // `# HELP family` identifies a family, `name{labels}` a series.
            let words = if line.starts_with('#') { 3 } else { 1 };
            let id: Vec<&str> = line.split(' ').take(words).collect();
            assert!(!seen.contains(&id), "{id:?} occurs twice in:\n{exposition}");
            seen.push(id);
        }
    }

    /// `value` serializes to a JSON object whose keys are `fields`, in
    /// order, and parses back equal.
    pub fn json<T>(value: &T, fields: &[&str])
    where
        T: serde::Serialize + serde::Deserialize + PartialEq + Debug,
    {
        let mut json = String::new();
        value.serialize_json(&mut json);
        let mut at = 0;
        for field in fields {
            let key = format!("\"{field}\":");
            let found =
                json[at..].find(&key).unwrap_or_else(|| panic!("{key} misplaced in {json}"));
            at += found + key.len();
        }
        let back = T::deserialize_json(&mut serde::de::Parser::new(&json)).expect("own output");
        assert_eq!(&back, value, "JSON round trip of {json}");
    }
}

#[cfg(test)]
mod tests {
    use crate::{HistogramSnapshot, PromWriter, SlowLog, SnapshotDiffError};
    use std::sync::atomic::Ordering::Relaxed;
    use std::time::Duration;

    crate::counter_set! {
        #[derive(Default)]
        struct RoadCounters;
        #[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
        struct RoadSnapshot;
        laws roads_obey_the_laws [json];
        counters {
            tolls: delta => counter "road_tolls_total" [booth = "north"] "Tolls paid";
            waiting: level => gauge "road_waiting" "Vehicles waiting";
            unexported: delta;
        }
        histograms {
            crossing => "road_crossing_ns" "Crossing time (ns)", exemplars;
        }
    }

    #[test]
    fn generated_code_follows_the_table() {
        let live = RoadCounters::default();
        live.tolls.fetch_add(4, Relaxed);
        live.waiting.store(7, Relaxed);
        live.crossing.record(Duration::from_nanos(100));
        let earlier = live.snapshot();
        live.tolls.fetch_add(1, Relaxed);
        live.waiting.store(3, Relaxed);
        let later = live.snapshot();

        let interval = later.minus(&earlier).expect("later minus earlier");
        assert_eq!((interval.tolls, interval.waiting), (1, 3));
        assert_eq!(interval.crossing.count(), 0);

        // Pooling adds everything, levels included.
        let mut pooled = earlier.clone();
        pooled.merge(&later);
        assert_eq!((pooled.tolls, pooled.waiting, pooled.crossing.count()), (9, 10, 2));

        // Swapped: the scalar is named first, then a histogram with its
        // bucket — never an all-zero "idle" interval.
        assert_eq!(
            earlier.minus(&later),
            Err(SnapshotDiffError { field: "tolls", bucket: None, later: 4, earlier: 5 })
        );
        let mut slower = earlier.clone();
        slower.crossing.buckets[7] = 9;
        let err = earlier.minus(&slower).expect_err("bucket 7 shrank");
        assert_eq!((err.field, err.bucket), ("crossing", Some(7)));
        assert!(err.to_string().starts_with("crossing bucket 7 shrank from 9 to 1"));

        let slow = SlowLog::new(2);
        slow.observe(42, 100);
        let mut w = PromWriter::new();
        later.write_counters(&mut w);
        later.write_histograms(&mut w, Some(&slow));
        assert_eq!(
            w.finish(),
            "# HELP road_tolls_total Tolls paid\n\
             # TYPE road_tolls_total counter\n\
             road_tolls_total{booth=\"north\"} 5\n\
             # HELP road_waiting Vehicles waiting\n\
             # TYPE road_waiting gauge\n\
             road_waiting 3\n\
             # HELP road_crossing_ns Crossing time (ns)\n\
             # TYPE road_crossing_ns histogram\n\
             road_crossing_ns_bucket{le=\"128\"} 1 # {trace_id=\"42\"}\n\
             road_crossing_ns_bucket{le=\"+Inf\"} 1\n\
             road_crossing_ns_count 1\n"
        );
    }

    #[test]
    #[should_panic(expected = "occurs twice")]
    fn a_family_split_by_another_fails_the_law() {
        let text = "# HELP a x\n# TYPE a counter\na 1\n# HELP b x\n# HELP a x\na{k=\"v\"} 2\n";
        let (a, b) = (HistogramSnapshot::default(), HistogramSnapshot { buckets: [2; 64] });
        let (merge, minus) = (HistogramSnapshot::merge, HistogramSnapshot::minus);
        super::laws::check(&a, &b, &["histogram"], merge, minus, text);
    }
}
