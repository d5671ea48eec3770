//! Epoch-published snapshots: the cell that lets one writer republish an
//! index while arbitrarily many readers keep sampling, without ever
//! blocking a reader behind a rebuild.
//!
//! The IQS structures are immutable after construction, which makes
//! "dynamic" serving a publication problem rather than a locking problem:
//! a writer rebuilds a fresh structure *off to the side* (seconds of work
//! for a large index, none of it under any lock a reader touches) and then
//! publishes it with one pointer swap. Readers pin the structure
//! they are using with an [`Arc`] clone, so a published snapshot stays
//! alive until its last in-flight query drops it.
//!
//! The cell is one `Mutex<Arc<T>>` and a publication counter. The mutex
//! protects exactly one pointer-sized clone (a reader) or swap (a
//! writer), never a rebuild, so the critical section is a few
//! nanoseconds; the superseded value leaves the cell with the lock
//! already released, because freeing a view can be megabytes of work.
//! The cell itself holds only the current value. [`Snapshot::store`]
//! hands the superseded one to the writer, who drops it — then it lives
//! exactly as long as the readers that pinned it — or keeps it to build
//! the next value in its buffers once no reader holds it (what the
//! registry does for a dynamic range index).
//!
//! # Pins
//!
//! A reader that reads one cell over and over need not lock it every
//! time. [`Snapshot::read`] keeps a [`Pinned`] — the snapshot it last
//! loaded and the publication count it was current at — and hands it
//! back while one `Acquire` load of the count says nothing has been
//! published since; only a reader that finds the count moved takes the
//! lock and re-pins. The count is bumped after the swap, inside the same
//! critical section, so a store that has returned is seen by every read
//! that starts after it (a request admitted after an update answers from
//! the update's view), and a read racing a store answers from the
//! snapshot the store is replacing, as a load that took the lock first
//! would.
//!
//! A kept pin is a reader that never finishes: it keeps its snapshot
//! alive across publications. So whoever keeps pins must let go of the
//! ones that went stale ([`Pinned::is_current`]) before the superseded
//! snapshot is wanted back — the service's seats drop theirs when they
//! come home and when a publication finds them idle (`server` module
//! docs, "Pins").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A publication cell holding the current immutable snapshot of a value.
///
/// # Example
/// ```
/// use iqs_serve::Snapshot;
///
/// let cell = Snapshot::new(vec![1, 2, 3]);
/// let pinned = cell.load();       // readers pin snapshots
/// cell.store(vec![4, 5]);         // writers publish new ones
/// assert_eq!(*pinned, vec![1, 2, 3]);     // pinned view is unaffected
/// assert_eq!(*cell.load(), vec![4, 5]);   // new loads see the update
/// assert_eq!(cell.version(), 2);
/// let (version, superseded) = cell.store(vec![6]);   // … and get the old one back
/// assert_eq!((version, &*superseded), (3, &vec![4, 5]));
/// ```
#[derive(Debug)]
pub struct Snapshot<T> {
    current: Mutex<Arc<T>>,
    /// Publication count, bumped under `current`'s lock so version order
    /// is publication order even when stores race. Shared with every
    /// [`Pinned`] of this cell, so a pin can tell whether it is current
    /// without the cell, and which cell it belongs to.
    version: Arc<AtomicU64>,
}

/// A reader's kept hold on the snapshot it last read from one cell
/// ([`Snapshot::read`]): the snapshot and the publication count it was
/// current at (module docs, "Pins").
#[derive(Debug)]
pub struct Pinned<T> {
    version: u64,
    /// The cell's publication count.
    count: Arc<AtomicU64>,
    value: Arc<T>,
}

impl<T> Pinned<T> {
    /// Whether nothing has been published in the pinned snapshot's cell
    /// since it was pinned: one `Acquire` load.
    pub fn is_current(&self) -> bool {
        // Pairs with the `Release` half of `store`'s count bump, which
        // follows its swap: a reader that sees the old count was not
        // ordered after that store.
        self.count.load(Ordering::Acquire) == self.version
    }
}

impl<T> Snapshot<T> {
    /// Creates a cell publishing `value` as version 1.
    pub fn new(value: T) -> Self {
        Snapshot { current: Mutex::new(Arc::new(value)), version: Arc::new(AtomicU64::new(1)) }
    }

    /// Pins and returns the currently published snapshot. Never waits on
    /// a rebuild, only on another thread's pointer clone or swap.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.lock().expect("snapshot cell poisoned"))
    }

    /// The current snapshot through the reader's kept `pin`: the pinned
    /// one while it is current (one `Acquire` load, no lock, no count
    /// touched), otherwise — no pin yet, a pin of another cell, or a
    /// publication since — the cell's current one, pinned afresh in
    /// `pin` (module docs, "Pins").
    pub fn read<'p>(&self, pin: &'p mut Option<Pinned<T>>) -> &'p Arc<T> {
        let kept =
            pin.as_ref().is_some_and(|p| Arc::ptr_eq(&p.count, &self.version) && p.is_current());
        if !kept {
            let current = self.current.lock().expect("snapshot cell poisoned");
            // The count moves only under this lock: read here, it is the
            // one `current` was published as.
            let version = self.version.load(Ordering::Relaxed);
            let value = Arc::clone(&current);
            drop(current);
            // The old pin goes after the lock, with the reader: it may be
            // the last hold on a superseded snapshot.
            *pin = Some(Pinned { version, count: Arc::clone(&self.version), value });
        }
        &pin.as_ref().expect("pinned above").value
    }

    /// Publishes `value` as the new current snapshot; returns its
    /// version number and the superseded snapshot. A caller that lets
    /// the handle go releases the superseded value unless a reader
    /// pinned it; pinned snapshots are unaffected and free themselves
    /// when their last reader drops them.
    pub fn store(&self, value: T) -> (u64, Arc<T>) {
        let fresh = Arc::new(value);
        let mut current = self.current.lock().expect("snapshot cell poisoned");
        let superseded = std::mem::replace(&mut *current, fresh);
        let v = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        // The guard drops here, the superseded value after it, with the
        // caller: freeing a view can be megabytes of work.
        (v, superseded)
    }

    /// Number of publications so far (the initial value counts as 1).
    /// The service reports this as its snapshot-swap count.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_returns_latest_store() {
        let cell = Snapshot::new(1u32);
        assert_eq!(*cell.load(), 1);
        for i in 2..50u32 {
            cell.store(i);
            assert_eq!(*cell.load(), i);
        }
        assert_eq!(cell.version(), 49);
    }

    #[test]
    fn pinned_snapshots_survive_publication() {
        let cell = Snapshot::new(vec![0u8; 16]);
        let pinned = cell.load();
        for i in 0..100 {
            cell.store(vec![i; 16]);
        }
        assert_eq!(*pinned, vec![0u8; 16]);
    }

    #[test]
    fn concurrent_readers_always_see_consistent_values() {
        // Publish (k, 2k) pairs; readers must never observe a torn pair.
        let cell = Snapshot::new((0u64, 0u64));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let snap = cell.load();
                        assert_eq!(snap.1, 2 * snap.0);
                    }
                });
            }
            for k in 1..=20_000u64 {
                cell.store((k, 2 * k));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.version(), 20_001);
    }

    #[test]
    fn racing_stores_publish_in_version_order() {
        // Two writers that do not serialize with each other, released
        // together: the store that returned the higher version is the
        // one left current.
        let cell = Snapshot::new((0usize, 0usize));
        let start = std::sync::Barrier::new(2);
        for round in 1..=2_000usize {
            let versions: Vec<u64> = std::thread::scope(|scope| {
                let writers: Vec<_> = (0..2usize)
                    .map(|w| {
                        let (cell, start) = (&cell, &start);
                        scope.spawn(move || {
                            start.wait();
                            cell.store((w, round)).0
                        })
                    })
                    .collect();
                writers.into_iter().map(|h| h.join().expect("writer panicked")).collect()
            });
            let last = usize::from(versions[1] > versions[0]);
            assert_eq!(*cell.load(), (last, round), "versions {versions:?}");
        }
        assert_eq!(cell.version(), 4_001);
    }

    #[test]
    fn a_pin_is_read_until_the_next_publication() {
        let (cell, other) = (Snapshot::new(1u32), Snapshot::new(10u32));
        let mut pin = None;
        let first = Arc::clone(cell.read(&mut pin));
        assert!(Arc::ptr_eq(&first, cell.read(&mut pin)), "a current pin is handed back");
        assert_eq!(
            Arc::strong_count(&first),
            3,
            "the cell, the pin and `first`: no clone per read"
        );
        // A store that has returned is seen by the next read.
        cell.store(2);
        assert!(!pin.as_ref().unwrap().is_current());
        assert_eq!(**cell.read(&mut pin), 2);
        assert_eq!(Arc::strong_count(&first), 1, "re-pinning let the superseded value go");
        // A pin of another cell is never taken for this one's, even at
        // an equal publication count.
        other.store(20);
        assert_eq!(**other.read(&mut pin), 20);
        assert_eq!(**cell.read(&mut pin), 2);
    }

    #[test]
    fn store_releases_the_superseded_value() {
        // Nobody pins the first value: it dies with the handle `store`
        // returns.
        let cell = Snapshot::new(vec![1u8; 16]);
        let unpinned = Arc::downgrade(&cell.load());
        cell.store(vec![2u8; 16]);
        assert!(unpinned.upgrade().is_none(), "the cell must not retain a superseded value");
        // A reader's handle keeps a superseded value alive, and nothing
        // else does.
        let pinned = cell.load();
        let weak = Arc::downgrade(&pinned);
        cell.store(vec![3u8; 16]);
        assert_eq!(*weak.upgrade().expect("pinned by the reader"), vec![2u8; 16]);
        drop(pinned);
        assert!(weak.upgrade().is_none(), "the reader's handle was the last reference");
    }
}
