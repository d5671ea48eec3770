//! The service's internal plumbing: a bounded MPMC request queue with
//! deadline-aware pickup, the pool of draw seats that bounds how many
//! requests run at once, and a one-shot reply cell, all on `std`
//! primitives only.
//!
//! The queue is deliberately *bounded with rejection*: when producers
//! outpace the worker pool the excess is refused at admission time
//! ([`BoundedQueue::try_push`] returns the item back) instead of queueing
//! unboundedly. Unbounded queues convert overload into unbounded latency
//! for *everyone*; admission control converts it into prompt `Overloaded`
//! errors for the excess while in-budget requests keep their latency
//! (`admission_control_rejects_when_queue_is_full` in `tests/service.rs`
//! holds the refusal and its accounting).
//!
//! Pickup order is earliest-deadline-first (EDF): an entry pushed with a
//! deadline ([`BoundedQueue::try_push_at`]) outranks every deadline-less
//! entry, earlier deadlines outrank later ones, and *ties resolve FIFO*
//! by admission sequence number. Deadline-less entries keep strict FIFO
//! among themselves, so a queue used without deadlines behaves exactly
//! as the plain bounded FIFO it used to be. Deadlines differ between
//! callers — a wire request carries its remaining budget, a probe none —
//! and EDF is what keeps a backlog of late-deadline work from delaying a
//! tighter-deadline request past the one entry a worker has already
//! picked up (non-preemptive EDF's one-quantum bound).
//!
//! # Seats
//!
//! The queue also owns the service's *seats* — the fixed set of per-draw
//! states (one per configured worker) a request needs in order to run.
//! A seat leaves the pool in exactly two ways, both under the queue
//! lock: [`BoundedQueue::pop`] hands a worker the most urgent entry
//! *together with* a free seat (an entry stays queued, in EDF order,
//! until both exist), and [`BoundedQueue::try_seat`] hands a caller a
//! seat only while nothing is queued. So at most `seats` requests run at
//! any instant however many threads ask, and a queued entry is never
//! overtaken by a later seat-taker. Whoever holds a seat gives it back
//! with [`BoundedQueue::put_seat`]; [`BoundedQueue::wait_seats_home`] is
//! how shutdown learns the last one is back.
//!
//! Lock poisoning: the lock guards plain data and is never held while a
//! request runs (seats are *moved out* for that), so no request panic
//! can poison it. A poisoned lock therefore means a bug in this module,
//! and every method propagates it as a panic rather than recovering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushRefused<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue was closed for shutdown; the item is handed back.
    Closed(T),
}

/// A queue entry: the item plus its EDF priority key. Ordering is by
/// `(deadline, seq)` only — earlier deadline first, `None` after every
/// `Some` (no deadline = infinitely late deadline), ties FIFO by `seq`.
/// `BinaryHeap` is a max-heap, so the comparison is inverted: the most
/// urgent entry is the *greatest*.
struct Entry<T> {
    deadline: Option<Instant>,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_deadline = match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => Ordering::Greater,
            (None, Some(_)) => Ordering::Less,
            (None, None) => Ordering::Equal,
        };
        by_deadline.then_with(|| other.seq.cmp(&self.seq))
    }
}

struct QueueInner<T, S> {
    items: BinaryHeap<Entry<T>>,
    next_seq: u64,
    closed: bool,
    /// Seats nobody is running on; the last one returned is taken first.
    free: Vec<S>,
}

/// A bounded multi-producer multi-consumer queue with EDF pickup, plus
/// the seat pool (module docs). Producers never block (they are refused
/// instead); consumers block until an item *and* a seat are available or
/// the queue is closed and drained. Entries without deadlines dequeue in
/// strict FIFO order.
pub(crate) struct BoundedQueue<T, S> {
    inner: Mutex<QueueInner<T, S>>,
    /// Consumers wait here for "an item and a free seat"; shutdown waits
    /// here for "every seat home".
    changed: Condvar,
    capacity: usize,
    seats: usize,
}

impl<T, S> BoundedQueue<T, S> {
    /// A queue over `seats`, taken from the back of the vector first.
    pub(crate) fn new(capacity: usize, seats: Vec<S>) -> Self {
        BoundedQueue {
            seats: seats.len(),
            inner: Mutex::new(QueueInner {
                items: BinaryHeap::with_capacity(capacity),
                next_seq: 0,
                closed: false,
                free: seats,
            }),
            changed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item` with no deadline (lowest EDF priority, FIFO among
    /// its peers), or refuses it without blocking.
    #[cfg(test)]
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushRefused<T>> {
        self.try_push_at(item, None)
    }

    /// Enqueues `item` with an optional deadline for EDF pickup, or
    /// refuses it without blocking.
    pub(crate) fn try_push_at(
        &self,
        item: T,
        deadline: Option<Instant>,
    ) -> Result<(), PushRefused<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushRefused::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushRefused::Full(item));
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.items.push(Entry { deadline, seq, item });
        drop(inner);
        self.changed.notify_one();
        Ok(())
    }

    /// Dequeues the most urgent item (EDF, FIFO on ties) together with a
    /// free seat, blocking until both exist. Returns `None` once the
    /// queue is closed and fully drained — the worker-exit signal that
    /// makes shutdown drain in-flight work.
    pub(crate) fn pop(&self) -> Option<(T, S)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if inner.items.is_empty() {
                if inner.closed {
                    return None;
                }
            } else if let Some(seat) = inner.free.pop() {
                let entry = inner.items.pop().expect("checked non-empty");
                return Some((entry.item, seat));
            }
            inner = self.changed.wait(inner).expect("queue poisoned");
        }
    }

    /// A free seat for a caller that wants to run its own request, or
    /// `None` when it must queue instead: something is already queued
    /// (it goes first), every seat is taken, or the queue is closed.
    pub(crate) fn try_seat(&self) -> Option<S> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed || !inner.items.is_empty() {
            return None;
        }
        inner.free.pop()
    }

    /// Returns a seat taken by [`BoundedQueue::pop`] or
    /// [`BoundedQueue::try_seat`].
    pub(crate) fn put_seat(&self, seat: S) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.free.push(seat);
        let (waiting, closed) = (!inner.items.is_empty(), inner.closed);
        drop(inner);
        if closed {
            self.changed.notify_all();
        } else if waiting {
            self.changed.notify_one();
        }
    }

    /// Closes the queue: further pushes and seat requests are refused,
    /// consumers drain the backlog and then observe `None`.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.changed.notify_all();
    }

    /// Blocks until every seat is back in the pool. Called after
    /// [`BoundedQueue::close`], so no seat can leave again once the
    /// backlog is drained.
    pub(crate) fn wait_seats_home(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        while inner.free.len() < self.seats {
            inner = self.changed.wait(inner).expect("queue poisoned");
        }
    }

    /// Current backlog length.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }
}

/// A single-use reply cell: the worker fulfills it once; the requesting
/// client blocks on [`OneShot::wait`] until it does.
pub(crate) struct OneShot<T> {
    cell: Arc<(Mutex<Option<T>>, Condvar)>,
}

impl<T> Clone for OneShot<T> {
    fn clone(&self) -> Self {
        OneShot { cell: Arc::clone(&self.cell) }
    }
}

impl<T> OneShot<T> {
    pub(crate) fn new() -> Self {
        OneShot { cell: Arc::new((Mutex::new(None), Condvar::new())) }
    }

    /// Fulfills the cell and wakes the waiter. A second fulfillment is
    /// ignored (the first response wins).
    pub(crate) fn put(&self, value: T) {
        let mut slot = self.cell.0.lock().expect("oneshot poisoned");
        if slot.is_none() {
            *slot = Some(value);
        }
        drop(slot);
        self.cell.1.notify_all();
    }

    /// Blocks until the cell is fulfilled and takes the value.
    pub(crate) fn wait(&self) -> T {
        let mut slot = self.cell.0.lock().expect("oneshot poisoned");
        loop {
            if let Some(value) = slot.take() {
                return value;
            }
            slot = self.cell.1.wait(slot).expect("oneshot poisoned");
        }
    }

    /// Blocks until the cell is fulfilled or `deadline` passes on
    /// `clock`'s timeline. Returns `None` on timeout; the cell is left
    /// intact, so a fulfillment that races the deadline is simply
    /// abandoned with it. Under a virtual clock the condvar wait polls
    /// ([`iqs_testkit::ClockHandle::wait_budget`]) so the deadline is
    /// re-read against virtual time after every quantum.
    pub(crate) fn wait_deadline(
        &self,
        deadline: std::time::Instant,
        clock: &iqs_testkit::ClockHandle,
    ) -> Option<T> {
        let mut slot = self.cell.0.lock().expect("oneshot poisoned");
        loop {
            if let Some(value) = slot.take() {
                return Some(value);
            }
            let now = clock.now();
            if now >= deadline {
                return None;
            }
            let (s, _timed_out) = self
                .cell
                .1
                .wait_timeout(slot, clock.wait_budget(deadline - now))
                .expect("oneshot poisoned");
            slot = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue over one unit seat.
    fn queue<T>(capacity: usize) -> BoundedQueue<T, ()> {
        BoundedQueue::new(capacity, vec![()])
    }

    /// Pops as a worker does and gives the seat straight back.
    fn take<T>(q: &BoundedQueue<T, ()>) -> Option<T> {
        let (item, seat) = q.pop()?;
        q.put_seat(seat);
        Some(item)
    }

    #[test]
    fn fifo_order_and_capacity() {
        let q = queue(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(matches!(q.try_push(3), Err(PushRefused::Full(3))));
        assert_eq!(q.len(), 2);
        assert_eq!(take(&q), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(take(&q), Some(2));
        assert_eq!(take(&q), Some(3));
    }

    #[test]
    fn edf_orders_by_deadline_with_fifo_ties_and_none_last() {
        use std::time::Duration;
        let base = Instant::now();
        let q = queue(8);
        q.try_push_at("no-deadline-a", None).unwrap();
        q.try_push_at("late", Some(base + Duration::from_secs(30))).unwrap();
        q.try_push_at("tie-first", Some(base + Duration::from_secs(10))).unwrap();
        q.try_push_at("tie-second", Some(base + Duration::from_secs(10))).unwrap();
        q.try_push_at("early", Some(base + Duration::from_secs(1))).unwrap();
        q.try_push_at("no-deadline-b", None).unwrap();
        assert_eq!(take(&q), Some("early"));
        assert_eq!(take(&q), Some("tie-first"), "deadline ties resolve FIFO");
        assert_eq!(take(&q), Some("tie-second"));
        assert_eq!(take(&q), Some("late"));
        assert_eq!(take(&q), Some("no-deadline-a"), "deadline-less entries rank last, FIFO");
        assert_eq!(take(&q), Some("no-deadline-b"));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = queue(4);
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        q.close();
        assert!(matches!(q.try_push(12), Err(PushRefused::Closed(12))));
        assert_eq!(take(&q), Some(10));
        assert_eq!(take(&q), Some(11));
        assert_eq!(take(&q), None);
        assert_eq!(take(&q), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_close() {
        let q = Arc::new(queue(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = take(&q2) {
                got.push(v);
            }
            got
        });
        for v in 0..100 {
            while q.try_push(v).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    /// The seat rules of the module docs: a caller gets a seat only
    /// while nothing is queued, a queued item leaves only with a seat,
    /// and close refuses new seat-takers but lets the backlog drain.
    #[test]
    fn seats_bound_runners_and_never_overtake_the_queue() {
        let q: Arc<BoundedQueue<u32, &str>> = Arc::new(BoundedQueue::new(4, vec!["b", "a"]));
        assert_eq!(q.try_seat(), Some("a"), "the back of the vector goes first");
        assert_eq!(q.try_seat(), Some("b"));
        assert_eq!(q.try_seat(), None, "every seat is taken");
        q.try_push(7).unwrap();
        let q2 = Arc::clone(&q);
        let worker = std::thread::spawn(move || q2.pop());
        q.put_seat("a");
        assert_eq!(worker.join().unwrap(), Some((7, "a")), "the queued item got the freed seat");
        q.put_seat("b");
        q.try_push(8).unwrap();
        assert_eq!(q.try_seat(), None, "a caller never overtakes a queued item");
        q.close();
        assert_eq!(q.try_seat(), None, "a closed queue seats no new caller");
        assert_eq!(q.pop(), Some((8, "b")), "the backlog still drains");
        let q2 = Arc::clone(&q);
        let shutdown = std::thread::spawn(move || q2.wait_seats_home());
        q.put_seat("a");
        q.put_seat("b");
        shutdown.join().unwrap();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn oneshot_delivers_across_threads() {
        let cell = OneShot::new();
        let tx = cell.clone();
        let t = std::thread::spawn(move || tx.put(41));
        assert_eq!(cell.wait(), 41);
        t.join().unwrap();
        // Duplicate put is ignored, not an error.
        cell.put(42);
    }

    #[test]
    fn oneshot_wait_deadline_times_out_then_delivers() {
        use std::time::{Duration, Instant};
        let clock = iqs_testkit::ClockHandle::real();
        let cell: OneShot<u32> = OneShot::new();
        // Nothing delivered: times out.
        let t0 = Instant::now();
        assert_eq!(cell.wait_deadline(t0 + Duration::from_millis(20), &clock), None);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // Delivered before the deadline: returned promptly.
        cell.put(7);
        assert_eq!(cell.wait_deadline(Instant::now() + Duration::from_secs(5), &clock), Some(7));
        // Already-elapsed deadline with an empty cell: immediate None.
        assert_eq!(cell.wait_deadline(Instant::now() - Duration::from_millis(1), &clock), None);
    }

    #[test]
    fn oneshot_wait_deadline_tracks_a_virtual_clock() {
        use iqs_testkit::VirtualClock;
        use std::time::Duration;
        let vc = VirtualClock::new();
        let clock = vc.handle();
        let cell: OneShot<u32> = OneShot::new();
        // Deadline already reached on the frozen timeline: immediate None.
        assert_eq!(cell.wait_deadline(clock.now(), &clock), None);
        // A waiter against a future virtual deadline wakes when another
        // thread advances past it — no real time needs to pass.
        let deadline = clock.now() + Duration::from_secs(3600);
        let waiter_clock = clock.clone();
        let waiter_cell = cell.clone();
        let waiter = std::thread::spawn(move || waiter_cell.wait_deadline(deadline, &waiter_clock));
        vc.advance(Duration::from_secs(3601));
        assert_eq!(waiter.join().unwrap(), None);
        // Fulfillment still wins over an unexpired virtual deadline.
        cell.put(9);
        assert_eq!(cell.wait_deadline(clock.now() + Duration::from_secs(1), &clock), Some(9));
    }
}
