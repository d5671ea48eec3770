use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

/// Cumulative I/O counters of an [`EmMachine`].
///
/// `reads`/`writes` are block *transfers* (the EM cost metric).
/// `hits`/`misses` classify every buffer-pool **touch**, and a touch is
/// what the model charges for: one per block per sequential run (a
/// [`EmArray::scan`] over `k` blocks is `k` touches however many items it
/// yields), one per call for the single-item [`EmArray::get`] /
/// [`EmArray::set`]. So `hits / (hits + misses)` is the share of *block
/// accesses* served without a transfer, not of items. `misses ≥ reads`: a
/// write-allocate miss with no-fetch installs a frame without a read
/// transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct IoStats {
    /// Blocks read from disk into the buffer pool.
    pub reads: u64,
    /// Dirty blocks written back to disk.
    pub writes: u64,
    /// Block touches served from a resident frame (no transfer).
    pub hits: u64,
    /// Block touches that faulted (installed a frame).
    pub misses: u64,
}

impl IoStats {
    /// Total block transfers.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of block touches served from resident frames, in
    /// `[0, 1]`. Reports `0.0` before any touch.
    pub fn hit_rate(&self) -> f64 {
        let touches = self.hits + self.misses;
        if touches == 0 {
            return 0.0;
        }
        self.hits as f64 / touches as f64
    }

    /// Counter-wise difference `self - earlier` — the I/O performed
    /// between two snapshots of one machine's counters. The interval
    /// form lets several meters share one machine without resetting it
    /// (mirrors `HistogramSnapshot::minus` on the serve tier).
    ///
    /// # Errors
    /// [`IoStatsDiffError`] when any counter of `earlier` exceeds the
    /// corresponding counter of `self` — the snapshots are not an
    /// (earlier, later) pair of the same monotone counters, i.e. a
    /// swapped-argument bug that must not read as "an idle interval".
    pub fn minus(&self, earlier: &IoStats) -> Result<IoStats, IoStatsDiffError> {
        for (counter, later, early) in [
            ("reads", self.reads, earlier.reads),
            ("writes", self.writes, earlier.writes),
            ("hits", self.hits, earlier.hits),
            ("misses", self.misses, earlier.misses),
        ] {
            if early > later {
                return Err(IoStatsDiffError { counter, later, earlier: early });
            }
        }
        Ok(IoStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        })
    }

    /// Counter-wise sum `self + other`, pooling the I/O of several
    /// machines (or intervals) into one view. Saturates at `u64::MAX`.
    pub fn plus(&self, other: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_add(other.reads),
            writes: self.writes.saturating_add(other.writes),
            hits: self.hits.saturating_add(other.hits),
            misses: self.misses.saturating_add(other.misses),
        }
    }
}

/// An I/O-counter diff was asked of two snapshots that are not an
/// (earlier, later) pair: some counter shrank between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoStatsDiffError {
    /// Name of the first offending counter.
    pub counter: &'static str,
    /// That counter's value in the (claimed) later snapshot.
    pub later: u64,
    /// That counter's value in the (claimed) earlier snapshot.
    pub earlier: u64,
}

impl fmt::Display for IoStatsDiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "I/O counter `{}` shrank from {} to {}: snapshots are not an (earlier, later) pair",
            self.counter, self.earlier, self.later
        )
    }
}

impl std::error::Error for IoStatsDiffError {}

/// Identity of a block: (array id, block index within the array).
type BlockKey = (u32, u64);

/// End of a recency list.
const NIL: u32 = u32::MAX;

/// A resident block: its key, whether it must be written back, and its
/// neighbours in the recency list (`prev` is more recent).
#[derive(Debug, Clone, Copy)]
struct Frame {
    key: BlockKey,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// The key → frame map's hasher: one multiply-rotate per word. Block
/// keys are small dense integers chosen by the machine itself, so they
/// need mixing, not flooding resistance (std's default SipHash costs
/// several times as much per probe).
#[derive(Debug, Default, Clone, Copy)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The buffer pool: `capacity` frames under strict least-recently-used
/// eviction, the model's textbook default.
///
/// A frame table: the resident blocks sit in `frames`, linked by index
/// into one doubly linked recency list (`head` most recent, `tail` the
/// victim), and `slots` maps a key to its frame. A touch is O(1) on a
/// hit and on a miss; frames freed by [`Pool::discard_array`] wait on
/// `free` for the next fault.
#[derive(Debug)]
struct Pool {
    /// Number of block frames the memory holds (`M / B`).
    capacity: usize,
    frames: Vec<Frame>,
    slots: HashMap<BlockKey, u32, BuildHasherDefault<BlockHasher>>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
    stats: IoStats,
    next_array: u32,
}

impl Pool {
    fn new(capacity: usize) -> Self {
        Pool {
            capacity,
            frames: Vec::new(),
            slots: HashMap::default(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            stats: IoStats::default(),
            next_array: 0,
        }
    }

    /// Touches `key`; faults it in (counting a read unless `no_fetch`) if
    /// absent, makes it the most recent block, marks it dirty if `write`.
    /// Evicting a dirty block counts a write. `no_fetch` models
    /// write-allocate of a block the caller fully overwrites: no read
    /// transfer is needed.
    fn touch(&mut self, key: BlockKey, write: bool, no_fetch: bool) {
        if let Some(&slot) = self.slots.get(&key) {
            self.stats.hits += 1;
            self.frames[slot as usize].dirty |= write;
            if slot != self.head {
                self.unlink(slot);
                self.push_front(slot);
            }
            return;
        }
        // Fault: evict the least recent block if full.
        self.stats.misses += 1;
        let frame = Frame { key, dirty: write, prev: NIL, next: NIL };
        let slot = if self.slots.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let old = std::mem::replace(&mut self.frames[victim as usize], frame);
            self.slots.remove(&old.key);
            if old.dirty {
                self.stats.writes += 1;
            }
            victim
        } else if let Some(slot) = self.free.pop() {
            self.frames[slot as usize] = frame;
            slot
        } else {
            self.frames.push(frame);
            u32::try_from(self.frames.len() - 1).expect("frame index fits u32")
        };
        if !no_fetch {
            self.stats.reads += 1;
        }
        self.push_front(slot);
        self.slots.insert(key, slot);
    }

    /// Takes frame `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Frame { prev, next, .. } = self.frames[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.frames[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frames[n as usize].prev = prev,
        }
    }

    /// Links frame `slot` in as the most recent.
    fn push_front(&mut self, slot: u32) {
        let old = self.head;
        self.frames[slot as usize].prev = NIL;
        self.frames[slot as usize].next = old;
        match old {
            NIL => self.tail = slot,
            o => self.frames[o as usize].prev = slot,
        }
        self.head = slot;
    }

    fn flush(&mut self) {
        let dirty = self.slots.values().filter(|&&slot| self.frames[slot as usize].dirty).count();
        self.stats.writes += dirty as u64;
        self.frames.clear();
        self.slots.clear();
        self.free.clear();
        (self.head, self.tail) = (NIL, NIL);
    }

    /// Drops an array's blocks without counting write-backs (the array is
    /// being destroyed, e.g. a sort scratch file).
    fn discard_array(&mut self, array: u32) {
        let mut slot = self.head;
        while slot != NIL {
            let Frame { key, next, .. } = self.frames[slot as usize];
            if key.0 == array {
                self.unlink(slot);
                self.slots.remove(&key);
                self.free.push(slot);
            }
            slot = next;
        }
    }
}

/// The Aggarwal–Vitter machine: a buffer pool of `M/B` frames over an
/// unbounded block-addressed disk, counting block transfers. All
/// [`EmArray`]s created from one machine share its memory — exactly the
/// model's single-memory semantics.
///
/// The machine is `Send + Sync` (the pool sits behind a mutex), so a
/// cold-tier index can be served from a multi-threaded worker pool. The
/// pool is locked once per sequential run (or single-item access), and
/// charged one touch per block of the run.
///
/// # Example
/// ```
/// use iqs_em::EmMachine;
///
/// // M = 8 blocks of memory, B = 64 words per block.
/// let machine = EmMachine::new(8 * 64, 64);
/// let arr = machine.array_from((0..640u64).collect::<Vec<_>>());
/// machine.reset_stats();
/// let sum: u64 = arr.scan(0, 640, |items| items.iter().sum()); // sequential run
/// assert_eq!(sum, 639 * 640 / 2);
/// let stats = machine.stats();
/// assert_eq!(stats.reads, 10); // 640 items / 64 per block
/// assert_eq!(stats.hits + stats.misses, 10); // one touch per block
/// ```
#[derive(Debug, Clone)]
pub struct EmMachine {
    pool: Arc<Mutex<Pool>>,
    /// Block size in words (`B`). A constant of the machine, kept
    /// outside the pool mutex so block arithmetic never locks.
    block_words: usize,
}

impl EmMachine {
    /// Creates a machine with `mem_words` words of memory (`M`) and
    /// `block_words` words per block (`B`), with LRU eviction.
    ///
    /// # Panics
    /// Panics unless `M ≥ 2B` and `B ≥ 1` (the model's own requirement).
    pub fn new(mem_words: usize, block_words: usize) -> Self {
        assert!(block_words >= 1, "block size must be positive");
        assert!(mem_words >= 2 * block_words, "EM model requires M >= 2B");
        EmMachine { block_words, pool: Arc::new(Mutex::new(Pool::new(mem_words / block_words))) }
    }

    fn pool(&self) -> std::sync::MutexGuard<'_, Pool> {
        self.pool.lock().expect("EM buffer pool poisoned")
    }

    /// Block size `B` in words.
    pub fn block_words(&self) -> usize {
        self.block_words
    }

    /// Number of buffer frames `M/B`.
    pub fn frame_count(&self) -> usize {
        self.pool().capacity
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> IoStats {
        self.pool().stats
    }

    /// Resets the I/O counters (keeps the buffer contents).
    pub fn reset_stats(&self) {
        self.pool().stats = IoStats::default();
    }

    /// Empties the buffer pool, writing back dirty blocks (counted).
    pub fn flush(&self) {
        self.pool().flush();
    }

    /// Creates a disk-resident array from the given items. The initial
    /// placement is free (it models data that is already on disk);
    /// subsequent accesses are counted.
    pub fn array_from<T: Copy>(&self, items: Vec<T>) -> EmArray<T> {
        let id = {
            let mut pool = self.pool();
            let id = pool.next_array;
            pool.next_array += 1;
            id
        };
        EmArray {
            machine: self.clone(),
            id,
            len: items.len(),
            items_per_block: self.items_per_block::<T>(),
            data: Mutex::new(items),
        }
    }

    /// Items of `T` one block holds: an item occupies
    /// `⌈size_of::<T>() / 8⌉` words, and a block at least one item.
    pub(crate) fn items_per_block<T>(&self) -> usize {
        let words_per_item = std::mem::size_of::<T>().div_ceil(8).max(1);
        (self.block_words / words_per_item).max(1)
    }
}

/// A disk-resident array of `Copy` items. Every access faults the
/// containing block through the machine's buffer pool, so a sequential
/// run costs `⌈k/B⌉` I/Os while scattered accesses cost up to one I/O
/// each — the asymmetry at the heart of Section 8.
///
/// The pool is charged the way the model charges: the run calls
/// ([`EmArray::scan`], [`EmArray::read_range`], [`EmArray::write_fresh`],
/// [`EmArray::mark_written`]) touch every block of their run **once**,
/// in order, under one pool lock; the single-item calls
/// ([`EmArray::get`], [`EmArray::set`]) touch one block per call and are
/// for genuinely random access.
///
/// Like the machine, arrays are `Send + Sync` (for `T: Send`): the
/// simulated disk contents sit behind their own mutex, taken after the
/// pool lock is released, so concurrent readers serialize per array but
/// never deadlock against the pool.
#[derive(Debug)]
pub struct EmArray<T: Copy> {
    machine: EmMachine,
    id: u32,
    len: usize,
    items_per_block: usize,
    data: Mutex<Vec<T>>,
}

impl<T: Copy> EmArray<T> {
    fn data(&self) -> std::sync::MutexGuard<'_, Vec<T>> {
        self.data.lock().expect("EM array contents poisoned")
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items per block for this element type.
    pub fn items_per_block(&self) -> usize {
        self.items_per_block
    }

    /// Touches each block of the item run `[start, end)` once, in order,
    /// under one pool lock.
    fn touch_run(&self, start: usize, end: usize, write: bool, no_fetch: bool) {
        assert!(start <= end && end <= self.len, "bad run [{start},{end}) of {}", self.len);
        if start == end {
            return;
        }
        let (first, last) = (start / self.items_per_block, (end - 1) / self.items_per_block);
        let mut pool = self.machine.pool();
        for block in first..=last {
            pool.touch((self.id, block as u64), write, no_fetch);
        }
    }

    /// Reads item `index` (counts an I/O on a buffer miss).
    pub fn get(&self, index: usize) -> T {
        self.touch_run(index, index + 1, false, false);
        self.data()[index]
    }

    /// Writes item `index` (counts an I/O on a buffer miss; the dirty
    /// block costs another I/O when evicted or flushed).
    pub fn set(&self, index: usize, value: T) {
        self.touch_run(index, index + 1, true, false);
        self.data()[index] = value;
    }

    /// Sequential read of the run `[start, end)`: `⌈len/B⌉` I/Os when the
    /// run is block-aligned and cold. `f` sees the run as one slice, under
    /// the array's data lock — it must not access this array.
    pub fn scan<R>(&self, start: usize, end: usize, f: impl FnOnce(&[T]) -> R) -> R {
        self.touch_run(start, end, false, false);
        f(&self.data()[start..end])
    }

    /// [`EmArray::scan`] into a fresh `Vec`.
    pub fn read_range(&self, start: usize, end: usize) -> Vec<T> {
        self.scan(start, end, <[T]>::to_vec)
    }

    /// Sequential overwrite of the run starting at `start` with `items`
    /// (sequential output): a missing block is installed dirty without a
    /// read transfer — write-allocate-no-fetch, as a real buffer manager
    /// does for append-style writes. The eventual write-back is counted.
    pub fn write_fresh(&self, start: usize, items: &[T]) {
        let end = start + items.len();
        self.touch_run(start, end, true, true);
        self.data()[start..end].copy_from_slice(items);
    }

    /// Sequential append of `items` after the array's last item, charged
    /// as [`EmArray::write_fresh`] charges a run: how a scatter pass
    /// writes a bucket whose length it learns only as items arrive.
    pub(crate) fn append(&mut self, items: &[T]) {
        let start = self.len;
        self.data.get_mut().expect("EM array contents poisoned").extend_from_slice(items);
        self.len += items.len();
        self.touch_run(start, self.len, true, true);
    }

    /// Marks the blocks of the run `[start, end)` dirty without a read
    /// transfer and without changing the values — the sequential write
    /// pass of data that is already materialized (e.g. freshly generated
    /// pairs handed to [`EmMachine::array_from`], whose placement is free).
    pub fn mark_written(&self, start: usize, end: usize) {
        self.touch_run(start, end, true, true);
    }

    /// Sequential map-copy `dst[i] = f(self[i])` of the whole array into
    /// an equally long `dst`. The two streams advance together; a segment
    /// ends at the next block boundary of either, so the pool sees the
    /// block order an item-by-item copy would produce, one touch per
    /// block per segment.
    pub(crate) fn emit_into<U: Copy>(&self, dst: &EmArray<U>, f: impl Fn(T) -> U) {
        assert_eq!(self.len, dst.len, "emit between arrays of different lengths");
        let block_end = |i: usize, per_block: usize| (i / per_block + 1) * per_block;
        let mut segment = Vec::new();
        let mut start = 0;
        while start < self.len {
            let end = block_end(start, self.items_per_block)
                .min(block_end(start, dst.items_per_block))
                .min(self.len);
            segment.clear();
            self.scan(start, end, |items| segment.extend(items.iter().map(|&v| f(v))));
            dst.write_fresh(start, &segment);
            start = end;
        }
    }

    /// Destroys the array, dropping its buffered blocks without counting
    /// write-backs (scratch-file semantics).
    pub fn discard(self) {
        self.drop_blocks();
    }

    /// [`Self::discard`] for an array its owner cannot move out of.
    pub(crate) fn drop_blocks(&self) {
        self.machine.pool().discard_array(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn rejects_tiny_memory() {
        EmMachine::new(10, 8);
    }

    #[test]
    fn machine_and_arrays_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EmMachine>();
        assert_send_sync::<EmArray<f64>>();
        assert_send_sync::<EmArray<(f64, u64)>>();
    }

    #[test]
    fn sequential_scan_costs_n_over_b() {
        let m = EmMachine::new(1024, 64);
        let a = m.array_from((0..6400u64).collect::<Vec<_>>());
        m.reset_stats();
        let mut acc = 0u64;
        for i in 0..6400 {
            acc = acc.wrapping_add(a.get(i));
        }
        assert!(acc > 0);
        assert_eq!(m.stats().reads, 100, "6400 items / 64 per block");
    }

    #[test]
    fn random_access_costs_one_io_each_when_memory_small() {
        let m = EmMachine::new(128, 64); // 2 frames only
        let n = 64 * 1024;
        let a = m.array_from(vec![1u64; n]);
        m.reset_stats();
        // Stride exactly one block so every access faults.
        for b in 0..1000 {
            a.get((b * 64) % n);
        }
        // Some repeats may hit; require at least 90% misses.
        assert!(m.stats().reads >= 900, "reads {}", m.stats().reads);
    }

    #[test]
    fn buffer_hits_are_free() {
        let m = EmMachine::new(1024, 64);
        let a = m.array_from(vec![0u64; 64]);
        m.reset_stats();
        for _ in 0..100 {
            a.get(0);
        }
        assert_eq!(m.stats().reads, 1);
        assert_eq!(m.stats().misses, 1);
        assert_eq!(m.stats().hits, 99);
        assert!((m.stats().hit_rate() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn dirty_eviction_counts_a_write() {
        let m = EmMachine::new(128, 64); // 2 frames
        let a = m.array_from(vec![0u64; 64 * 4]);
        m.reset_stats();
        a.set(0, 7); // block 0 dirty
        a.get(64); // block 1
        a.get(128); // block 2 -> evicts block 0 (dirty)
        assert_eq!(m.stats().writes, 1);
        assert_eq!(a.get(0), 7, "data survives eviction");
    }

    #[test]
    fn flush_writes_back_dirty_blocks() {
        let m = EmMachine::new(1024, 64);
        let a = m.array_from(vec![0u64; 256]);
        m.reset_stats();
        a.set(0, 1);
        a.set(100, 2);
        m.flush();
        assert_eq!(m.stats().writes, 2);
        m.flush();
        assert_eq!(m.stats().writes, 2, "clean blocks not rewritten");
    }

    #[test]
    fn wide_items_pack_fewer_per_block() {
        let m = EmMachine::new(1024, 64);
        let a: EmArray<(u64, u64)> = m.array_from(vec![(0, 0); 10]);
        assert_eq!(a.items_per_block(), 32);
    }

    #[test]
    fn lru_eviction_order() {
        let m = EmMachine::new(192, 64); // 3 frames
        let a = m.array_from(vec![0u64; 64 * 4]);
        m.reset_stats();
        a.get(0); // block 0
        a.get(64); // block 1
        a.get(128); // block 2
        a.get(0); // refresh block 0
        a.get(192); // block 3: must evict block 1 (LRU)
        m.reset_stats();
        a.get(0); // hit
        a.get(128); // hit
        assert_eq!(m.stats().reads, 0);
        a.get(64); // miss (was evicted)
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn discard_skips_writeback() {
        let m = EmMachine::new(1024, 64);
        let a = m.array_from(vec![0u64; 64]);
        m.reset_stats();
        a.set(0, 9);
        a.discard();
        m.flush();
        assert_eq!(m.stats().writes, 0);
    }

    #[test]
    fn stats_interval_diff_and_error() {
        let m = EmMachine::new(1024, 64);
        let a = m.array_from(vec![0u64; 256]);
        m.reset_stats();
        a.get(0);
        let before = m.stats();
        a.get(64);
        a.get(64);
        let delta = m.stats().minus(&before).expect("later minus earlier");
        assert_eq!(delta, IoStats { reads: 1, writes: 0, hits: 1, misses: 1 });
        assert_eq!(delta.total(), 1);
        // Swapped arguments surface as an error naming the counter.
        let err = before.minus(&m.stats()).expect_err("earlier minus later");
        assert_eq!(err.counter, "reads");
        assert_eq!((err.earlier, err.later), (2, 1));
        assert!(err.to_string().contains("`reads`"));
        // Pooling saturates instead of overflowing.
        let big = IoStats { reads: u64::MAX, writes: 1, hits: 0, misses: 0 };
        assert_eq!(big.plus(&big).reads, u64::MAX);
    }

    #[test]
    fn stats_json_round_trip_is_exact() {
        let m = EmMachine::new(1024, 64);
        let a = m.array_from(vec![0u64; 256]);
        m.reset_stats();
        a.get(0);
        a.get(0);
        a.set(100, 5);
        m.flush();
        let stats = m.stats();
        let json = serde_json::to_string(&stats).expect("serializable");
        assert!(json.starts_with("{\"reads\":"), "unexpected shape: {json}");
        assert!(json.contains("\"hits\":1"), "missing hits: {json}");
        let back: IoStats = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, stats);
        // Malformed input surfaces a parse error, not a panic.
        assert!(serde_json::from_str::<IoStats>("{\"reads\":1").is_err());
    }
}
