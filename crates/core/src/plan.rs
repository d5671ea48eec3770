//! The `O(log n)` half of a Theorem-3 query, owned and kept.
//!
//! A query over `[x, y]` first *plans* — two key searches, the tabled
//! cover of the chunk-aligned middle, one chooser over the boundary
//! elements and the cover — and then *draws*. The plan is a
//! deterministic function of the structure's content and of `x` and
//! `y`; the draws' independence comes from their fresh RNG words, not
//! from a fresh plan (§2 asks the same query again and again). So a
//! caller that keeps a [`QueryPlan`] and asks the same range again
//! spends that query on draws: [`ChunkedRange::sample_ids_planned`]
//! re-plans only when the plan's key does not match.
//!
//! [`ChunkedRange::sample_ids_planned`]: crate::ChunkedRange::sample_ids_planned

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use iqs_alias::pipeline::TILE;
use iqs_alias::{AliasRows, BuildScratch, WeightError};

/// Which content a [`ChunkedRange`](crate::ChunkedRange) holds, as a
/// plan's key sees it. Every way a structure gets new content — a
/// constructor, a re-weight (into a recycled spare too, which keeps its
/// address), a deserialization — takes a fresh stamp from one
/// process-wide counter; a clone keeps its original's, having the same
/// content. Never 0, the stamp of a plan that matches nothing.
///
/// `Debug` prints no number, so that two structures print alike exactly
/// when their content is alike.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Stamp(u64);

impl Stamp {
    /// A stamp no structure has had. `Relaxed`: the counter publishes
    /// nothing but its own values, and the read-modify-write hands each
    /// out once.
    pub(crate) fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Stamp(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// The key of a plan for `[x, y]` on the structure this stamps.
    pub(crate) fn key(&self, x: f64, y: f64) -> [u64; 3] {
        [self.0, x.to_bits(), y.to_bits()]
    }
}

/// A fresh stamp: what a deserialized structure, whose stamp is never
/// written, takes.
impl Default for Stamp {
    fn default() -> Self {
        Stamp::fresh()
    }
}

impl std::fmt::Debug for Stamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Stamp")
    }
}

/// One query's plan, owned and reusable: how it draws, its chooser, and
/// the buffers the chooser is built in, so that re-planning allocates
/// nothing once they are warm. It is keyed by the stamp of the structure
/// it was made for and the bits of `x` and `y`; a default plan, and one
/// whose planning failed, match nothing.
///
/// A plan holds no borrow: a caller keeps one beside its RNG — one per
/// thread of draws — and passes it to every query.
#[derive(Debug, Default)]
pub struct QueryPlan {
    /// `[stamp, x bits, y bits]`; a stamp of 0 matches no structure.
    pub(crate) key: [u64; 3],
    pub(crate) shape: Shape,
    /// The chooser's alias rows, one per column.
    pub(crate) chooser: Vec<u64>,
    /// By chooser column: the extra pieces' stand-ins (for a Theorem-3
    /// plan, one per boundary element of [`Ends`]), then the tabled nodes
    /// covering the range.
    pub(crate) pieces: Vec<Piece>,
    /// The columns' weights, the chooser's build input.
    pub(crate) weights: Vec<f64>,
    pub(crate) scratch: BuildScratch,
}

/// How a planned query draws.
#[derive(Debug)]
pub(crate) enum Shape {
    /// At most two chunks hold the range: the chooser is over its
    /// elements, the first of rank `base`; one word per draw.
    Short { base: u32 },
    /// Three words per draw through the one chooser.
    Pieces(Ends),
}

impl Default for Shape {
    fn default() -> Self {
        Shape::Pieces(Ends::default())
    }
}

/// The boundary elements of a query that spans whole chunks — the ranks
/// of `left`, then those of `right` — which are its chooser's extra
/// columns; the rest are the middle's `T_chunk` nodes.
#[derive(Debug, Default)]
pub(crate) struct Ends {
    pub(crate) left: Range<usize>,
    pub(crate) right: Range<usize>,
}

impl Ends {
    /// The rank a draw returns: the boundary element its chooser column
    /// `piece` stands for, or `middle`, the rank it drew through
    /// `T_chunk`. Arithmetic on values already in hand, so it compiles
    /// to selects.
    #[inline(always)]
    pub(crate) fn rank(&self, piece: usize, middle: u32) -> u32 {
        let (left, right) = (&self.left, &self.right);
        if piece < left.len() {
            (left.start + piece) as u32
        } else if piece - left.len() < right.len() {
            (right.start + piece - left.len()) as u32
        } else {
            middle
        }
    }
}

/// One chooser column of a plan over a Lemma-2 engine: a tabled node's
/// stored table — its first arena row, its length, and the first slot it
/// covers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Piece {
    pub(crate) at: usize,
    pub(crate) len: u32,
    pub(crate) lo: u32,
}

impl Piece {
    /// An extra column's stand-in: the one-row table at the arena's first
    /// row, so that a draw needs no case for it.
    pub(crate) const EXTRA: Piece = Piece { at: 0, len: 1, lo: 0 };
}

impl QueryPlan {
    /// The chooser, as built by [`Self::build_chooser`].
    #[inline(always)]
    pub(crate) fn chooser(&self) -> AliasRows<'_> {
        AliasRows::new(&self.chooser)
    }

    /// Builds the chooser over `weights` — the plan's own column weights
    /// when `None` — into the plan's buffers.
    pub(crate) fn build_chooser(&mut self, weights: Option<&[f64]>) -> Result<(), WeightError> {
        let weights = weights.unwrap_or(&self.weights);
        self.chooser.resize(weights.len(), 0);
        AliasRows::build(weights, &mut self.chooser, &mut self.scratch).map(drop)
    }

    /// Where a draw's two words point, before any stored row is read:
    /// the piece `w0` picks through the (query-local) chooser, the arena
    /// position of the row `w1` picks in that piece's table, the slot the
    /// draw returns if the row's coin keeps its column, and the piece's
    /// first slot, which the row's alias entry is relative to.
    #[inline(always)]
    pub(crate) fn locate(&self, w0: u64, w1: u64) -> (usize, usize, u32, u32) {
        let piece = self.chooser().decode(w0);
        let p = self.pieces[piece];
        let col = AliasRows::column_of(w1, p.len as usize);
        (piece, p.at + col, p.lo + col as u32, p.lo)
    }
}

/// The tile arrays a Theorem-3 draw runs its staged passes in (see
/// `iqs_alias::pipeline`), owned and reusable: a caller that keeps one
/// beside its [`QueryPlan`] — on the heap, as it is 13 KiB — fills
/// nothing per query. Every entry a tile reads was written earlier in
/// the same tile, so what a previous query left behind is never read.
pub struct Tiles {
    /// The tile's RNG words, in sequence order: up to three per draw.
    pub(crate) words: [u64; 3 * TILE],
    /// Each draw's chooser column.
    pub(crate) piece: [u32; TILE],
    /// Each draw's `T_chunk` slot (its chunk) until its chunk row is
    /// found, then its rank.
    pub(crate) slot: [u32; TILE],
    /// Each draw's chunk row, as a position in the chunk rows.
    pub(crate) row: [u32; TILE],
    /// The first rank of each draw's chunk.
    pub(crate) base: [u32; TILE],
    /// The `T_chunk` node rows, in [`PickTiles`].
    pub(crate) pick: PickTiles,
}

/// What the `T_chunk` pass of a tile keeps per draw, before it reads the
/// node's row: the row's arena position and the node's first slot.
pub(crate) struct PickTiles {
    pub(crate) row: [usize; TILE],
    pub(crate) lo: [u32; TILE],
}

impl Default for Tiles {
    fn default() -> Self {
        Tiles {
            words: [0; 3 * TILE],
            piece: [0; TILE],
            slot: [0; TILE],
            row: [0; TILE],
            base: [0; TILE],
            pick: PickTiles::default(),
        }
    }
}

impl Tiles {
    /// Runs `f` in tiles the calling thread keeps, for a caller with no
    /// place to keep its own (a fresh-plan query): after the thread's
    /// first call nothing is allocated or filled. A call made from
    /// inside `f` runs in fresh tiles.
    pub fn with_kept<T>(f: impl FnOnce(&mut Tiles) -> T) -> T {
        thread_local! {
            static KEPT: RefCell<Box<Tiles>> = RefCell::new(Box::default());
        }
        KEPT.with(|kept| match kept.try_borrow_mut() {
            Ok(mut tiles) => f(&mut tiles),
            Err(_) => f(&mut Tiles::default()),
        })
    }
}

impl Default for PickTiles {
    fn default() -> Self {
        PickTiles { row: [0; TILE], lo: [0; TILE] }
    }
}
