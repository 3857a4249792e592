//! Grid-bucket spatial index for fast radius queries on the torus.
//!
//! The scheduler `S*` (Definition 10) must, for every candidate link, check
//! that no third node lies inside the guard zone of either endpoint. A naive
//! implementation is `O(n²)` per slot; bucketing positions into a grid whose
//! cell side is at least the query radius confines every in-range pair to
//! two adjacent cells.
//!
//! The grid is sized to the radius, not to the population: a clustered
//! placement (the weak-mobility rows of Table I) puts ~3·10³ points on a
//! grid of ~1.7·10⁵ cells, most of them empty. So nothing that runs per
//! slot touches every cell. The index stores a CSR (compressed sparse row)
//! layout over the *occupied* cells only: one id array in flat cell order,
//! the ascending list of occupied cells and their offsets, plus a per-cell
//! rank table mapping a cell to its CSR row. A (re)build sorts the points
//! by flat cell with a radix sort and resets the rank table only
//! at the cells the previous layout occupied, so one slot costs
//! `O(points + occupied cells)` however fine the grid. After the first slot
//! every rebuild reuses the buffers grown by the previous one.
//!
//! Three layers of structure keep the per-slot cost down:
//!
//! 1. **Incremental re-indexing** ([`SpatialHash::update`]): the paper's
//!    mobility model confines each node to a `Θ(1/f(n))` disk around its
//!    home-point, so cell membership is overwhelmingly stable from one slot
//!    to the next. `update` re-sorts only the ids whose cell lies at or
//!    after the first cell that changed, and reports a full rebuild when
//!    churn is high.
//! 2. **One half-stencil pair sweep** ([`SpatialHash::unique_neighbors_into`],
//!    [`SpatialHash::for_each_pair_within`]): each occupied cell pairs its
//!    own points, then the east cell, then the next row's three cells as one
//!    contiguous CSR span. Every candidate pair is tested at most once, and
//!    the guard-zone kernel keeps, per point, a hit count saturating at 2
//!    and the last partner seen; pairs of two saturated points are skipped,
//!    which keeps dense clusters cheap.
//! 3. **Locality-ordered SoA buffers**: positions are mirrored into
//!    cell-sorted `xs`/`ys` arrays so kernel passes stream memory in cell
//!    order instead of chasing ids through the original snapshot.

use crate::{Point, SquareGrid};
use hycap_errors::HycapError;
use std::ops::{ControlFlow, Range};

/// Lower bound applied to the cell-sizing radius of the slot-path spatial
/// index (see [`clamp_index_radius`]).
///
/// Radii below this bound would request more than `10_000` cells per side;
/// the builder additionally hard-caps the grid at `2048` cells per side, so
/// every radius at or below `MIN_INDEX_RADIUS` maps to the same maximal
/// grid and the clamp loses no resolution — it only keeps the requested
/// cell count finite for degenerate inputs.
pub const MIN_INDEX_RADIUS: f64 = 1e-4;

/// Upper bound applied to the cell-sizing radius of the slot-path spatial
/// index (see [`clamp_index_radius`]).
///
/// The torus metric caps pairwise distances at `√2 / 2 ≈ 0.707`, and per
/// axis at `1/2`, so buckets coarser than a quarter of the torus cannot
/// prune anything — the scan degenerates to whole-grid anyway. Capping at
/// `0.25` guarantees at least `⌊1 / 0.25⌋ = 4` cells per side, which keeps
/// the wrap-around block enumeration well-defined: with fewer cells the
/// centered block of a radius-`0.25` query would wrap onto the same cell
/// from both sides, and correctness would rest entirely on the whole-grid
/// fallback path instead of the torus `rem_euclid` arithmetic.
pub const MAX_INDEX_RADIUS: f64 = 0.25;

/// Clamps a query radius into `[MIN_INDEX_RADIUS, MAX_INDEX_RADIUS]` for
/// use as the cell-sizing hint of [`SpatialHash::rebuild`] /
/// [`SpatialHash::update`].
///
/// Queries against the resulting index remain exact for *any* radius — the
/// clamp only tunes bucket granularity. Schedulers and trace kernels share
/// this single definition instead of re-deriving the magic bounds.
#[inline]
#[must_use]
pub fn clamp_index_radius(radius: f64) -> f64 {
    radius.clamp(MIN_INDEX_RADIUS, MAX_INDEX_RADIUS)
}

/// `update` reports [`RebuildKind::Full`] (and re-sorts every id) when
/// more than `1 / CHURN_FALLBACK_DENOM` of the points changed cell: beyond
/// that the first dirty cell is almost always near cell 0 anyway.
const CHURN_FALLBACK_DENOM: usize = 4;

/// Rank-table entry of a cell that holds no point.
const EMPTY: u32 = u32::MAX;

/// How the most recent [`SpatialHash::rebuild`] / [`SpatialHash::update`]
/// refreshed the index. Exposed for tests and benches that want to assert
/// the delta path actually engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebuildKind {
    /// Full re-sort of the CSR layout.
    #[default]
    Full,
    /// Suffix-only re-sort: only ids whose cell lies at or after the first
    /// dirty cell were re-placed.
    Incremental,
    /// No point changed cell; only positions and the SoA mirror were
    /// refreshed.
    Unchanged,
}

/// Reusable scratch for the guard-zone kernel
/// ([`SpatialHash::unique_neighbors_into`]).
///
/// Owning this outside the hash keeps the kernel `&self` (so it can run
/// while the caller holds other borrows) without allocating per call: slot
/// workspaces hold one and reuse it across every slot.
#[derive(Debug, Clone, Default)]
pub struct OccupancyScratch {
    /// Per SoA slot: in-range alive partners seen so far, saturating at 2,
    /// or [`DEAD`] for a masked-out point.
    hits: Vec<u8>,
    /// Per SoA slot: the SoA slot of the last in-range partner seen.
    partner: Vec<u32>,
}

/// `OccupancyScratch::hits` of a dead point: it neither pairs nor blocks.
const DEAD: u8 = 3;

/// A consumer of the pair sweep (`SpatialHash::sweep_pairs`), in SoA slots.
trait PairSink {
    /// `true` once no further pair touching `slot` can change the result.
    /// The sweep may skip a pair whose endpoints are both settled.
    fn settled(&self, slot: usize) -> bool;
    /// Takes one in-range pair.
    fn pair(&mut self, a: usize, b: usize);
}

/// The guard-zone consumer: an alive point with two in-range alive
/// partners is settled (it cannot be a singleton), as is a dead point.
impl PairSink for OccupancyScratch {
    #[inline]
    fn settled(&self, slot: usize) -> bool {
        self.hits[slot] >= 2
    }

    #[inline]
    fn pair(&mut self, a: usize, b: usize) {
        if self.hits[a] == DEAD || self.hits[b] == DEAD {
            return;
        }
        for (me, other) in [(a, b), (b, a)] {
            self.hits[me] = (self.hits[me] + 1).min(2);
            self.partner[me] = other as u32;
        }
    }
}

/// The every-pair consumer: nothing is ever settled.
struct EveryPair<F>(F);

impl<F: FnMut(usize, usize)> PairSink for EveryPair<F> {
    #[inline]
    fn settled(&self, _slot: usize) -> bool {
        false
    }

    #[inline]
    fn pair(&mut self, a: usize, b: usize) {
        (self.0)(a, b);
    }
}

/// The number of grid cells per side for a given cell-sizing radius: cell
/// side `>= max_radius` so a radius-`r` query needs only the block of cells
/// around the query point, with a hard cap bounding memory for tiny radii.
#[inline]
fn cells_for_radius(max_radius: f64) -> usize {
    (1.0 / max_radius).floor().clamp(1.0, 2048.0) as usize
}

/// Appends the flat cell of every point in `points` to `cells`.
#[inline]
fn push_cells(grid: SquareGrid, points: &[Point], cells: &mut Vec<u32>) {
    cells.extend(points.iter().map(|&p| grid.cell_of(p).index() as u32));
}

/// Chebyshev cell reach covering a radius-`radius` disk: any point within
/// torus distance `radius` of a point in cell `c` lies within
/// `⌈radius / cell_len⌉` cells of `c` along each axis.
#[inline]
fn block_reach(radius: f64, cell_len: f64) -> isize {
    ((radius / cell_len).ceil() as isize).max(1)
}

/// Visits the flat index of every *distinct* cell in the `(2·reach+1)²`
/// block centered on `(row, col)`, row offset outer and column offset
/// inner, collapsing to one whole-grid sweep when the block wraps past the
/// grid size (so no cell is visited twice). Stops at the first `Break`.
#[inline]
fn walk_block<F: FnMut(usize) -> ControlFlow<()>>(
    grid: SquareGrid,
    row: usize,
    col: usize,
    reach: isize,
    mut f: F,
) -> ControlFlow<()> {
    let s = grid.cells_per_side() as isize;
    let whole = 2 * reach + 1 >= s;
    let (lo, hi) = if whole { (0, s - 1) } else { (-reach, reach) };
    for dr in lo..=hi {
        for dc in lo..=hi {
            let (r, c) = if whole {
                (dr as usize, dc as usize)
            } else {
                (
                    (row as isize + dr).rem_euclid(s) as usize,
                    (col as isize + dc).rem_euclid(s) as usize,
                )
            };
            f(grid.cell(r, c).index())?;
        }
    }
    ControlFlow::Continue(())
}

/// A spatial hash of indexed points on the unit torus.
///
/// Buckets live in a CSR layout over the occupied cells: `ids` holds the
/// point ids of every occupied cell back to back in flat cell order, the
/// `k`-th occupied cell `cells[k]` owning `ids[offsets[k]..offsets[k + 1]]`,
/// and `rank[c]` is `k` for an occupied cell `c` (a marker otherwise).
/// Within a cell, ids are in increasing order, which keeps query iteration
/// order identical to the historical `Vec<Vec<u32>>` bucket implementation.
/// Alongside `ids`, the positions are mirrored into cell-sorted SoA arrays
/// `xs`/`ys` so the hot kernels stream coordinates in cell order.
///
/// # Example
///
/// ```
/// use hycap_geom::{Point, SpatialHash};
/// let pts = vec![Point::new(0.1, 0.1), Point::new(0.12, 0.1), Point::new(0.9, 0.9)];
/// let hash = SpatialHash::build(&pts, 0.05);
/// let mut near = Vec::new();
/// hash.for_each_within(Point::new(0.11, 0.1), 0.05, |id| near.push(id));
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
/// ```
///
/// Reusing one index across simulation slots with the incremental path:
///
/// ```
/// use hycap_geom::{Point, RebuildKind, SpatialHash};
/// let mut hash = SpatialHash::new();
/// for slot in 0..3 {
///     let t = slot as f64 * 0.01;
///     let snapshot = vec![Point::new(0.2 + t, 0.3), Point::new(0.8, 0.5 + t)];
///     hash.update(&snapshot, 0.1);
///     assert_eq!(hash.len(), 2);
/// }
/// assert_ne!(hash.last_rebuild(), RebuildKind::Full);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpatialHash {
    grid: Option<SquareGrid>,
    /// Point ids of every occupied cell, back to back in flat cell order
    /// (CSR values).
    ids: Vec<u32>,
    /// The occupied flat cells, ascending (CSR rows).
    cells: Vec<u32>,
    /// Offsets of the occupied cells into `ids`; `cells.len() + 1` entries
    /// once a grid is set (CSR offsets).
    offsets: Vec<u32>,
    /// Per grid cell: its position in `cells`, or [`EMPTY`]. Allocated once
    /// per grid shape; a rebuild resets only the entries it re-places.
    rank: Vec<u32>,
    /// Cell-sorted x coordinates: `xs[slot]` is the x of `ids[slot]`.
    xs: Vec<f64>,
    /// Cell-sorted y coordinates: `ys[slot]` is the y of `ids[slot]`.
    ys: Vec<f64>,
    /// Id-ordered copy of the indexed snapshot. Empty after a streamed
    /// build ([`SpatialHash::try_rebuild_streamed`]), where positions live
    /// only in the cell-sorted SoA mirror and [`SpatialHash::position`]
    /// goes through `slot_of`.
    points: Vec<Point>,
    /// Inverse CSR permutation, filled by streamed builds only:
    /// `slot_of[id]` is the SoA slot holding point `id`.
    slot_of: Vec<u32>,
    /// The flat cell index of each point, in id order. Written by the cell
    /// pass (for a streamed build, while the stream runs), read by the
    /// sort, and kept across `update` calls.
    cell_scratch: Vec<u32>,
    /// Streamed-build scratch: the streamed positions in id order, staged
    /// by the cell pass so placement need not run the stream again.
    /// Reserved once to exactly the declared length and reused across
    /// slots; materialized builds leave it untouched.
    staged: Vec<Point>,
    /// Scratch of up to one `u32` per point: `update` computes the new
    /// cell of each point here, swaps it into `cell_scratch`, and the radix
    /// sort then reuses the buffer for the re-placed ids in low-digit order.
    scratch: Vec<u32>,
    /// Radix-sort scratch: low-digit then high-digit bucket cursors.
    digit_counts: Vec<u32>,
    cell_len: f64,
    last_rebuild: RebuildKind,
}

impl SpatialHash {
    /// Creates an empty index holding no points.
    ///
    /// Call [`SpatialHash::rebuild`] to (re)fill it; until then every query
    /// returns nothing.
    pub fn new() -> Self {
        SpatialHash::default()
    }

    /// Builds an index over `points`, tuned for radius queries up to
    /// `max_radius`.
    ///
    /// Queries with a radius larger than `max_radius` are still correct but
    /// degrade gracefully toward a full scan.
    ///
    /// # Panics
    ///
    /// Panics if `max_radius` is not finite and positive, or if more than
    /// `u32::MAX` points are indexed.
    pub fn build(points: &[Point], max_radius: f64) -> Self {
        let mut hash = SpatialHash::new();
        hash.rebuild(points, max_radius);
        hash
    }

    /// Re-indexes the given snapshot of positions in place.
    ///
    /// Semantically equivalent to `*self = SpatialHash::build(points,
    /// max_radius)`, but reuses the buffers of the previous build: after the
    /// first call, rebuilding with snapshots of the same (or smaller) size
    /// and a radius mapping to the same grid resolution performs **no**
    /// allocations. Slot loops should prefer [`SpatialHash::update`], which
    /// additionally skips the sort when few points changed cell.
    ///
    /// # Panics
    ///
    /// Panics if `max_radius` is not finite and positive, or if more than
    /// `u32::MAX` points are indexed.
    pub fn rebuild(&mut self, points: &[Point], max_radius: f64) {
        assert!(
            max_radius.is_finite() && max_radius > 0.0,
            "max_radius must be positive, got {max_radius}"
        );
        assert!(
            points.len() <= u32::MAX as usize,
            "too many points for the spatial hash"
        );
        let grid = self.use_grid(cells_for_radius(max_radius));
        self.points.clear();
        self.points.extend_from_slice(points);
        self.cell_scratch.clear();
        push_cells(grid, points, &mut self.cell_scratch);
        self.place_from(0);
        self.mirror::<false>(points);
        self.last_rebuild = RebuildKind::Full;
    }

    /// Switches to the grid with `cells` cells per side. Cell side
    /// `>= max_radius` so that a radius-`r` query only needs the 3×3 (or
    /// slightly larger) block of cells around the query point. A new shape
    /// allocates a fresh all-empty rank table (the only `O(cells)` work,
    /// once per shape); the same shape keeps the current layout for
    /// [`SpatialHash::place_from`] to re-sort.
    fn use_grid(&mut self, cells: usize) -> SquareGrid {
        if let Some(g) = self.grid.filter(|g| g.cells_per_side() == cells) {
            return g;
        }
        let grid = SquareGrid::with_cells_per_side(cells);
        self.grid = Some(grid);
        self.cell_len = grid.cell_len();
        self.rank.clear();
        self.rank.resize(grid.cell_count(), EMPTY);
        self.cells.clear();
        self.offsets.clear();
        self.offsets.push(0);
        grid
    }

    /// Re-sorts, into `ids`, every point whose cell (in `cell_scratch`) is
    /// at or after `first_dirty`, and rebuilds the occupancy of those
    /// cells. The ids and occupied cells before `first_dirty` must already
    /// be in place.
    ///
    /// The sort is a stable LSD radix sort on the flat cell index (one
    /// counting pass, or two digits when the grid has more cells than
    /// there are points), fed in id order, so each cell's ids come out
    /// increasing and the layout is that of a counting sort over every
    /// cell. It costs `O(points + √cells)`; only the cells the old layout
    /// occupied from `first_dirty` on have their rank reset.
    fn place_from(&mut self, first_dirty: usize) {
        let kept = self.cells.partition_point(|&c| (c as usize) < first_dirty);
        for &c in &self.cells[kept..] {
            self.rank[c as usize] = EMPTY;
        }
        self.cells.truncate(kept);
        self.offsets.truncate(kept + 1);
        let base = self.offsets[kept] as usize;
        let len = self.cell_scratch.len();
        self.ids.resize(len, 0);

        // One counting pass when a bucket per cell costs no more than the
        // points; otherwise two digits, the low `lo_bits` bits of the flat
        // cell and then the rest, so no pass is `O(cells)`.
        let bits = usize::BITS - (self.rank.len() - 1).leading_zeros();
        let two_digits = 1usize << bits > len;
        let lo_bits = if two_digits { bits / 2 } else { bits };
        let lo_mask = (1u32 << lo_bits) - 1;
        let lo_len = 1usize << lo_bits;
        let hi_len = if two_digits { 1 << (bits - lo_bits) } else { 0 };
        self.digit_counts.clear();
        self.digit_counts.resize(lo_len + hi_len, 0);
        let (lo, hi) = self.digit_counts.split_at_mut(lo_len);
        let first = first_dirty as u32;
        for &c in &self.cell_scratch {
            if c >= first {
                lo[(c & lo_mask) as usize] += 1;
                if two_digits {
                    hi[(c >> lo_bits) as usize] += 1;
                }
            }
        }
        // Exclusive prefix sums: bucket cursors, the last pass offset by
        // the untouched prefix.
        let mut at = 0;
        for n in lo.iter_mut() {
            let count = *n;
            *n = at;
            at += count;
        }
        debug_assert_eq!(at as usize, len - base, "suffix holds the re-placed ids");
        let mut at = base as u32;
        for n in hi.iter_mut() {
            let count = *n;
            *n = at;
            at += count;
        }
        let low_pass = if two_digits {
            self.scratch.clear();
            self.scratch.resize(len - base, 0);
            &mut self.scratch[..]
        } else {
            &mut self.ids[base..]
        };
        for (id, &c) in self.cell_scratch.iter().enumerate() {
            if c >= first {
                let d = (c & lo_mask) as usize;
                low_pass[lo[d] as usize] = id as u32;
                lo[d] += 1;
            }
        }
        if two_digits {
            for &id in &self.scratch {
                let d = (self.cell_scratch[id as usize] >> lo_bits) as usize;
                self.ids[hi[d] as usize] = id;
                hi[d] += 1;
            }
        }

        // Occupancy of the re-placed cells: one CSR row per run.
        let mut prev = EMPTY;
        for slot in base..len {
            let c = self.cell_scratch[self.ids[slot] as usize];
            if c != prev {
                if slot > base {
                    self.offsets.push(slot as u32);
                }
                self.rank[c as usize] = self.cells.len() as u32;
                self.cells.push(c);
                prev = c;
            }
        }
        if len > base {
            self.offsets.push(len as u32);
        }
    }

    /// Refreshes the cell-sorted SoA mirror from the id-ordered `points`;
    /// with `INVERSE`, also fills `slot_of`.
    fn mirror<const INVERSE: bool>(&mut self, points: &[Point]) {
        let len = self.ids.len();
        self.xs.resize(len, 0.0);
        self.ys.resize(len, 0.0);
        self.slot_of.clear();
        if INVERSE {
            self.slot_of.resize(len, 0);
        }
        for (slot, &id) in self.ids.iter().enumerate() {
            let p = points[id as usize];
            self.xs[slot] = p.x;
            self.ys[slot] = p.y;
            if INVERSE {
                self.slot_of[id as usize] = slot as u32;
            }
        }
    }

    /// Empties the index, keeping its buffers for reuse: afterwards
    /// `len() == 0` and every query returns nothing.
    fn clear(&mut self) {
        self.grid = None;
        self.ids.clear();
        self.cells.clear();
        self.offsets.clear();
        self.rank.clear();
        self.xs.clear();
        self.ys.clear();
        self.points.clear();
        self.slot_of.clear();
        self.cell_scratch.clear();
        self.staged.clear();
        self.last_rebuild = RebuildKind::Full;
    }

    /// The constructor contract shared by every (re)build path: at most
    /// `u32::MAX` points (ids are stored as `u32` in the CSR layout) and a
    /// finite positive cell-sizing radius.
    ///
    /// The panicking builders enforce the same bounds with `assert!`; the
    /// `try_*` builders and long-running sweeps route violations through
    /// this checked form instead of unwinding.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] naming the violated parameter.
    pub fn check_build_inputs(len: usize, max_radius: f64) -> Result<(), HycapError> {
        if len > u32::MAX as usize {
            return Err(HycapError::invalid(
                "points",
                format!(
                    "too many points for the spatial hash: {len} exceeds the u32 id \
                     capacity of {}",
                    u32::MAX
                ),
            ));
        }
        if !(max_radius.is_finite() && max_radius > 0.0) {
            return Err(HycapError::invalid(
                "max_radius",
                format!("max_radius must be positive, got {max_radius}"),
            ));
        }
        Ok(())
    }

    /// Checked [`SpatialHash::rebuild`]: validates the constructor contract
    /// and re-indexes, returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when more than `u32::MAX` points
    /// are given or `max_radius` is not finite and positive.
    pub fn try_rebuild(&mut self, points: &[Point], max_radius: f64) -> Result<(), HycapError> {
        Self::check_build_inputs(points.len(), max_radius)?;
        self.rebuild(points, max_radius);
        Ok(())
    }

    /// Checked [`SpatialHash::update`]: validates the constructor contract
    /// and re-indexes incrementally, returning an error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// As [`SpatialHash::try_rebuild`].
    pub fn try_update(
        &mut self,
        points: &[Point],
        max_radius: f64,
    ) -> Result<RebuildKind, HycapError> {
        Self::check_build_inputs(points.len(), max_radius)?;
        Ok(self.update(points, max_radius))
    }

    /// Builds the index from a *streamed* snapshot of `len` positions,
    /// delivered in chunks, so the caller never materializes it.
    ///
    /// `stream` is invoked exactly once and hands its chunks, in id order,
    /// to its argument. Nothing is replayed, so the stream need not be
    /// replayable: a counter-based slot RNG, a file reader or any one-shot
    /// source works. While the stream runs, each point's cell is recorded
    /// and its coordinates are staged in an index-owned buffer reserved to
    /// exactly `len` points; the sort then places from that buffer into
    /// cell order.
    ///
    /// The CSR layout, the SoA coordinate mirror, the cached cells and
    /// every query kernel are byte-identical to [`SpatialHash::rebuild`]
    /// over the concatenation of the chunks. Only the id-ordered `points`
    /// copy is omitted: [`SpatialHash::position`] reads back through the
    /// inverse permutation instead. The resident footprint stays `O(len)`
    /// in compact arrays, and after the first slot of a given size no
    /// buffer grows.
    ///
    /// On any error the index is left empty (`len() == 0`, every query
    /// returns nothing), never half-built.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] on a violated constructor contract;
    /// [`HycapError::Mismatch`] when the stream emits a total different
    /// from `len`.
    pub fn try_rebuild_streamed<F>(
        &mut self,
        len: usize,
        max_radius: f64,
        stream: F,
    ) -> Result<(), HycapError>
    where
        F: FnMut(&mut dyn FnMut(&[Point])),
    {
        let built = self.rebuild_streamed_once(len, max_radius, stream);
        if built.is_err() {
            self.clear();
        }
        built
    }

    /// Body of [`SpatialHash::try_rebuild_streamed`]; may leave the index
    /// inconsistent on error, which the caller repairs by clearing it.
    fn rebuild_streamed_once<F>(
        &mut self,
        len: usize,
        max_radius: f64,
        mut stream: F,
    ) -> Result<(), HycapError>
    where
        F: FnMut(&mut dyn FnMut(&[Point])),
    {
        Self::check_build_inputs(len, max_radius)?;
        let grid = self.use_grid(cells_for_radius(max_radius));
        self.points.clear();
        self.cell_scratch.clear();
        self.cell_scratch.reserve_exact(len);
        self.staged.clear();
        self.staged.reserve_exact(len);

        // The one pass over the stream: record cells and stage. Points
        // past `len` are only counted, so neither buffer outgrows its
        // reservation; the overflow is rejected below.
        let mut emitted = 0usize;
        {
            let cell_scratch = &mut self.cell_scratch;
            let staged = &mut self.staged;
            stream(&mut |chunk: &[Point]| {
                let take = chunk.len().min(len - staged.len());
                push_cells(grid, &chunk[..take], cell_scratch);
                staged.extend_from_slice(&chunk[..take]);
                emitted += chunk.len();
            });
        }
        if emitted != len {
            return Err(HycapError::Mismatch {
                what: "streamed point count and declared length",
                left: emitted,
                right: len,
            });
        }

        // Placement from the staged copy, filling the inverse permutation
        // that backs `position` lookups.
        self.place_from(0);
        let staged = std::mem::take(&mut self.staged);
        self.mirror::<true>(&staged);
        self.staged = staged;
        self.last_rebuild = RebuildKind::Full;
        Ok(())
    }

    /// Re-indexes a new snapshot of the *same* population, re-sorting only
    /// the part of the CSR layout that changed.
    ///
    /// Produces a layout byte-identical to [`SpatialHash::rebuild`] on the
    /// same input. Three paths, reported by the return value:
    ///
    /// - [`RebuildKind::Unchanged`]: no point changed cell; only the stored
    ///   positions and the SoA mirror are refreshed (`O(n)`).
    /// - [`RebuildKind::Incremental`]: a bounded fraction of points changed
    ///   cell; only the ids in cells at or after the first dirty cell are
    ///   re-sorted. Cells (and the id prefix) before the first dirty cell
    ///   are untouched because every move's source and destination cell lie
    ///   at or after it.
    /// - [`RebuildKind::Full`]: the snapshot has a different length, maps to
    ///   a different grid resolution, or more than `1/4` of the points
    ///   changed cell — every id is re-sorted.
    ///
    /// No path touches the cells that were empty and stay empty, so a slot
    /// costs `O(points + occupied cells)` whatever the grid size.
    ///
    /// # Panics
    ///
    /// Panics if `max_radius` is not finite and positive, or if more than
    /// `u32::MAX` points are indexed.
    pub fn update(&mut self, points: &[Point], max_radius: f64) -> RebuildKind {
        assert!(
            max_radius.is_finite() && max_radius > 0.0,
            "max_radius must be positive, got {max_radius}"
        );
        assert!(
            points.len() <= u32::MAX as usize,
            "too many points for the spatial hash"
        );
        let cells = cells_for_radius(max_radius);
        let same_shape = matches!(self.grid, Some(g) if g.cells_per_side() == cells)
            && self.points.len() == points.len();
        if !same_shape {
            self.rebuild(points, max_radius);
            return RebuildKind::Full;
        }
        let grid = self.grid.expect("same_shape implies a grid");
        // The new cell of every point; count churn and track the first cell
        // whose CSR range can change. A move from cell a to cell b only
        // perturbs the layout at or after min(a, b).
        self.scratch.clear();
        let mut churn = 0usize;
        let mut first_dirty = grid.cell_count();
        for (id, &p) in points.iter().enumerate() {
            let c = grid.cell_of(p).index() as u32;
            self.scratch.push(c);
            let old = self.cell_scratch[id];
            if c != old {
                churn += 1;
                first_dirty = first_dirty.min(old.min(c) as usize);
            }
        }
        let kind = if churn * CHURN_FALLBACK_DENOM > points.len() {
            first_dirty = 0;
            RebuildKind::Full
        } else if churn == 0 {
            RebuildKind::Unchanged
        } else {
            RebuildKind::Incremental
        };
        std::mem::swap(&mut self.cell_scratch, &mut self.scratch);
        if kind != RebuildKind::Unchanged {
            self.place_from(first_dirty);
        }
        self.points.clear();
        self.points.extend_from_slice(points);
        // Every position moves every slot even when no cell does: refresh
        // the cell-ordered SoA mirror wholesale (sequential write, cheap).
        self.mirror::<false>(points);
        self.last_rebuild = kind;
        kind
    }

    /// How the most recent [`SpatialHash::rebuild`] / [`SpatialHash::update`]
    /// refreshed the index.
    #[inline]
    pub fn last_rebuild(&self) -> RebuildKind {
        self.last_rebuild
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        // `ids` (not `points`): streamed builds hold positions only in the
        // cell-sorted mirror and leave `points` empty.
        self.ids.len()
    }

    /// Returns `true` when the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The indexed position of point `id`.
    ///
    /// After a streamed build the coordinates are read back from the
    /// cell-sorted mirror through the inverse permutation; the returned
    /// `f64`s are bit-identical to the streamed input either way.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn position(&self, id: usize) -> Point {
        if self.points.is_empty() && !self.ids.is_empty() {
            self.slot_point(self.slot_of[id] as usize)
        } else {
            self.points[id]
        }
    }

    /// The position held in SoA slot `slot`.
    #[inline]
    fn slot_point(&self, slot: usize) -> Point {
        Point {
            x: self.xs[slot],
            y: self.ys[slot],
        }
    }

    /// The Morton (Z-order) code of the grid cell currently holding point
    /// `id`. Geometry-determined (it never depends on how the input was
    /// indexed), which is what makes it usable as a canonical sort key for
    /// order-neutral candidate enumeration.
    ///
    /// # Panics
    ///
    /// Panics if the index is empty or `id` is out of range.
    #[inline]
    pub fn cell_morton_of(&self, id: usize) -> u64 {
        let grid = self.grid.expect("morton code of an empty index");
        grid.cell_from_index(self.cell_scratch[id] as usize)
            .morton()
    }

    /// The SoA slots of flat cell `cell` (empty when nobody is there).
    #[inline]
    fn cell_slots(&self, cell: usize) -> Range<usize> {
        match self.rank[cell] {
            EMPTY => 0..0,
            k => self.offsets[k as usize] as usize..self.offsets[k as usize + 1] as usize,
        }
    }

    /// The SoA slots of the flat cells `first..=last`, which are adjacent
    /// in the layout and so form one contiguous span.
    #[inline]
    fn run_slots(&self, first: usize, last: usize) -> Range<usize> {
        let mut ranks = self.rank[first..=last].iter().filter(|&&k| k != EMPTY);
        match (ranks.next(), ranks.next_back()) {
            (None, _) => 0..0,
            (Some(&a), b) => {
                let b = b.copied().unwrap_or(a);
                self.offsets[a as usize] as usize..self.offsets[b as usize + 1] as usize
            }
        }
    }

    /// The raw CSR layout `(cells, offsets, ids)` of the index: the
    /// occupied flat cells ascending, their offsets into `ids`, and the
    /// point ids in cell order.
    ///
    /// Test-only accessor for cross-crate equivalence checks (incremental
    /// `update` vs fresh `build`); not part of the supported API surface.
    #[doc(hidden)]
    pub fn csr_layout(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.cells, &self.offsets, &self.ids)
    }

    /// Ids of all points strictly within distance `radius` of `center`
    /// (torus metric). The center point itself is included when indexed.
    ///
    /// Allocates its result; retained as a convenience for tests and
    /// doctests. Production slot paths use the visitor and kernel APIs
    /// ([`SpatialHash::for_each_within`],
    /// [`SpatialHash::unique_neighbors_into`],
    /// [`SpatialHash::for_each_pair_within`]) which reuse caller buffers.
    #[doc(hidden)]
    pub fn query(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |id| out.push(id));
        out
    }

    /// The one per-point block scan: calls `f(slot)` for every SoA slot
    /// strictly within `radius` of `center`, walking the cells within
    /// `reach` of `center`'s cell in [`walk_block`] order and each cell's
    /// ids in increasing order. Stops at the first `Break`, which it
    /// returns.
    #[inline]
    fn scan_disk<F: FnMut(usize) -> ControlFlow<()>>(
        &self,
        center: Point,
        radius: f64,
        reach: isize,
        mut f: F,
    ) -> ControlFlow<()> {
        let Some(grid) = self.grid else {
            return ControlFlow::Continue(());
        };
        let r2 = radius * radius;
        let home = grid.cell_of(center);
        walk_block(grid, home.row(), home.col(), reach, |idx| {
            for t in self.cell_slots(idx) {
                // The SoA mirror is bit-identical to the stored points.
                if self.slot_point(t).torus_dist_sq(center) < r2 {
                    f(t)?;
                }
            }
            ControlFlow::Continue(())
        })
    }

    /// Reach of the per-point queries: one ring beyond the covering block.
    /// (Saturating: a never-built index has `cell_len == 0`.)
    #[inline]
    fn query_reach(&self, radius: f64) -> isize {
        ((radius / self.cell_len).ceil() as isize).saturating_add(1)
    }

    /// Calls `f(id)` for every point strictly within `radius` of `center`.
    ///
    /// This is the allocation-free radius visitor; iteration order is the
    /// fixed cell-block order relied upon by the deterministic schedulers.
    pub fn for_each_within<F: FnMut(usize)>(&self, center: Point, radius: f64, mut f: F) {
        let _ = self.scan_disk(center, radius, self.query_reach(radius), |t| {
            f(self.ids[t] as usize);
            ControlFlow::Continue(())
        });
    }

    /// Returns `true` when any indexed point other than those in `exclude`
    /// lies strictly within `radius` of `center`.
    ///
    /// This is the primitive used for the guard-zone test of scheduler `S*`:
    /// "for every other node `l`, `min(d_lj, d_li) > (1+Δ)R_T`".
    pub fn any_within_excluding(&self, center: Point, radius: f64, exclude: &[usize]) -> bool {
        self.scan_disk(center, radius, self.query_reach(radius), |t| {
            if exclude.contains(&(self.ids[t] as usize)) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })
        .is_break()
    }

    /// Counts indexed points strictly within `radius` of `center`.
    pub fn count_within(&self, center: Point, radius: f64) -> usize {
        let mut n = 0;
        self.for_each_within(center, radius, |_| n += 1);
        n
    }

    /// Total indexed population (alive or not) of the cell block that
    /// covers a radius-`radius` disk around point `id`, including `id`
    /// itself.
    ///
    /// Upper-bounds `1 + count_within(position(id), radius)`: a result of
    /// `<= 1` proves `id` has no neighbor within `radius`, without a single
    /// distance computation. Used to prune candidate generation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_population(&self, id: usize, radius: f64) -> usize {
        let Some(grid) = self.grid else { return 0 };
        let c = grid.cell_from_index(self.cell_scratch[id] as usize);
        let mut pop = 0usize;
        let _ = walk_block(
            grid,
            c.row(),
            c.col(),
            block_reach(radius, self.cell_len),
            |idx| {
                pop += self.cell_slots(idx).len();
                ControlFlow::Continue(())
            },
        );
        pop
    }

    /// The pair sweep behind both pair kernels: hands `sink` exactly once
    /// every unordered pair of distinct SoA slots whose points lie strictly
    /// within `radius` of each other, except that a pair whose endpoints
    /// are both [`PairSink::settled`] may be skipped untested. Emission
    /// order is unspecified.
    ///
    /// Every occupied cell first pairs its own points. Then, when the grid
    /// has at least 4 cells per side and `radius` fits in one cell,
    /// in-range pairs lie in the same or adjacent cells, and the forward
    /// half-stencil visits each adjacent cell pair once: every occupied
    /// cell pairs with the east cell, then with the next row's three cells.
    /// Away from the column wrap those three are adjacent in flat order, so
    /// their points form one contiguous span. Otherwise (a reach of 2 or
    /// more, or a block that wraps the whole grid) each occupied cell pairs
    /// with the later cells of its block.
    ///
    /// Once all of a cell's points are settled, a cross-cell pass tests each
    /// unsettled partner only until it settles: the per-node early exit of
    /// a radius scan, for dense regions.
    fn sweep_pairs<S: PairSink>(&self, radius: f64, sink: &mut S) {
        let Some(grid) = self.grid else { return };
        let r2 = radius * radius;
        let s = grid.cells_per_side();
        let reach = block_reach(radius, self.cell_len);
        let mut cross = |own: Range<usize>, other: Range<usize>| {
            if own.clone().all(|a| sink.settled(a)) {
                // With `own` settled, a pair matters only to an unsettled
                // `b`, and only until `b` settles: the per-node early exit
                // of a radius scan, which keeps dense regions cheap.
                for b in other {
                    let q = self.slot_point(b);
                    for a in own.clone() {
                        if sink.settled(b) {
                            break;
                        }
                        if q.torus_dist_sq(self.slot_point(a)) < r2 {
                            sink.pair(a, b);
                        }
                    }
                }
                return;
            }
            for a in own {
                let p = self.slot_point(a);
                for b in other.clone() {
                    if p.torus_dist_sq(self.slot_point(b)) < r2 {
                        sink.pair(a, b);
                    }
                }
            }
        };
        // Pairs within a cell first: in a dense region they settle most
        // points before any cross-cell pair is tested.
        for own in self.offsets.windows(2) {
            for a in own[0] as usize..own[1] as usize {
                cross(a..a + 1, a + 1..own[1] as usize);
            }
        }
        for (k, &c) in self.cells.iter().enumerate() {
            let c = c as usize;
            let own = self.offsets[k] as usize..self.offsets[k + 1] as usize;
            if reach == 1 && s >= 4 {
                let (row, col) = (c / s, c % s);
                let east = if col + 1 == s { c + 1 - s } else { c + 1 };
                cross(own.clone(), self.cell_slots(east));
                let below = if row + 1 == s { 0 } else { (row + 1) * s };
                if col > 0 && col + 1 < s {
                    cross(own, self.run_slots(below + col - 1, below + col + 1));
                } else {
                    for dc in [(col + s - 1) % s, col, (col + 1) % s] {
                        cross(own.clone(), self.cell_slots(below + dc));
                    }
                }
            } else if 2 * reach + 1 >= s as isize {
                for &other in &self.cells[k + 1..] {
                    cross(own.clone(), self.cell_slots(other as usize));
                }
            } else {
                let _ = walk_block(grid, c / s, c % s, reach, |idx| {
                    if idx > c {
                        cross(own.clone(), self.cell_slots(idx));
                    }
                    ControlFlow::Continue(())
                });
            }
        }
    }

    /// The singleton-guard-zone kernel of scheduler `S*`: for every alive
    /// point `i`, sets `out[i]` to the id of the *unique* alive point
    /// strictly within `radius` of `i`, or `usize::MAX` when `i` has zero
    /// or more than one such neighbor (or is itself dead).
    ///
    /// One pass of the pair sweep tests every candidate pair at most once;
    /// both endpoints of an in-range pair get a hit (saturating at 2) and
    /// remember the other as their last partner, and a point with exactly
    /// one hit reports that partner. A pair of two saturated points is
    /// skipped untested, since it cannot change either answer. Dead points
    /// (`alive[i] == false`) are checked per point and neither pair nor
    /// block. The result is a set function of the snapshot, identical to
    /// the per-node radius scan.
    ///
    /// Pass `alive: None` for the unmasked (fault-free) variant. `out` is
    /// indexed by original point id.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive, or if a mask is given
    /// whose length differs from [`SpatialHash::len`].
    pub fn unique_neighbors_into(
        &self,
        radius: f64,
        alive: Option<&[bool]>,
        scratch: &mut OccupancyScratch,
        out: &mut Vec<usize>,
    ) {
        let n = self.ids.len();
        out.clear();
        out.resize(n, usize::MAX);
        if self.grid.is_none() {
            return;
        }
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        if let Some(mask) = alive {
            assert_eq!(mask.len(), n, "alive mask length mismatch");
        }
        scratch.hits.clear();
        scratch.partner.clear();
        scratch.partner.resize(n, 0);
        match alive {
            None => scratch.hits.resize(n, 0),
            Some(mask) => {
                scratch.hits.extend(
                    self.ids
                        .iter()
                        .map(|&id| if mask[id as usize] { 0 } else { DEAD }),
                )
            }
        }
        self.sweep_pairs(radius, scratch);
        for (slot, (&h, &p)) in scratch.hits.iter().zip(&scratch.partner).enumerate() {
            if h == 1 {
                out[self.ids[slot] as usize] = self.ids[p as usize] as usize;
            }
        }
    }

    /// The id of the *unique* indexed point strictly within `radius` of
    /// point `id`, or `usize::MAX` when `id` has zero or more than one such
    /// neighbor.
    ///
    /// This is the per-node form of the unmasked
    /// [`SpatialHash::unique_neighbors_into`] kernel and is result-identical
    /// to it: a block scan with an early exit at the second in-radius
    /// neighbor. Demand-driven schedulers use it to answer the `S*`
    /// singleton question for the handful of *active* nodes without paying
    /// the whole-network batch pass.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive, or `id` is out of
    /// range.
    pub fn unique_neighbor_within(&self, id: usize, radius: f64) -> usize {
        if self.grid.is_none() {
            return usize::MAX;
        }
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        assert!(id < self.ids.len(), "point id {id} out of range");
        let mut count = 0u32;
        let mut only = usize::MAX;
        let reach = block_reach(radius, self.cell_len);
        let _ = self.scan_disk(self.position(id), radius, reach, |t| {
            let j = self.ids[t] as usize;
            if j != id {
                count += 1;
                if count >= 2 {
                    return ControlFlow::Break(());
                }
                only = j;
            }
            ControlFlow::Continue(())
        });
        if count == 1 {
            only
        } else {
            usize::MAX
        }
    }

    /// Calls `f(i, j)` with `i < j` exactly once for every unordered pair of
    /// indexed points strictly within `radius` of each other.
    ///
    /// Runs the same half-stencil sweep as
    /// [`SpatialHash::unique_neighbors_into`], streaming the SoA mirror;
    /// emission order is unspecified. This is the allocation-free kernel
    /// behind contact counting and greedy candidate enumeration.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive.
    pub fn for_each_pair_within<F: FnMut(usize, usize)>(&self, radius: f64, mut f: F) {
        if self.grid.is_none() {
            return;
        }
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        self.sweep_pairs(
            radius,
            &mut EveryPair(|a: usize, b: usize| {
                let (i, j) = (self.ids[a] as usize, self.ids[b] as usize);
                if i < j {
                    f(i, j);
                } else {
                    f(j, i);
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_force(points: &[Point], center: Point, radius: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.torus_dist_sq(center) < radius * radius)
            .map(|(i, _)| i)
            .collect()
    }

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    /// Jitters every point by at most `step` per axis (bounded
    /// displacement, like the paper's mobility model).
    fn drift(points: &[Point], step: f64, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        points
            .iter()
            .map(|p| {
                Point::new(
                    p.x + rng.gen_range(-step..=step),
                    p.y + rng.gen_range(-step..=step),
                )
            })
            .collect()
    }

    fn assert_same_layout(a: &SpatialHash, b: &SpatialHash) {
        assert_eq!(a.csr_layout(), b.csr_layout());
        assert_eq!(a.xs, b.xs);
        assert_eq!(a.ys, b.ys);
        assert_eq!(a.points, b.points);
        assert_eq!(a.cell_scratch, b.cell_scratch);
    }

    #[test]
    fn query_matches_brute_force() {
        let pts = random_points(500, 7);
        let hash = SpatialHash::build(&pts, 0.05);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let c = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            let mut got = hash.query(c, 0.05);
            got.sort_unstable();
            let mut want = brute_force(&pts, c, 0.05);
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn query_with_radius_above_build_hint() {
        let pts = random_points(300, 9);
        let hash = SpatialHash::build(&pts, 0.02);
        let c = Point::new(0.5, 0.5);
        let mut got = hash.query(c, 0.3); // much larger than the hint
        got.sort_unstable();
        let mut want = brute_force(&pts, c, 0.3);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn query_wraps_boundaries() {
        let pts = vec![Point::new(0.99, 0.99), Point::new(0.01, 0.01)];
        let hash = SpatialHash::build(&pts, 0.05);
        let got = hash.query(Point::new(0.0, 0.0), 0.05);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn any_within_excluding_ignores_excluded() {
        let pts = vec![
            Point::new(0.5, 0.5),
            Point::new(0.51, 0.5),
            Point::new(0.9, 0.9),
        ];
        let hash = SpatialHash::build(&pts, 0.1);
        assert!(hash.any_within_excluding(Point::new(0.5, 0.5), 0.1, &[]));
        assert!(hash.any_within_excluding(Point::new(0.5, 0.5), 0.1, &[0]));
        assert!(!hash.any_within_excluding(Point::new(0.5, 0.5), 0.1, &[0, 1]));
    }

    #[test]
    fn count_within_matches_query_len() {
        let pts = random_points(200, 11);
        let hash = SpatialHash::build(&pts, 0.08);
        let c = Point::new(0.3, 0.7);
        assert_eq!(hash.count_within(c, 0.08), hash.query(c, 0.08).len());
    }

    #[test]
    fn tiny_radius_caps_cell_count() {
        // Must not allocate a gigantic grid for microscopic radii.
        let pts = random_points(10, 13);
        let hash = SpatialHash::build(&pts, 1e-9);
        assert!(hash.grid.unwrap().cells_per_side() <= 2048);
        assert_eq!(hash.query(pts[0], 1e-9).len(), 1);
    }

    #[test]
    fn empty_index() {
        let hash = SpatialHash::build(&[], 0.1);
        assert!(hash.is_empty());
        assert_eq!(hash.len(), 0);
        assert!(hash.query(Point::new(0.5, 0.5), 0.2).is_empty());
    }

    #[test]
    fn fresh_index_without_rebuild_is_empty() {
        let hash = SpatialHash::new();
        assert!(hash.is_empty());
        assert!(hash.query(Point::new(0.5, 0.5), 0.2).is_empty());
        assert!(!hash.any_within_excluding(Point::new(0.5, 0.5), 0.2, &[]));
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        hash.unique_neighbors_into(0.1, None, &mut scratch, &mut out);
        assert!(out.is_empty());
        hash.for_each_pair_within(0.1, |_, _| panic!("no pairs in an empty index"));
    }

    #[test]
    fn position_roundtrip() {
        let pts = random_points(50, 17);
        let hash = SpatialHash::build(&pts, 0.1);
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!(hash.position(i), p);
        }
    }

    #[test]
    fn cells_hold_ids_in_increasing_order() {
        // Query iteration order must match the historical Vec<Vec<u32>>
        // buckets, which received ids in increasing order per cell.
        let pts = random_points(400, 19);
        let hash = SpatialHash::build(&pts, 0.07);
        let (cells, offsets, ids) = hash.csr_layout();
        assert!(cells.windows(2).all(|w| w[0] < w[1]), "cells ascend");
        for (k, &c) in cells.iter().enumerate() {
            let cell = &ids[offsets[k] as usize..offsets[k + 1] as usize];
            assert!(!cell.is_empty(), "cell {c} is listed but empty");
            assert!(cell.windows(2).all(|w| w[0] < w[1]), "cell {c}: {cell:?}");
            assert!(cell.iter().all(|&id| hash.cell_scratch[id as usize] == c));
            assert_eq!(hash.rank[c as usize], k as u32);
        }
        let listed = hash.rank.iter().filter(|&&k| k != EMPTY).count();
        assert_eq!(listed, cells.len(), "only occupied cells have a rank");
        assert_eq!(ids.len(), pts.len());
    }

    #[test]
    fn soa_mirror_matches_points() {
        let pts = random_points(300, 21);
        let hash = SpatialHash::build(&pts, 0.06);
        for (slot, &id) in hash.ids.iter().enumerate() {
            let p = pts[id as usize];
            assert_eq!(hash.xs[slot], p.x);
            assert_eq!(hash.ys[slot], p.y);
        }
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let mut reused = SpatialHash::new();
        let mut rng = StdRng::seed_from_u64(23);
        for (slot, &(n, radius)) in [(300usize, 0.05), (120, 0.2), (500, 0.01), (0, 0.1)]
            .iter()
            .enumerate()
        {
            let pts = random_points(n, 100 + slot as u64);
            reused.rebuild(&pts, radius);
            let fresh = SpatialHash::build(&pts, radius);
            assert_eq!(reused.len(), fresh.len());
            for _ in 0..20 {
                let c = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
                assert_eq!(reused.query(c, radius), fresh.query(c, radius));
                assert_eq!(
                    reused.count_within(c, radius),
                    fresh.count_within(c, radius)
                );
            }
        }
    }

    #[test]
    fn rebuild_reuses_capacity_for_same_shape() {
        let pts_a = random_points(1000, 29);
        let pts_b = random_points(1000, 31);
        let mut hash = SpatialHash::build(&pts_a, 0.03);
        let ids_cap = hash.ids.capacity();
        let rank_cap = hash.rank.capacity();
        let points_cap = hash.points.capacity();
        hash.rebuild(&pts_b, 0.03);
        assert_eq!(hash.ids.capacity(), ids_cap);
        assert_eq!(hash.rank.capacity(), rank_cap);
        assert_eq!(hash.points.capacity(), points_cap);
        let mut got = hash.query(pts_b[0], 0.03);
        got.sort_unstable();
        let mut want = brute_force(&pts_b, pts_b[0], 0.03);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn update_bounded_drift_matches_fresh_build() {
        let radius = 0.05;
        let mut pts = random_points(400, 37);
        let mut hash = SpatialHash::build(&pts, radius);
        let mut saw_incremental = false;
        let mut saw_unchanged = false;
        for slot in 0..30 {
            pts = drift(&pts, 2e-4, 1000 + slot);
            let kind = hash.update(&pts, radius);
            match kind {
                RebuildKind::Incremental => saw_incremental = true,
                RebuildKind::Unchanged => saw_unchanged = true,
                RebuildKind::Full => {}
            }
            let fresh = SpatialHash::build(&pts, radius);
            assert_same_layout(&hash, &fresh);
        }
        assert!(
            saw_incremental || saw_unchanged,
            "bounded drift never took a delta path"
        );
    }

    #[test]
    fn update_high_churn_falls_back_to_full_rebuild() {
        let radius = 0.05;
        let pts = random_points(400, 41);
        let mut hash = SpatialHash::build(&pts, radius);
        // Teleport everything: churn ~100% must trip the fallback.
        let teleported = random_points(400, 43);
        let kind = hash.update(&teleported, radius);
        assert_eq!(kind, RebuildKind::Full);
        assert_eq!(hash.last_rebuild(), RebuildKind::Full);
        assert_same_layout(&hash, &SpatialHash::build(&teleported, radius));
    }

    #[test]
    fn repeated_full_churn_updates_match_fresh_builds() {
        // i.i.d. mobility: every slot is a fresh draw, so every update takes
        // the churn fallback and reuses the swapped cell buffers.
        let radius = 0.05;
        let mut hash = SpatialHash::build(&random_points(400, 51), radius);
        for slot in 0..5 {
            let pts = random_points(400, 52 + slot);
            assert_eq!(hash.update(&pts, radius), RebuildKind::Full);
            assert_same_layout(&hash, &SpatialHash::build(&pts, radius));
        }
    }

    #[test]
    fn update_shape_change_falls_back_to_full_rebuild() {
        let pts = random_points(200, 47);
        let mut hash = SpatialHash::build(&pts, 0.05);
        // Different grid resolution.
        assert_eq!(hash.update(&pts, 0.1), RebuildKind::Full);
        assert_same_layout(&hash, &SpatialHash::build(&pts, 0.1));
        // Different population size.
        let fewer = random_points(150, 49);
        assert_eq!(hash.update(&fewer, 0.1), RebuildKind::Full);
        assert_same_layout(&hash, &SpatialHash::build(&fewer, 0.1));
    }

    #[test]
    fn update_identical_snapshot_is_unchanged() {
        let pts = random_points(250, 53);
        let mut hash = SpatialHash::build(&pts, 0.05);
        assert_eq!(hash.update(&pts, 0.05), RebuildKind::Unchanged);
        assert_same_layout(&hash, &SpatialHash::build(&pts, 0.05));
    }

    #[test]
    fn update_single_move_repairs_suffix_only() {
        // One point hops exactly one cell; layout must match a fresh build.
        let radius = 0.1;
        let mut pts = vec![
            Point::new(0.05, 0.05),
            Point::new(0.15, 0.05),
            Point::new(0.55, 0.55),
            Point::new(0.95, 0.95),
        ];
        let mut hash = SpatialHash::build(&pts, radius);
        pts[1] = Point::new(0.25, 0.05); // crosses into the next column
        assert_eq!(hash.update(&pts, radius), RebuildKind::Incremental);
        assert_same_layout(&hash, &SpatialHash::build(&pts, radius));
    }

    fn brute_unique_neighbors(pts: &[Point], radius: f64, alive: Option<&[bool]>) -> Vec<usize> {
        let ok = |i: usize| alive.is_none_or(|m| m[i]);
        (0..pts.len())
            .map(|i| {
                if !ok(i) {
                    return usize::MAX;
                }
                let mut count = 0;
                let mut only = usize::MAX;
                for (j, q) in pts.iter().enumerate() {
                    if j != i && ok(j) && pts[i].torus_dist_sq(*q) < radius * radius {
                        count += 1;
                        only = j;
                    }
                }
                if count == 1 {
                    only
                } else {
                    usize::MAX
                }
            })
            .collect()
    }

    #[test]
    fn unique_neighbors_matches_brute_force() {
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        for (n, radius, seed) in [
            (2usize, 0.3, 59u64),
            (50, 0.08, 61),
            (400, 0.03, 67),
            (400, 0.2, 71),
            (1000, 0.01, 73),
        ] {
            let pts = random_points(n, seed);
            let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
            hash.unique_neighbors_into(radius, None, &mut scratch, &mut out);
            assert_eq!(out, brute_unique_neighbors(&pts, radius, None), "n={n}");
        }
    }

    #[test]
    fn unique_neighbors_masked_matches_brute_force() {
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(79);
        for (n, radius) in [(60usize, 0.1), (300, 0.04), (300, 0.25)] {
            let pts = random_points(n, 83 + n as u64);
            let alive: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
            let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
            hash.unique_neighbors_into(radius, Some(&alive), &mut scratch, &mut out);
            assert_eq!(
                out,
                brute_unique_neighbors(&pts, radius, Some(&alive)),
                "n={n}"
            );
        }
    }

    #[test]
    fn unique_neighbors_masked_on_a_sparse_grid() {
        // Radius so small that the 2048-cap grid dwarfs the population.
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        let pts = random_points(100, 89);
        let alive: Vec<bool> = (0..100).map(|i| i % 3 != 0).collect();
        let hash = SpatialHash::build(&pts, clamp_index_radius(1e-6));
        hash.unique_neighbors_into(1e-3, Some(&alive), &mut scratch, &mut out);
        assert_eq!(out, brute_unique_neighbors(&pts, 1e-3, Some(&alive)));
    }

    #[test]
    fn unique_neighbors_dense_cluster() {
        // Everyone packed into one cell: the answer is "no singletons
        // anywhere".
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(97);
        let pts: Vec<Point> = (0..200)
            .map(|_| {
                Point::new(
                    0.5 + rng.gen_range(-0.01..0.01),
                    0.5 + rng.gen_range(-0.01..0.01),
                )
            })
            .collect();
        let hash = SpatialHash::build(&pts, 0.1);
        hash.unique_neighbors_into(0.1, None, &mut scratch, &mut out);
        assert_eq!(out, brute_unique_neighbors(&pts, 0.1, None));
        assert!(out.iter().all(|&v| v == usize::MAX));
    }

    /// `n` points uniform in `clusters` disks of radius `spread` around
    /// random centers: the weak-mobility rows' placement, which fills
    /// occupied cells of a grid sized to a far smaller radius.
    fn clustered_points(n: usize, clusters: usize, spread: f64, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = random_points(clusters, seed ^ 0xC1);
        (0..n)
            .map(|_| {
                let c = centers[rng.gen_range(0..clusters)];
                let rho = spread * rng.gen::<f64>().sqrt();
                let theta = std::f64::consts::TAU * rng.gen::<f64>();
                Point::new(c.x + rho * theta.cos(), c.y + rho * theta.sin())
            })
            .collect()
    }

    #[test]
    fn per_node_unique_neighbor_matches_batch_kernel() {
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        // The weak-row geometry: 5 clusters of radius 0.04 and the guard
        // radius 1.5·r·√(m/n) of n = 3125 (a 416² grid).
        let weak_guard = 1.5 * 0.04 * (5.0f64 / 3125.0).sqrt();
        for (pts, radius) in [
            (random_points(2, 59), 0.3),
            (random_points(50, 61), 0.08),
            (random_points(400, 67), 0.03),
            (random_points(400, 71), 0.2),
            (random_points(1000, 73), 0.01),
            (clustered_points(2000, 5, 0.04, 75), weak_guard),
            (clustered_points(2000, 1, 0.04, 76), 0.01),
        ] {
            let n = pts.len();
            let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
            hash.unique_neighbors_into(radius, None, &mut scratch, &mut out);
            for (id, &want) in out.iter().enumerate() {
                assert_eq!(
                    hash.unique_neighbor_within(id, radius),
                    want,
                    "n={n} id={id}"
                );
            }
        }
    }

    fn brute_pairs(pts: &[Point], radius: f64) -> Vec<(usize, usize)> {
        let mut want = Vec::new();
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                if pts[i].torus_dist_sq(pts[j]) < radius * radius {
                    want.push((i, j));
                }
            }
        }
        want
    }

    /// Checks both consumers of the pair sweep, and the per-node scan,
    /// against brute force on an index built with cell-sizing `hint`.
    fn assert_sweep_exact(pts: &[Point], hint: f64, radius: f64, alive: Option<&[bool]>) {
        let hash = SpatialHash::build(pts, hint);
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        hash.unique_neighbors_into(radius, alive, &mut scratch, &mut out);
        let want = brute_unique_neighbors(pts, radius, alive);
        assert_eq!(out, want, "unique neighbors, hint={hint} radius={radius}");
        if alive.is_none() {
            for (id, &w) in want.iter().enumerate() {
                assert_eq!(hash.unique_neighbor_within(id, radius), w, "id={id}");
            }
        }
        let mut got = Vec::new();
        hash.for_each_pair_within(radius, |i, j| {
            assert!(i < j);
            got.push((i, j));
        });
        got.sort_unstable();
        // Equal to the duplicate-free brute-force list: each pair once.
        assert_eq!(
            got,
            brute_pairs(pts, radius),
            "pairs, hint={hint} radius={radius}"
        );
    }

    #[test]
    fn sweep_exact_on_the_smallest_grid() {
        // s = 4: the half-stencil's next row and east cell wrap onto cells
        // that are also west/above neighbors of other cells.
        let pts = random_points(300, 401);
        for radius in [0.05, 0.2, 0.25] {
            assert_sweep_exact(&pts, 0.25, radius, None);
        }
        assert_eq!(cells_for_radius(0.25), 4);
    }

    #[test]
    fn sweep_exact_at_the_half_torus_tie() {
        // Coordinate differences of exactly 0.5: `axis_delta` keeps +0.5
        // one way and -0.5 the other, which square to the same distance.
        let pts = vec![
            Point::new(0.0, 0.3),
            Point::new(0.5, 0.3),
            Point::new(0.25, 0.75),
            Point::new(0.75, 0.25),
            Point::new(0.125, 0.0),
            Point::new(0.125, 0.5),
            Point::new(0.9, 0.9),
        ];
        for (hint, radius) in [(0.25, 0.5), (0.25, 0.50001), (0.25, 0.71), (0.1, 0.5001)] {
            assert_sweep_exact(&pts, hint, radius, None);
        }
    }

    #[test]
    fn sweep_exact_on_cell_boundaries() {
        // A lattice on the cell boundaries x = k/s, y = j/s, at radii just
        // under, at and over the lattice spacing, plus points a hair off
        // the boundaries.
        let s = 10;
        let mut pts: Vec<Point> = (0..s * s)
            .map(|i| Point::new((i % s) as f64 / s as f64, (i / s) as f64 / s as f64))
            .collect();
        for k in [1, 4, 9] {
            let x = k as f64 / s as f64;
            pts.push(Point::new(x - 1e-12, 0.55));
            pts.push(Point::new(x + 1e-12, 0.55));
        }
        for radius in [0.099_999_9, 0.1, 0.100_000_1, 0.05] {
            assert_sweep_exact(&pts, 0.1, radius, None);
        }
    }

    #[test]
    fn sweep_exact_with_coincident_points() {
        let a = Point::new(0.3, 0.3);
        let b = Point::new(0.7, 0.2);
        let pts = vec![a, a, b, a, b, Point::new(0.71, 0.2), Point::new(0.1, 0.9)];
        assert_sweep_exact(&pts, 0.05, 0.05, None);
        // Exactly two coincident points are each other's unique neighbor.
        assert_sweep_exact(&[b, b, a], 0.05, 0.05, None);
    }

    #[test]
    fn sweep_exact_across_the_wrap() {
        // Pairs across the last-row/row-0 and last-col/col-0 seams, and the
        // corner, on a grid whose cells are exactly the radius.
        let pts = vec![
            Point::new(0.999, 0.5),
            Point::new(0.001, 0.5),
            Point::new(0.3, 0.999),
            Point::new(0.3, 0.004),
            Point::new(0.998, 0.998),
            Point::new(0.002, 0.003),
            Point::new(0.6, 0.6),
        ];
        for radius in [0.005, 0.01] {
            assert_sweep_exact(&pts, 0.01, radius, None);
        }
        let pts = random_points(500, 409);
        assert_sweep_exact(&pts, 0.05, 0.05, None);
    }

    #[test]
    fn sweep_exact_for_radii_above_the_hint() {
        // Reach 2 and beyond take the block fallback; a block that wraps
        // past the grid takes the whole-grid fallback.
        let pts = random_points(400, 419);
        for radius in [0.03, 0.05, 0.3, 0.5] {
            assert_sweep_exact(&pts, 0.02, radius, None);
        }
        let pts = random_points(60, 421);
        assert_sweep_exact(&pts, 0.4, 0.3, None);
        assert_sweep_exact(&pts, 1.0, 0.2, None);
    }

    #[test]
    fn sweep_exact_with_all_dead_and_one_alive() {
        let pts = random_points(300, 431);
        let dead = vec![false; pts.len()];
        assert_sweep_exact(&pts, 0.1, 0.1, Some(&dead));
        let mut one = dead.clone();
        one[17] = true;
        assert_sweep_exact(&pts, 0.1, 0.1, Some(&one));
        // A dead point between two live ones neither pairs nor blocks.
        let pts = vec![
            Point::new(0.5, 0.5),
            Point::new(0.51, 0.5),
            Point::new(0.52, 0.5),
        ];
        assert_sweep_exact(&pts, 0.05, 0.015, Some(&[true, false, true]));
        assert_sweep_exact(&pts, 0.05, 0.025, Some(&[true, false, true]));
    }

    #[test]
    fn pair_kernel_matches_brute_force() {
        for (n, radius, seed) in [(2usize, 0.4, 101u64), (150, 0.07, 103), (500, 0.02, 107)] {
            let pts = random_points(n, seed);
            let hash = SpatialHash::build(&pts, clamp_index_radius(radius));
            let mut got = Vec::new();
            hash.for_each_pair_within(radius, |i, j| {
                assert!(i < j);
                got.push((i, j));
            });
            got.sort_unstable();
            let mut want = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    if pts[i].torus_dist_sq(pts[j]) < radius * radius {
                        want.push((i, j));
                    }
                }
            }
            assert_eq!(got, want, "n={n} radius={radius}");
            // Exactly once: no duplicates even with wrap-around blocks.
            assert!(got.windows(2).all(|w| w[0] != w[1]));
        }
    }

    #[test]
    fn block_population_upper_bounds_disk_count() {
        let pts = random_points(300, 109);
        let radius = 0.05;
        let hash = SpatialHash::build(&pts, radius);
        for (id, &p) in pts.iter().enumerate() {
            let pop = hash.block_population(id, radius);
            let within = hash.count_within(p, radius);
            assert!(pop >= within, "id {id}: block {pop} < disk {within}");
            assert!(pop >= 1, "block must include the point itself");
        }
    }

    /// Streams `pts` in chunks of `chunk` through the streamed builder.
    fn build_streamed(pts: &[Point], radius: f64, chunk: usize) -> SpatialHash {
        let mut hash = SpatialHash::new();
        hash.try_rebuild_streamed(pts.len(), radius, |emit| {
            for c in pts.chunks(chunk.max(1)) {
                emit(c);
            }
        })
        .expect("streamed build");
        hash
    }

    #[test]
    fn streamed_build_matches_materialized() {
        for (n, radius, chunk, seed) in [
            (400usize, 0.05, 64usize, 211u64),
            (400, 0.05, 1, 211),
            (400, 0.05, 1000, 211),
            (1000, 0.01, 37, 223),
            (3, 0.3, 2, 227),
            (0, 0.1, 8, 229),
        ] {
            let pts = random_points(n, seed);
            let fresh = SpatialHash::build(&pts, radius);
            let streamed = build_streamed(&pts, radius, chunk);
            assert_eq!(streamed.csr_layout(), fresh.csr_layout(), "n={n}");
            assert_eq!(streamed.xs, fresh.xs);
            assert_eq!(streamed.ys, fresh.ys);
            assert_eq!(streamed.cell_scratch, fresh.cell_scratch);
            assert_eq!(streamed.len(), n);
            assert_eq!(streamed.is_empty(), n == 0);
            for (id, &p) in pts.iter().enumerate() {
                assert_eq!(streamed.position(id), p, "position {id}");
            }
            // Kernels read only the CSR + SoA state, so equal layouts give
            // equal answers; spot-check the guard-zone kernel end to end.
            let mut scratch = OccupancyScratch::default();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            streamed.unique_neighbors_into(radius, None, &mut scratch, &mut a);
            fresh.unique_neighbors_into(radius, None, &mut scratch, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn streamed_build_reuses_buffers_across_slots() {
        let radius = 0.05;
        let mut pts = random_points(500, 233);
        let mut hash = build_streamed(&pts, radius, 100);
        for slot in 0..5 {
            pts = drift(&pts, 1e-3, 2000 + slot);
            let p = pts.clone();
            hash.try_rebuild_streamed(p.len(), radius, |emit| {
                for c in p.chunks(100) {
                    emit(c);
                }
            })
            .unwrap();
            assert_same_layout_streamed(&hash, &SpatialHash::build(&pts, radius));
        }
    }

    fn assert_same_layout_streamed(streamed: &SpatialHash, fresh: &SpatialHash) {
        assert_eq!(streamed.csr_layout(), fresh.csr_layout());
        assert_eq!(streamed.xs, fresh.xs);
        assert_eq!(streamed.ys, fresh.ys);
        assert_eq!(streamed.cell_scratch, fresh.cell_scratch);
    }

    #[test]
    fn streamed_build_rejects_length_mismatch() {
        let pts = random_points(20, 239);
        let mut hash = SpatialHash::new();
        let err = hash
            .try_rebuild_streamed(21, 0.05, |emit| emit(&pts))
            .unwrap_err();
        assert!(matches!(err, HycapError::Mismatch { .. }), "{err}");
        let err = hash
            .try_rebuild_streamed(19, 0.05, |emit| emit(&pts))
            .unwrap_err();
        assert!(matches!(err, HycapError::Mismatch { .. }), "{err}");
    }

    /// Asserts `hash` is empty and answers every query with nothing.
    fn assert_empty_index(hash: &SpatialHash) {
        assert_eq!(hash.len(), 0);
        assert!(hash.is_empty());
        assert_eq!(hash.csr_layout(), (&[][..], &[][..], &[][..]));
        assert!(hash.query(Point::new(0.5, 0.5), 0.5).is_empty());
        assert_eq!(hash.count_within(Point::new(0.5, 0.5), 0.5), 0);
        let mut scratch = OccupancyScratch::default();
        let mut out = vec![7];
        hash.unique_neighbors_into(0.05, None, &mut scratch, &mut out);
        assert!(out.is_empty());
        let mut pairs = 0;
        hash.for_each_pair_within(0.5, |_, _| pairs += 1);
        assert_eq!(pairs, 0);
    }

    #[test]
    fn failed_streamed_build_leaves_the_index_empty() {
        let radius = 0.05;
        let pts = random_points(31, 241);
        let mut hash = build_streamed(&pts[..20], radius, 8);
        assert_eq!(hash.len(), 20);
        // Overflow: 31 points streamed against a declared 30.
        let err = hash
            .try_rebuild_streamed(30, radius, |emit| emit(&pts))
            .unwrap_err();
        assert!(
            matches!(
                err,
                HycapError::Mismatch {
                    left: 31,
                    right: 30,
                    ..
                }
            ),
            "{err}"
        );
        assert_empty_index(&hash);
        // Underflow and a violated contract leave it empty too.
        let mut hash = build_streamed(&pts[..20], radius, 8);
        assert!(hash
            .try_rebuild_streamed(30, radius, |emit| emit(&pts[..29]))
            .is_err());
        assert_empty_index(&hash);
        let mut hash = build_streamed(&pts[..20], radius, 8);
        assert!(hash
            .try_rebuild_streamed(20, f64::NAN, |emit| emit(&pts[..20]))
            .is_err());
        assert_empty_index(&hash);
        // The emptied index rebuilds normally.
        hash.try_rebuild_streamed(31, radius, |emit| emit(&pts))
            .unwrap();
        assert_same_layout_streamed(&hash, &SpatialHash::build(&pts, radius));
    }

    #[test]
    fn streamed_build_invokes_the_stream_once() {
        let pts = random_points(300, 251);
        let mut hash = SpatialHash::new();
        for (len, chunk) in [(300usize, 64usize), (300, 300), (299, 64), (301, 64)] {
            let mut calls = 0;
            let built = hash.try_rebuild_streamed(len, 0.05, |emit| {
                calls += 1;
                for c in pts.chunks(chunk) {
                    emit(c);
                }
            });
            assert_eq!(built.is_ok(), len == pts.len());
            assert_eq!(calls, 1, "len={len} chunk={chunk}");
        }
    }

    #[test]
    fn streamed_build_accepts_a_non_replayable_stream() {
        let radius = 0.05;
        let mut hash = SpatialHash::new();
        let mut call = 0u64;
        for _ in 0..3 {
            // Every invocation draws fresh points: a second call would not
            // replay the first.
            let mut emitted = Vec::new();
            hash.try_rebuild_streamed(400, radius, |emit| {
                call += 1;
                let fresh = random_points(400, 9000 + call);
                for c in fresh.chunks(57) {
                    emitted.extend_from_slice(c);
                    emit(c);
                }
            })
            .unwrap();
            let fresh = SpatialHash::build(&emitted, radius);
            assert_same_layout_streamed(&hash, &fresh);
            for (id, &p) in emitted.iter().enumerate() {
                assert_eq!(hash.position(id), p);
            }
        }
    }

    #[test]
    fn constructor_contract_checked_conversion() {
        // The u32 id capacity: one past the cap is rejected without ever
        // allocating (the check is pure arithmetic on the length).
        let err = SpatialHash::check_build_inputs(u32::MAX as usize + 1, 0.1).unwrap_err();
        assert!(
            matches!(err, HycapError::InvalidParameter { name: "points", .. }),
            "{err}"
        );
        assert!(err.to_string().contains("u32 id capacity"));
        assert!(SpatialHash::check_build_inputs(u32::MAX as usize, 0.1).is_ok());
        // Degenerate radii go through the same contract.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = SpatialHash::check_build_inputs(10, bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    HycapError::InvalidParameter {
                        name: "max_radius",
                        ..
                    }
                ),
                "{err}"
            );
        }
        // The try_ builders surface the same error instead of panicking.
        let pts = random_points(10, 241);
        let mut hash = SpatialHash::new();
        assert!(hash.try_rebuild(&pts, f64::NAN).is_err());
        assert!(hash.try_rebuild(&pts, 0.1).is_ok());
        assert!(hash.try_update(&pts, -0.5).is_err());
        assert_eq!(hash.try_update(&pts, 0.1).unwrap(), RebuildKind::Unchanged);
    }

    #[test]
    fn cell_morton_is_geometry_determined() {
        let pts = random_points(200, 251);
        let radius = 0.06;
        let hash = SpatialHash::build(&pts, radius);
        let grid = SquareGrid::with_cells_per_side(cells_for_radius(radius));
        for (id, &p) in pts.iter().enumerate() {
            assert_eq!(hash.cell_morton_of(id), grid.cell_of(p).morton());
        }
        // Identical under any permutation of the input.
        let mut perm: Vec<usize> = (0..pts.len()).collect();
        perm.reverse();
        let shuffled: Vec<Point> = perm.iter().map(|&i| pts[i]).collect();
        let hash2 = SpatialHash::build(&shuffled, radius);
        for (new_id, &old_id) in perm.iter().enumerate() {
            assert_eq!(hash2.cell_morton_of(new_id), hash.cell_morton_of(old_id));
        }
    }

    #[test]
    fn clamp_index_radius_bounds() {
        assert_eq!(clamp_index_radius(0.5), MAX_INDEX_RADIUS);
        assert_eq!(clamp_index_radius(0.0), MIN_INDEX_RADIUS);
        assert_eq!(clamp_index_radius(0.1), 0.1);
        // Below the floor the hard cell cap makes the clamp lossless: both
        // radii map to the same maximal grid.
        assert_eq!(cells_for_radius(MIN_INDEX_RADIUS), 2048);
        assert_eq!(cells_for_radius(1e-9), 2048);
        assert_eq!(cells_for_radius(MAX_INDEX_RADIUS), 4);
    }
}
