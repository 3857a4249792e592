//! Grid-bucket spatial index for fast radius queries on the torus.
//!
//! The scheduler `S*` (Definition 10) must, for every candidate link, check
//! that no third node lies inside the guard zone of either endpoint. A naive
//! implementation is `O(n²)` per slot; bucketing positions into a grid whose
//! cell side is at least the query radius makes each query `O(1)` expected
//! for the densities that occur in the paper's regimes.
//!
//! The index stores its buckets in a flat CSR (compressed sparse row)
//! layout — one contiguous id array plus per-cell offsets — so that
//! [`SpatialHash::rebuild`] can re-index a fresh snapshot of positions
//! without allocating: the Monte-Carlo engines call it once per slot, and
//! after the first slot every rebuild reuses the buffers grown by the
//! previous one.
//!
//! Three layers of structure keep the per-slot cost down:
//!
//! 1. **Incremental re-indexing** ([`SpatialHash::update`]): the paper's
//!    mobility model confines each node to a `Θ(1/f(n))` disk around its
//!    home-point, so cell membership is overwhelmingly stable from one slot
//!    to the next. `update` patches only the CSR suffix that actually
//!    changed (a counting-sort repair) and falls back to a full
//!    [`SpatialHash::rebuild`] when churn is high.
//! 2. **Cell-occupancy arithmetic** ([`SpatialHash::unique_neighbors_into`],
//!    [`SpatialHash::block_population`]): most guard-zone questions are
//!    decidable from per-cell population counts alone — an empty 3×3 block
//!    means isolated, a crowded cell means "cannot be a singleton" — so the
//!    exact `torus_dist_sq` checks run only for the ambiguous sliver.
//! 3. **Locality-ordered SoA buffers**: positions are mirrored into
//!    cell-sorted `xs`/`ys` arrays so kernel passes stream memory in cell
//!    order instead of chasing ids through the original snapshot.

use crate::{Point, SquareGrid};
use hycap_errors::HycapError;

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

/// Incremental `update` falls back to a full rebuild when more than
/// `1 / CHURN_FALLBACK_DENOM` of the points changed cell: beyond that the
/// suffix repair tends to start near cell 0 and re-place almost everything
/// anyway, so the plain counting sort is cheaper and touches memory once.
const CHURN_FALLBACK_DENOM: usize = 4;

/// How the most recent [`SpatialHash::rebuild`] / [`SpatialHash::update`]
/// refreshed the index. Exposed for tests and benches that want to assert
/// the delta path actually engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebuildKind {
    /// Full counting-sort rebuild of the CSR layout.
    #[default]
    Full,
    /// Suffix-only counting-sort repair: only cells at or after the first
    /// dirty cell were re-placed.
    Incremental,
    /// No point changed cell; only positions and the SoA mirror were
    /// refreshed.
    Unchanged,
}

/// Reusable scratch for the cell-occupancy kernels
/// ([`SpatialHash::unique_neighbors_into`]).
///
/// Owning this outside the hash keeps the kernels `&self` (so they can run
/// while the caller holds other borrows) without allocating per call: slot
/// workspaces hold one and reuse it across every slot.
#[derive(Debug, Clone, Default)]
pub struct OccupancyScratch {
    /// Per-cell *alive* population counts (masked kernels only).
    counts: Vec<u32>,
    /// Flat indices of the current cell's block, deduplicated for wrap.
    block: Vec<u32>,
}

/// The number of grid cells per side for a given cell-sizing radius: cell
/// side `>= max_radius` so a radius-`r` query needs only the block of cells
/// around the query point, with a hard cap bounding memory for tiny radii.
#[inline]
fn cells_for_radius(max_radius: f64) -> usize {
    (1.0 / max_radius).floor().clamp(1.0, 2048.0) as usize
}

/// Counting pass of the CSR counting sort over one run of points: appends
/// each point's flat cell to `cell_scratch` and bumps that cell's population
/// in `starts[cell + 1]`.
#[inline]
fn count_cells(
    grid: SquareGrid,
    points: &[Point],
    starts: &mut [u32],
    cell_scratch: &mut Vec<u32>,
) {
    for &p in points {
        let c = grid.cell_of(p).index() as u32;
        cell_scratch.push(c);
        starts[c as usize + 1] += 1;
    }
}

/// Chebyshev cell reach covering a radius-`radius` disk: any point within
/// torus distance `radius` of a point in cell `c` lies within
/// `⌈radius / cell_len⌉` cells of `c` along each axis.
#[inline]
fn block_reach(radius: f64, cell_len: f64) -> isize {
    ((radius / cell_len).ceil() as isize).max(1)
}

/// Visits the flat index of every *distinct* cell in the `(2bc+1)²` block
/// centered on `(row, col)`, collapsing to one whole-grid sweep when the
/// block wraps past the grid size (so no cell is visited twice).
#[inline]
fn for_each_block_cell<F: FnMut(usize)>(
    grid: SquareGrid,
    row: usize,
    col: usize,
    bc: isize,
    mut f: F,
) {
    let s = grid.cells_per_side() as isize;
    let whole = 2 * bc + 1 >= s;
    let (lo, hi) = if whole { (0, s - 1) } else { (-bc, bc) };
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
            f(grid.cell(r, c).index());
        }
    }
}

/// A spatial hash of indexed points on the unit torus.
///
/// Buckets live in a flat CSR layout: `ids` holds the point ids of every
/// cell back to back, cell `c` owning `ids[starts[c]..starts[c + 1]]`.
/// Within a cell, ids are in increasing order (the rebuild pass scans the
/// input slice in order), which keeps query iteration order identical to
/// the historical `Vec<Vec<u32>>` bucket implementation. Alongside `ids`,
/// the positions are mirrored into cell-sorted SoA arrays `xs`/`ys` so the
/// hot kernels stream coordinates in cell order.
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
    /// Point ids of every cell, back to back in cell order (CSR values).
    ids: Vec<u32>,
    /// Per-cell offsets into `ids`; length `cell_count + 1` (CSR offsets).
    starts: Vec<u32>,
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
    /// Rebuild scratch: the flat cell index of each point, in id order.
    /// Written by the counting pass (for a streamed build, while the
    /// stream runs), read by the placement pass, and kept across `update`
    /// calls.
    cell_scratch: Vec<u32>,
    /// Streamed-build scratch: the streamed positions in id order, staged
    /// by the counting pass so placement need not run the stream again.
    /// Reserved once to exactly the declared length and reused across
    /// slots; materialized builds leave it untouched.
    staged: Vec<Point>,
    /// `update` scratch: the new flat cell index of each point.
    next_cells: Vec<u32>,
    /// `update` scratch: per-cell population counts over the dirty suffix.
    update_counts: Vec<u32>,
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
    /// additionally skips the full counting sort when few points changed
    /// cell.
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
        // Cell side >= max_radius so that a radius-r query only needs the
        // 3x3 (or slightly larger) block of cells around the query point.
        // Cap the cell count for tiny radii to bound memory.
        let cells = cells_for_radius(max_radius);
        let grid = match self.grid {
            Some(g) if g.cells_per_side() == cells => g,
            _ => SquareGrid::with_cells_per_side(cells),
        };
        self.cell_len = grid.cell_len();
        self.points.clear();
        self.points.extend_from_slice(points);
        self.begin_count(grid, points.len());
        count_cells(grid, points, &mut self.starts, &mut self.cell_scratch);
        self.place::<false>(points);
        self.grid = Some(grid);
        self.last_rebuild = RebuildKind::Full;
    }

    /// Resets the counting-pass state for `len` points on `grid`: zeroed
    /// per-cell counts and an empty `cell_scratch` with room for exactly
    /// `len` cell ids, so the counting pass never reallocates.
    fn begin_count(&mut self, grid: SquareGrid, len: usize) {
        self.starts.clear();
        self.starts.resize(grid.cell_count() + 1, 0);
        self.cell_scratch.clear();
        self.cell_scratch.reserve_exact(len);
    }

    /// Placement pass of the counting sort, after the counting pass left
    /// the population of cell `c` in `starts[c + 1]` and the cell of every
    /// point in `cell_scratch`. Scans `points` in id order so each cell's
    /// ids come out increasing (the order the historical per-cell Vecs
    /// received them) and fills the SoA mirror in the same sweep; with
    /// `INVERSE`, also fills `slot_of`.
    fn place<const INVERSE: bool>(&mut self, points: &[Point]) {
        let cell_count = self.starts.len() - 1;
        // Prefix sum: starts[c] = first slot of cell c.
        for c in 0..cell_count {
            self.starts[c + 1] += self.starts[c];
        }
        let len = points.len();
        self.ids.clear();
        self.ids.resize(len, 0);
        self.xs.clear();
        self.xs.resize(len, 0.0);
        self.ys.clear();
        self.ys.resize(len, 0.0);
        self.slot_of.clear();
        if INVERSE {
            self.slot_of.resize(len, 0);
        }
        // starts[c] serves as the cursor of cell c.
        for (id, (&cell, &p)) in self.cell_scratch.iter().zip(points).enumerate() {
            let slot = self.starts[cell as usize] as usize;
            self.ids[slot] = id as u32;
            self.xs[slot] = p.x;
            self.ys[slot] = p.y;
            if INVERSE {
                self.slot_of[id] = slot as u32;
            }
            self.starts[cell as usize] = slot as u32 + 1;
        }
        // After placement starts[c] holds the *end* of cell c; shift right
        // to restore "starts[c] = begin of cell c".
        for c in (1..=cell_count).rev() {
            self.starts[c] = self.starts[c - 1];
        }
        self.starts[0] = 0;
    }

    /// Empties the index, keeping its buffers for reuse: afterwards
    /// `len() == 0` and every query returns nothing.
    fn clear(&mut self) {
        self.grid = None;
        self.ids.clear();
        self.starts.clear();
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
    /// and the per-cell populations counted, and its coordinates are
    /// staged in an index-owned buffer reserved to exactly `len` points;
    /// the placement pass then scatters from that buffer into cell order.
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
        let cells = cells_for_radius(max_radius);
        let grid = match self.grid {
            Some(g) if g.cells_per_side() == cells => g,
            _ => SquareGrid::with_cells_per_side(cells),
        };
        self.cell_len = grid.cell_len();
        self.points.clear();
        self.begin_count(grid, len);
        self.staged.clear();
        self.staged.reserve_exact(len);

        // The one pass over the stream: count and stage. Points past `len`
        // are only counted, so neither buffer outgrows its reservation;
        // the overflow is rejected below.
        let mut emitted = 0usize;
        {
            let starts = &mut self.starts;
            let cell_scratch = &mut self.cell_scratch;
            let staged = &mut self.staged;
            stream(&mut |chunk: &[Point]| {
                let take = chunk.len().min(len - staged.len());
                count_cells(grid, &chunk[..take], starts, cell_scratch);
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
        let staged = std::mem::take(&mut self.staged);
        self.place::<true>(&staged);
        self.staged = staged;
        self.grid = Some(grid);
        self.last_rebuild = RebuildKind::Full;
        Ok(())
    }

    /// Re-indexes a new snapshot of the *same* population, patching the CSR
    /// layout incrementally when little has changed.
    ///
    /// Produces a layout byte-identical to [`SpatialHash::rebuild`] on the
    /// same input. Three paths, reported by the return value:
    ///
    /// - [`RebuildKind::Unchanged`]: no point changed cell; only the stored
    ///   positions and the SoA mirror are refreshed (`O(n)`).
    /// - [`RebuildKind::Incremental`]: a bounded fraction of points changed
    ///   cell; the CSR suffix starting at the first dirty cell is repaired
    ///   with a counting sort over the affected cells only. Cells (and the
    ///   id prefix) before the first dirty cell are untouched because every
    ///   move's source and destination cell lie at or after it.
    /// - [`RebuildKind::Full`]: the snapshot has a different length, maps to
    ///   a different grid resolution, or more than `1/4` of the points
    ///   changed cell — delegate to [`SpatialHash::rebuild`].
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
        let cell_count = grid.cell_count();
        // Pass 1: the new cell of every point; count churn and track the
        // first cell whose CSR range can change. A move from cell a to cell
        // b only perturbs offsets at or after min(a, b).
        self.next_cells.clear();
        let mut churn = 0usize;
        let mut first_dirty = cell_count;
        for (id, &p) in points.iter().enumerate() {
            let c = grid.cell_of(p).index() as u32;
            self.next_cells.push(c);
            let old = self.cell_scratch[id];
            if c != old {
                churn += 1;
                first_dirty = first_dirty.min(old.min(c) as usize);
            }
        }
        if churn * CHURN_FALLBACK_DENOM > points.len() {
            // Full counting sort, but counted from the cells pass 1 just
            // computed: i.i.d. mobility lands here every slot, and a
            // `rebuild` would compute every point's cell a second time.
            std::mem::swap(&mut self.cell_scratch, &mut self.next_cells);
            self.points.clear();
            self.points.extend_from_slice(points);
            self.starts.clear();
            self.starts.resize(cell_count + 1, 0);
            for &c in &self.cell_scratch {
                self.starts[c as usize + 1] += 1;
            }
            self.place::<false>(points);
            self.last_rebuild = RebuildKind::Full;
            return RebuildKind::Full;
        }
        let kind = if churn == 0 {
            RebuildKind::Unchanged
        } else {
            RebuildKind::Incremental
        };
        if churn > 0 {
            // Counting-sort repair of the suffix [first_dirty, cell_count):
            // derive new per-cell counts by patching the old ones (readable
            // from the still-intact starts), prefix-sum from the unchanged
            // base offset, and re-place exactly the ids living in the
            // suffix — in increasing id order, preserving the per-cell id
            // ordering invariant of `rebuild`.
            let base = self.starts[first_dirty];
            self.update_counts.clear();
            self.update_counts
                .extend((first_dirty..cell_count).map(|c| self.starts[c + 1] - self.starts[c]));
            for (id, &c) in self.next_cells.iter().enumerate() {
                let old = self.cell_scratch[id];
                if c != old {
                    self.update_counts[old as usize - first_dirty] -= 1;
                    self.update_counts[c as usize - first_dirty] += 1;
                }
            }
            let mut running = base;
            for (off, &cnt) in self.update_counts.iter().enumerate() {
                self.starts[first_dirty + off] = running;
                running += cnt;
            }
            debug_assert_eq!(running as usize, points.len());
            for (id, &c) in self.next_cells.iter().enumerate() {
                let c = c as usize;
                if c < first_dirty {
                    continue;
                }
                let slot = self.starts[c];
                self.ids[slot as usize] = id as u32;
                self.starts[c] = slot + 1;
            }
            for c in ((first_dirty + 1)..=cell_count).rev() {
                self.starts[c] = self.starts[c - 1];
            }
            self.starts[first_dirty] = base;
        }
        std::mem::swap(&mut self.cell_scratch, &mut self.next_cells);
        self.points.clear();
        self.points.extend_from_slice(points);
        // Every position moves every slot even when no cell does: refresh
        // the cell-ordered SoA mirror wholesale (sequential write, cheap).
        for (slot, &id) in self.ids.iter().enumerate() {
            let p = points[id as usize];
            self.xs[slot] = p.x;
            self.ys[slot] = p.y;
        }
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
            let slot = self.slot_of[id] as usize;
            Point {
                x: self.xs[slot],
                y: self.ys[slot],
            }
        } else {
            self.points[id]
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

    /// The ids bucketed in flat cell `idx`, in increasing order.
    #[cfg(test)]
    fn cell_ids(&self, idx: usize) -> &[u32] {
        &self.ids[self.starts[idx] as usize..self.starts[idx + 1] as usize]
    }

    /// The raw CSR layout `(starts, ids)` of the index.
    ///
    /// Test-only accessor for cross-crate equivalence checks (incremental
    /// `update` vs fresh `build`); not part of the supported API surface.
    #[doc(hidden)]
    pub fn csr_layout(&self) -> (&[u32], &[u32]) {
        (&self.starts, &self.ids)
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

    /// Calls `f(id)` for every point strictly within `radius` of `center`.
    ///
    /// This is the allocation-free radius visitor; iteration order is the
    /// fixed cell-block order relied upon by the deterministic schedulers.
    pub fn for_each_within<F: FnMut(usize)>(&self, center: Point, radius: f64, mut f: F) {
        let Some(grid) = self.grid else { return };
        let r2 = radius * radius;
        let s = grid.cells_per_side() as isize;
        let reach = (radius / self.cell_len).ceil() as isize + 1;
        let home = grid.cell_of(center);
        // When the reach covers the whole grid, visit each cell exactly once.
        let (lo, hi) = if 2 * reach + 1 >= s {
            (0, s - 1)
        } else {
            (-reach, reach)
        };
        let whole = 2 * reach + 1 >= s;
        for dr in lo..=hi {
            for dc in lo..=hi {
                let (row, col) = if whole {
                    (dr as usize, dc as usize)
                } else {
                    (
                        (home.row() as isize + dr).rem_euclid(s) as usize,
                        (home.col() as isize + dc).rem_euclid(s) as usize,
                    )
                };
                let idx = grid.cell(row, col).index();
                for t in self.starts[idx] as usize..self.starts[idx + 1] as usize {
                    // Stream the cell-sorted SoA mirror; coordinates are
                    // bit-identical to the stored points.
                    let q = Point {
                        x: self.xs[t],
                        y: self.ys[t],
                    };
                    if q.torus_dist_sq(center) < r2 {
                        f(self.ids[t] as usize);
                    }
                }
            }
        }
    }

    /// Returns `true` when any indexed point other than those in `exclude`
    /// lies strictly within `radius` of `center`.
    ///
    /// This is the primitive used for the guard-zone test of scheduler `S*`:
    /// "for every other node `l`, `min(d_lj, d_li) > (1+Δ)R_T`".
    pub fn any_within_excluding(&self, center: Point, radius: f64, exclude: &[usize]) -> bool {
        let Some(grid) = self.grid else { return false };
        let r2 = radius * radius;
        let s = grid.cells_per_side() as isize;
        let reach = (radius / self.cell_len).ceil() as isize + 1;
        let home = grid.cell_of(center);
        let (lo, hi) = if 2 * reach + 1 >= s {
            (0, s - 1)
        } else {
            (-reach, reach)
        };
        let whole = 2 * reach + 1 >= s;
        for dr in lo..=hi {
            for dc in lo..=hi {
                let (row, col) = if whole {
                    (dr as usize, dc as usize)
                } else {
                    (
                        (home.row() as isize + dr).rem_euclid(s) as usize,
                        (home.col() as isize + dc).rem_euclid(s) as usize,
                    )
                };
                let idx = grid.cell(row, col).index();
                for t in self.starts[idx] as usize..self.starts[idx + 1] as usize {
                    let id = self.ids[t] as usize;
                    let q = Point {
                        x: self.xs[t],
                        y: self.ys[t],
                    };
                    if !exclude.contains(&id) && q.torus_dist_sq(center) < r2 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Counts indexed points strictly within `radius` of `center`.
    pub fn count_within(&self, center: Point, radius: f64) -> usize {
        let mut n = 0;
        self.for_each_within(center, radius, |_| n += 1);
        n
    }

    /// Fills `counts` with the per-cell population of *alive* points:
    /// `counts[c]` is the number of ids in cell `c` with `alive[id]`.
    ///
    /// `O(n + cell_count)`; the masked occupancy kernels call this once per
    /// slot so per-node scans can prune on exact alive counts.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from [`SpatialHash::len`].
    pub fn fill_alive_cell_counts(&self, alive: &[bool], counts: &mut Vec<u32>) {
        assert_eq!(alive.len(), self.ids.len(), "alive mask length mismatch");
        let cell_count = self.starts.len().saturating_sub(1);
        counts.clear();
        counts.resize(cell_count, 0);
        for (id, &c) in self.cell_scratch.iter().enumerate() {
            if alive[id] {
                counts[c as usize] += 1;
            }
        }
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
        let c = self.cell_scratch[id] as usize;
        let s = grid.cells_per_side();
        let bc = block_reach(radius, self.cell_len);
        let mut pop = 0usize;
        for_each_block_cell(grid, c / s, c % s, bc, |idx| {
            pop += (self.starts[idx + 1] - self.starts[idx]) as usize;
        });
        pop
    }

    /// The singleton-guard-zone kernel of scheduler `S*`: for every alive
    /// point `i`, sets `out[i]` to the id of the *unique* alive point
    /// strictly within `radius` of `i`, or `usize::MAX` when `i` has zero
    /// or more than one such neighbor (or is itself dead).
    ///
    /// Result-identical to running the naive per-node radius scan, but
    /// decided from cell-occupancy arithmetic wherever possible:
    ///
    /// - cells whose covering block holds `<= 1` (alive) point are skipped
    ///   wholesale — every member is isolated;
    /// - when the cell diagonal fits inside `radius`, a cell with `>= 3`
    ///   alive members cannot contain a singleton (each member already has
    ///   two strict neighbors), so the cell is skipped;
    /// - the remaining ambiguous sliver runs exact `torus_dist_sq` checks,
    ///   early-exiting each node's scan at the second hit (two neighbors
    ///   already disqualify a singleton regardless of the rest).
    ///
    /// Pass `alive: None` for the unmasked (fault-free) variant. The scan
    /// streams the cell-sorted SoA mirror, so iteration is cache-local in
    /// cell order; `out` is indexed by original point id.
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
        out.clear();
        out.resize(self.ids.len(), usize::MAX);
        let Some(grid) = self.grid else { return };
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        if let Some(mask) = alive {
            assert_eq!(mask.len(), self.ids.len(), "alive mask length mismatch");
        }
        let r2 = radius * radius;
        let s = grid.cells_per_side();
        let bc = block_reach(radius, self.cell_len);
        let cell_count = grid.cell_count();
        // With a mask, exact alive counts make both prunes exact; skip the
        // O(cell_count) pass only when the grid dwarfs the population
        // (tiny-radius regimes), where totals still give a sound bound.
        let masked_counts = match alive {
            Some(mask) if cell_count <= 4 * self.points.len().max(256) => {
                self.fill_alive_cell_counts(mask, &mut scratch.counts);
                true
            }
            _ => false,
        };
        let counts_exact = masked_counts || alive.is_none();
        // Any two points sharing a cell differ by < cell_len per axis, so
        // their distance is strictly below the cell diagonal.
        let same_cell_close = 2.0 * self.cell_len * self.cell_len <= r2;

        for c in 0..cell_count {
            let begin = self.starts[c] as usize;
            let end = self.starts[c + 1] as usize;
            if begin == end {
                continue;
            }
            scratch.block.clear();
            for_each_block_cell(grid, c / s, c % s, bc, |idx| scratch.block.push(idx as u32));
            let mut block_pop: u64 = 0;
            for &idx in &scratch.block {
                let idx = idx as usize;
                block_pop += if masked_counts {
                    u64::from(scratch.counts[idx])
                } else {
                    u64::from(self.starts[idx + 1] - self.starts[idx])
                };
            }
            // Prune 1: the block holds at most one point — each member sees
            // nobody but itself, so all stay MAX. (With a mask but without
            // alive counts the total still upper-bounds the alive count.)
            if block_pop <= 1 {
                continue;
            }
            // Prune 2: >= 3 alive members in this cell are pairwise within
            // radius, so each has >= 2 neighbors — no singleton here.
            if counts_exact && same_cell_close {
                let cell_pop = if masked_counts {
                    scratch.counts[c] as usize
                } else {
                    end - begin
                };
                if cell_pop >= 3 {
                    continue;
                }
            }
            // Ambiguous sliver: exact scan per alive member, early-exiting
            // at the second in-radius neighbor.
            for slot in begin..end {
                let i = self.ids[slot] as usize;
                if let Some(mask) = alive {
                    if !mask[i] {
                        continue;
                    }
                }
                let center = Point {
                    x: self.xs[slot],
                    y: self.ys[slot],
                };
                let mut count = 0u32;
                let mut only = usize::MAX;
                'scan: for &idx in &scratch.block {
                    let idx = idx as usize;
                    for t in self.starts[idx] as usize..self.starts[idx + 1] as usize {
                        let j = self.ids[t] as usize;
                        if j == i {
                            continue;
                        }
                        if let Some(mask) = alive {
                            if !mask[j] {
                                continue;
                            }
                        }
                        let q = Point {
                            x: self.xs[t],
                            y: self.ys[t],
                        };
                        if center.torus_dist_sq(q) < r2 {
                            count += 1;
                            if count >= 2 {
                                break 'scan;
                            }
                            only = j;
                        }
                    }
                }
                if count == 1 {
                    out[i] = only;
                }
            }
        }
    }

    /// The id of the *unique* indexed point strictly within `radius` of
    /// point `id`, or `usize::MAX` when `id` has zero or more than one such
    /// neighbor.
    ///
    /// This is the per-node form of the unmasked
    /// [`SpatialHash::unique_neighbors_into`] kernel and is result-identical
    /// to it: the batch kernel's occupancy prunes only skip work whose
    /// outcome is already decided, and the ambiguous sliver runs exactly
    /// this scan — a block sweep with an early exit at the second in-radius
    /// neighbor. Demand-driven schedulers use it to answer the `S*`
    /// singleton question for the handful of *active* nodes without paying
    /// the whole-network batch pass.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive, or `id` is out of
    /// range.
    pub fn unique_neighbor_within(&self, id: usize, radius: f64) -> usize {
        let Some(grid) = self.grid else {
            return usize::MAX;
        };
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        assert!(id < self.ids.len(), "point id {id} out of range");
        let r2 = radius * radius;
        let s = grid.cells_per_side();
        let bc = block_reach(radius, self.cell_len);
        let center = self.position(id);
        // Derive the home cell from the position (what `cell_scratch`
        // caches on the slice paths) so streamed builds work too.
        let c = grid.cell_of(center).index();
        // Inlined `for_each_block_cell` block walk: the closure form cannot
        // early-exit, and stopping at the second neighbor is the point.
        let si = s as isize;
        let whole = 2 * bc + 1 >= si;
        let (lo, hi) = if whole { (0, si - 1) } else { (-bc, bc) };
        let (row, col) = (c / s, c % s);
        let mut count = 0u32;
        let mut only = usize::MAX;
        'scan: for dr in lo..=hi {
            for dc in lo..=hi {
                let (r, cc) = if whole {
                    (dr as usize, dc as usize)
                } else {
                    (
                        (row as isize + dr).rem_euclid(si) as usize,
                        (col as isize + dc).rem_euclid(si) as usize,
                    )
                };
                let idx = grid.cell(r, cc).index();
                for t in self.starts[idx] as usize..self.starts[idx + 1] as usize {
                    let j = self.ids[t] as usize;
                    if j == id {
                        continue;
                    }
                    let q = Point {
                        x: self.xs[t],
                        y: self.ys[t],
                    };
                    if center.torus_dist_sq(q) < r2 {
                        count += 1;
                        if count >= 2 {
                            break 'scan;
                        }
                        only = j;
                    }
                }
            }
        }
        if count == 1 {
            only
        } else {
            usize::MAX
        }
    }

    /// Calls `f(i, j)` with `i < j` exactly once for every unordered pair of
    /// indexed points strictly within `radius` of each other.
    ///
    /// Visits each cell once and scans only its covering block, streaming
    /// the SoA mirror; emission order is unspecified. This is the
    /// allocation-free kernel behind contact counting.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not finite and positive.
    pub fn for_each_pair_within<F: FnMut(usize, usize)>(&self, radius: f64, mut f: F) {
        let Some(grid) = self.grid else { return };
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive, got {radius}"
        );
        let r2 = radius * radius;
        let s = grid.cells_per_side();
        let bc = block_reach(radius, self.cell_len);
        let cell_count = grid.cell_count();
        for c in 0..cell_count {
            let begin = self.starts[c] as usize;
            let end = self.starts[c + 1] as usize;
            if begin == end {
                continue;
            }
            // Each pair is emitted while processing the cell of its smaller
            // id: the `j > i` filter drops the mirror visit from the other
            // endpoint's cell (blocks are symmetric, so both visits occur).
            for_each_block_cell(grid, c / s, c % s, bc, |idx| {
                for t in self.starts[idx] as usize..self.starts[idx + 1] as usize {
                    let j = self.ids[t] as usize;
                    let q = Point {
                        x: self.xs[t],
                        y: self.ys[t],
                    };
                    for slot in begin..end {
                        let i = self.ids[slot] as usize;
                        if j > i {
                            let p = Point {
                                x: self.xs[slot],
                                y: self.ys[slot],
                            };
                            if p.torus_dist_sq(q) < r2 {
                                f(i, j);
                            }
                        }
                    }
                }
            });
        }
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
        for c in 0..hash.starts.len() - 1 {
            let cell = hash.cell_ids(c);
            assert!(cell.windows(2).all(|w| w[0] < w[1]), "cell {c}: {cell:?}");
        }
        let total: usize = hash.ids.len();
        assert_eq!(total, pts.len());
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
        let starts_cap = hash.starts.capacity();
        let points_cap = hash.points.capacity();
        hash.rebuild(&pts_b, 0.03);
        assert_eq!(hash.ids.capacity(), ids_cap);
        assert_eq!(hash.starts.capacity(), starts_cap);
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
    fn unique_neighbors_masked_tiny_radius_skips_alive_counts() {
        // Radius so small that the 2048-cap grid dwarfs the population:
        // the kernel must stay correct on the totals-only bound path.
        let mut scratch = OccupancyScratch::default();
        let mut out = Vec::new();
        let pts = random_points(100, 89);
        let alive: Vec<bool> = (0..100).map(|i| i % 3 != 0).collect();
        let hash = SpatialHash::build(&pts, clamp_index_radius(1e-6));
        hash.unique_neighbors_into(1e-3, Some(&alive), &mut scratch, &mut out);
        assert_eq!(out, brute_unique_neighbors(&pts, 1e-3, Some(&alive)));
    }

    #[test]
    fn unique_neighbors_dense_cluster_prunes_correctly() {
        // Everyone packed into one cell: the >=3-in-cell prune must not
        // misclassify, and the answer is "no singletons anywhere".
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

    #[test]
    fn per_node_unique_neighbor_matches_batch_kernel() {
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
            for id in 0..n {
                assert_eq!(
                    hash.unique_neighbor_within(id, radius),
                    out[id],
                    "n={n} id={id}"
                );
            }
        }
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
            // equal answers; spot-check the occupancy kernel end to end.
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
        assert_eq!(hash.csr_layout(), (&[][..], &[][..]));
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
