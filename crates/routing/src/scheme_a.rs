//! Optimal routing scheme A (Definition 11): squarelet-hop relaying that
//! exploits mobility.
//!
//! The torus is partitioned into squarelets of area `Θ(1/f²(n))`. Traffic
//! from squarelet `(i_s, j_s)` to `(i_d, j_d)` is first forwarded
//! horizontally along contiguous squarelets to `(i_s, j_d)` and then
//! vertically to the destination, each hop relaying on a random node whose
//! *home-point* lies in the adjacent squarelet. Because squarelet side
//! matches the mobility excursion `Θ(1/f)`, nodes with home-points in
//! adjacent squarelets meet with probability `Θ(1/n)` per slot under `S*`
//! (Corollary 1), giving per-node throughput `Θ(1/f(n))` (Lemma 5).

use crate::TrafficMatrix;
use hycap_geom::{Cell, GridPath, Point, SquareGrid};
use hycap_obs::{MetricsSink, Observer};
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

/// Canonical undirected squarelet-edge key: `(min cell index, max cell
/// index)`. A self-edge `(c, c)` carries the intra-squarelet traffic of
/// flows whose endpoints share a squarelet.
pub type EdgeKey = (usize, usize);

/// Returns the canonical key for a cell pair.
pub fn edge_key(a: Cell, b: Cell) -> EdgeKey {
    let (x, y) = (a.index(), b.index());
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

/// A compiled scheme-A routing plan: per-flow squarelet paths and the load
/// each squarelet edge carries.
///
/// # Example
///
/// ```
/// use hycap_routing::{SchemeAPlan, TrafficMatrix};
/// use hycap_geom::Point;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let homes: Vec<Point> = (0..50)
///     .map(|i| Point::new(0.02 * i as f64, 0.013 * i as f64))
///     .collect();
/// let traffic = TrafficMatrix::permutation(50, &mut rng);
/// let plan = SchemeAPlan::build(&homes, &traffic, 4.0);
/// assert_eq!(plan.paths().len(), 50);
/// assert!(plan.max_edge_load() >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SchemeAPlan {
    grid: SquareGrid,
    paths: Vec<GridPath>,
    edge_load: BTreeMap<EdgeKey, f64>,
    members: Vec<Vec<usize>>,
}

impl SchemeAPlan {
    /// Compiles the plan: squarelet side `1/f` (area `Θ(1/f²)`), horizontal-
    /// then-vertical paths between the *home-point* squarelets of each
    /// source–destination pair.
    ///
    /// # Panics
    ///
    /// Panics if `traffic.len() != homes.len()` or `f < 1`.
    pub fn build(homes: &[Point], traffic: &TrafficMatrix, f: f64) -> Self {
        let all: Vec<usize> = (0..traffic.len()).collect();
        Self::build_for_flows(homes, traffic, f, &all)
    }

    /// [`SchemeAPlan::build`] plus plan-shape metrics on the observer:
    /// flow count, mean hop count, the max squarelet-edge load and an
    /// `routing.scheme_a.edge_load` histogram over every used edge.
    ///
    /// # Panics
    ///
    /// Panics if `traffic.len() != homes.len()` or `f < 1`.
    pub fn build_observed<S: MetricsSink>(
        homes: &[Point],
        traffic: &TrafficMatrix,
        f: f64,
        obs: &mut Observer<S>,
    ) -> Self {
        let plan = Self::build(homes, traffic, f);
        if obs.sink.enabled() {
            obs.sink.counter("routing.scheme_a.plans", 1);
            obs.sink
                .counter("routing.scheme_a.flows", plan.paths.len() as u64);
            obs.sink
                .observe("routing.scheme_a.mean_hops", plan.mean_hops());
            obs.sink
                .observe("routing.scheme_a.max_edge_load", plan.max_edge_load());
            for &load in plan.edge_load.values() {
                obs.sink.observe("routing.scheme_a.edge_load", load);
            }
        }
        plan
    }

    /// Like [`SchemeAPlan::build`], but only the listed flows contribute
    /// load to the squarelet edges (paths are still compiled for every flow
    /// so ids stay aligned). Used by the L-maximum-hop hybrid plan to keep
    /// long flows off the ad hoc resources.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches, `f < 1`, or an out-of-range flow id.
    pub fn build_for_flows(
        homes: &[Point],
        traffic: &TrafficMatrix,
        f: f64,
        flows: &[usize],
    ) -> Self {
        assert_eq!(
            homes.len(),
            traffic.len(),
            "traffic matrix and home-point count must agree"
        );
        assert!(f >= 1.0 && f.is_finite(), "f(n) must be >= 1, got {f}");
        let active: std::collections::HashSet<usize> = flows.iter().copied().collect();
        assert!(
            active.iter().all(|&i| i < traffic.len()),
            "flow id out of range"
        );
        let grid = SquareGrid::with_squarelet_len(1.0 / f);
        let mut members = vec![Vec::new(); grid.cell_count()];
        for (i, &h) in homes.iter().enumerate() {
            members[grid.cell_of(h).index()].push(i);
        }
        // Hop loads accumulate in a hash map (about 10⁶ updates at
        // n = 10⁵) and are stored key-ordered; the sums are integer-valued,
        // so the order of the updates cannot change them.
        let mut edge_load: HashMap<EdgeKey, f64> = HashMap::new();
        let mut paths = Vec::with_capacity(traffic.len());
        for (s, d) in traffic.pairs() {
            let path = grid.scheme_a_path(grid.cell_of(homes[s]), grid.cell_of(homes[d]));
            if active.contains(&s) {
                if path.hops() == 0 {
                    // Same-squarelet flow: loads the intra-squarelet resource.
                    let c = path.cells()[0];
                    *edge_load.entry(edge_key(c, c)).or_insert(0.0) += 1.0;
                } else {
                    for (a, b) in path.links() {
                        *edge_load.entry(edge_key(a, b)).or_insert(0.0) += 1.0;
                    }
                }
            }
            paths.push(path);
        }
        SchemeAPlan {
            grid,
            paths,
            edge_load: edge_load.into_iter().collect(),
            members,
        }
    }

    /// The squarelet tessellation.
    pub fn grid(&self) -> &SquareGrid {
        &self.grid
    }

    /// Per-flow squarelet paths (indexed by flow = source id).
    pub fn paths(&self) -> &[GridPath] {
        &self.paths
    }

    /// The load (number of flows) on each used squarelet edge, in edge-key
    /// order.
    pub fn edge_load(&self) -> &BTreeMap<EdgeKey, f64> {
        &self.edge_load
    }

    /// Load on a specific edge (0 when unused).
    pub fn load_of(&self, a: Cell, b: Cell) -> f64 {
        self.edge_load.get(&edge_key(a, b)).copied().unwrap_or(0.0)
    }

    /// Maximum edge load — the denominator of the scheme's bottleneck.
    pub fn max_edge_load(&self) -> f64 {
        self.edge_load.values().copied().fold(0.0, f64::max)
    }

    /// Node ids whose home-point lies in the given cell.
    pub fn members_of(&self, cell: Cell) -> &[usize] {
        &self.members[cell.index()]
    }

    /// Mean hop count over all flows (the `Θ(f(n))` factor of Lemma 4's
    /// hop-count argument).
    pub fn mean_hops(&self) -> f64 {
        let total: usize = self.paths.iter().map(GridPath::hops).sum();
        total as f64 / self.paths.len() as f64
    }

    /// Materializes relay node sequences for the packet-level simulator:
    /// for each flow, the chain `[source, relay(cell_1), …, destination]`
    /// with a uniformly chosen home-point member per intermediate squarelet.
    /// Intermediate squarelets without any member are skipped (the previous
    /// holder carries the packet further — in uniformly dense regimes this
    /// does not occur w.h.p., cf. Lemma 1).
    pub fn materialize_relays<R: Rng + ?Sized>(
        &self,
        traffic: &TrafficMatrix,
        rng: &mut R,
    ) -> Vec<Vec<usize>> {
        let mut chains = Vec::with_capacity(self.paths.len());
        for ((s, d), path) in traffic.pairs().zip(&self.paths) {
            let mut chain = vec![s];
            let cells = path.cells();
            let interior = if cells.len() > 2 {
                &cells[1..cells.len() - 1]
            } else {
                &[][..]
            };
            for &cell in interior {
                let members = self.members_of(cell);
                // Exclude the endpoints themselves when possible.
                if members.is_empty() {
                    continue;
                }
                let pick = members[rng.gen_range(0..members.len())];
                if pick != s && pick != d && *chain.last().unwrap() != pick {
                    chain.push(pick);
                }
            }
            chain.push(d);
            chains.push(chain);
        }
        chains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_homes(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    #[test]
    fn build_creates_one_path_per_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let homes = uniform_homes(100, 2);
        let traffic = TrafficMatrix::permutation(100, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 5.0);
        assert_eq!(plan.paths().len(), 100);
        assert_eq!(plan.grid().cells_per_side(), 5);
    }

    #[test]
    fn edge_load_totals_match_hops() {
        let mut rng = StdRng::seed_from_u64(3);
        let homes = uniform_homes(80, 4);
        let traffic = TrafficMatrix::permutation(80, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 4.0);
        let total_load: f64 = plan.edge_load().values().sum();
        let total_hops: usize = plan.paths().iter().map(GridPath::hops).sum();
        let zero_hop_flows = plan.paths().iter().filter(|p| p.hops() == 0).count();
        assert!((total_load - (total_hops + zero_hop_flows) as f64).abs() < 1e-9);
    }

    #[test]
    fn members_partition_nodes() {
        let homes = uniform_homes(60, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let traffic = TrafficMatrix::permutation(60, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 3.0);
        let total: usize = plan.grid().cells().map(|c| plan.members_of(c).len()).sum();
        assert_eq!(total, 60);
        for cell in plan.grid().cells() {
            for &i in plan.members_of(cell) {
                assert_eq!(plan.grid().cell_of(homes[i]), cell);
            }
        }
    }

    #[test]
    fn mean_hops_scales_with_f() {
        // Expected Manhattan distance on the torus grows linearly with the
        // grid resolution f.
        let homes = uniform_homes(300, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let traffic = TrafficMatrix::permutation(300, &mut rng);
        let h4 = SchemeAPlan::build(&homes, &traffic, 4.0).mean_hops();
        let h8 = SchemeAPlan::build(&homes, &traffic, 8.0).mean_hops();
        let ratio = h8 / h4;
        assert!((1.5..2.6).contains(&ratio), "hop ratio {ratio}");
    }

    #[test]
    fn relays_home_points_follow_path_cells() {
        let homes = uniform_homes(200, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let traffic = TrafficMatrix::permutation(200, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 4.0);
        let chains = plan.materialize_relays(&traffic, &mut rng);
        assert_eq!(chains.len(), 200);
        for ((s, d), chain) in traffic.pairs().zip(&chains) {
            assert_eq!(*chain.first().unwrap(), s);
            assert_eq!(*chain.last().unwrap(), d);
            // No immediate duplicates.
            for w in chain.windows(2) {
                assert_ne!(w[0], w[1]);
            }
        }
    }

    #[test]
    fn dense_network_uses_self_edges() {
        // f = 1: a single squarelet; every flow loads the self-edge.
        let homes = uniform_homes(40, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let traffic = TrafficMatrix::permutation(40, &mut rng);
        let plan = SchemeAPlan::build(&homes, &traffic, 1.0);
        assert_eq!(plan.grid().cell_count(), 1);
        assert_eq!(plan.max_edge_load(), 40.0);
        assert_eq!(plan.mean_hops(), 0.0);
    }

    #[test]
    fn load_of_unused_edge_is_zero() {
        let homes = vec![Point::new(0.1, 0.1), Point::new(0.12, 0.1)];
        let traffic = TrafficMatrix::from_permutation(vec![1, 0]);
        let plan = SchemeAPlan::build(&homes, &traffic, 4.0);
        let far_a = plan.grid().cell(3, 3);
        let far_b = plan.grid().cell(3, 2);
        assert_eq!(plan.load_of(far_a, far_b), 0.0);
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn mismatched_sizes_rejected() {
        let homes = uniform_homes(10, 13);
        let traffic = TrafficMatrix::from_permutation(vec![1, 0]);
        let _ = SchemeAPlan::build(&homes, &traffic, 2.0);
    }
}
