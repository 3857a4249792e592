//! Experiment drivers shared by the report binaries and the criterion
//! benches. Each driver regenerates one paper artifact (Table I row,
//! Figure 1/2/3) at a configurable scale.

use hycap::{capacity_exponent, MobilityRegime, ModelExponents, Scenario};
use hycap_errors::HycapError;
use hycap_mobility::{ClusteredModel, Kernel, MobilityKind, Population, PopulationConfig};
use hycap_routing::{baselines, StaticMultihopPlan, TrafficMatrix};
use hycap_sim::{
    fit_loglog, scenario_digest, CacheEntry, Checkpoint, FitResult, ResultCache, WorkerPool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

/// Experiment scale: `Quick` for benches and smoke runs, `Full` for the
/// EXPERIMENTS.md numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny ladder for unit tests (sub-second in release).
    Smoke,
    /// Small ladders, few slots (seconds).
    Quick,
    /// The ladders used in EXPERIMENTS.md (minutes).
    Full,
}

impl Scale {
    /// The `n` ladder for capacity sweeps.
    pub fn ladder(self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![100, 300],
            Scale::Quick => vec![200, 400, 800, 1600, 3200],
            Scale::Full => vec![500, 1000, 2000, 4000, 8000],
        }
    }

    /// Monte-Carlo slots per measurement.
    pub fn slots(self) -> usize {
        match self {
            Scale::Smoke => 100,
            Scale::Quick => 600,
            Scale::Full => 1000,
        }
    }

    /// Independent repetitions averaged per ladder point (the bottleneck
    /// `min` over resources is noisy at small `n`).
    pub fn reps(self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Quick => 3,
            Scale::Full => 4,
        }
    }
}

/// One measured capacity term of a Table I row.
#[derive(Debug, Clone)]
pub struct ComponentResult {
    /// Term name ("capacity", "mobility term", "infrastructure term").
    pub name: &'static str,
    /// The `n` ladder.
    pub ns: Vec<usize>,
    /// Measured per-node capacity at each `n`.
    pub lambdas: Vec<f64>,
    /// Log–log fit of the measurements.
    pub fit: Option<FitResult>,
    /// The predicted capacity exponent (polynomial part of the order).
    pub theory_exponent: f64,
    /// The predicted order rendered as a string.
    pub theory_label: String,
}

impl ComponentResult {
    /// Deviation of the fitted slope from theory (`NaN` without a fit).
    pub fn slope_error(&self) -> f64 {
        self.fit
            .as_ref()
            .map_or(f64::NAN, |f| f.slope - self.theory_exponent)
    }
}

/// The outcome of one Table I row sweep.
///
/// Most rows carry a single component; the *strong mobility with BSs* row
/// carries two (`Θ(1/f)` and `Θ(min(k²c/n, k/n))`) because the paper's
/// capacity there is the sum of two terms whose multiplicative constants
/// differ by orders of magnitude at finite `n` — fitting the sum would test
/// neither.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Row label matching Table I.
    pub label: &'static str,
    /// Measured capacity terms, each fitted against its own prediction.
    pub components: Vec<ComponentResult>,
}

/// The five Table I anchor families used throughout the benches. The
/// clustered rows keep `K − 1` safely away from `−α` so the regimes are
/// cleanly separated at finite `n`.
pub fn table1_exponents() -> [(&'static str, ModelExponents, bool, MobilityKind); 5] {
    [
        (
            "Strong mobility without BSs",
            ModelExponents::new(0.25, 1.0, 0.0, 0.75, 0.0).unwrap(),
            false,
            MobilityKind::IidStationary,
        ),
        (
            // K = 0.5 gives the infrastructure term a steep, cleanly
            // measurable exponent (K-1 = -0.5) well separated from the
            // mobility term's -0.25; the access-limited slope for K near 1
            // (e.g. -0.1) is too shallow to resolve at laptop-scale n.
            "Strong mobility with BSs",
            ModelExponents::new(0.25, 1.0, 0.0, 0.5, 0.0).unwrap(),
            true,
            MobilityKind::IidStationary,
        ),
        (
            "Weak/trivial mobility without BSs",
            ModelExponents::new(0.4, 0.5, 0.35, 0.6, 0.0).unwrap(),
            false,
            MobilityKind::IidStationary,
        ),
        (
            "Weak mobility with BSs",
            ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap(),
            true,
            MobilityKind::IidStationary,
        ),
        (
            "Trivial mobility with BSs",
            ModelExponents::new(0.4, 0.2, 0.4, 0.6, 0.0).unwrap(),
            true,
            MobilityKind::Static,
        ),
    ]
}

/// Runs one Table I row: sweeps the ladder, measures the regime-optimal
/// scheme per `n`, fits the exponent. Every (ladder point, repetition)
/// is its own job on `pool`, largest first.
pub fn run_table1_row(
    label: &'static str,
    exps: ModelExponents,
    with_bs: bool,
    mobility: MobilityKind,
    scale: Scale,
    seed: u64,
    pool: &WorkerPool,
) -> RowResult {
    run_table1_row_checkpointed(label, exps, with_bs, mobility, scale, seed, pool, None)
        .expect("a checkpoint-free table row performs no journal I/O")
}

/// The checkpoint key of one Table I ladder point. Row label and `n`
/// identify the point; scale, seed and engine version are bound by the
/// journal's scenario digest, not the key.
fn table1_point_key(label: &str, n: usize) -> String {
    format!("table1/{label}/n={n}")
}

/// [`run_table1_row`] with per-point checkpoint/resume: every completed
/// ladder point is journaled to `checkpoint` as it finishes (from the
/// worker, so a crash mid-row keeps the finished points), and points
/// already in the journal are returned without recomputation. The merged
/// row is bit-identical to an uninterrupted run because each point is a
/// pure function of `(label, n, seed, scale)` and the journal stores exact
/// `f64` bits.
///
/// # Errors
///
/// [`HycapError::Io`] when journaling a completed point fails; the row's
/// measurements are lost but the journal stays consistent (only fully
/// written records are ever read back).
#[allow(clippy::too_many_arguments)]
pub fn run_table1_row_checkpointed(
    label: &'static str,
    exps: ModelExponents,
    with_bs: bool,
    mobility: MobilityKind,
    scale: Scale,
    seed: u64,
    pool: &WorkerPool,
    checkpoint: Option<&Arc<Checkpoint>>,
) -> Result<RowResult, HycapError> {
    run_table1_row_cached(
        label, exps, with_bs, mobility, scale, seed, pool, checkpoint, None,
    )
}

/// [`run_table1_row_checkpointed`] with an on-disk [`ResultCache`]: every
/// per-rep measurement is keyed by the scenario's content digest (mode
/// `"measure"` — the sequential engine), so reruns of the same row, or of
/// any sweep sharing a point, serve bit-identical results from disk. The
/// cache composes with the checkpoint journal: journal first (bound to
/// this row's digest), cache second, compute last. Cache store failures
/// degrade to a recompute and surface as the row's error only after the
/// measurements complete.
///
/// # Errors
///
/// As [`run_table1_row_checkpointed`], plus cache-store I/O failures.
#[allow(clippy::too_many_arguments)]
pub fn run_table1_row_cached(
    label: &'static str,
    exps: ModelExponents,
    with_bs: bool,
    mobility: MobilityKind,
    scale: Scale,
    seed: u64,
    pool: &WorkerPool,
    checkpoint: Option<&Arc<Checkpoint>>,
    cache: Option<&Arc<ResultCache>>,
) -> Result<RowResult, HycapError> {
    let row = RowPlan::new(label, exps, with_bs, mobility, scale);
    let mut rows = run_table1_batch(vec![row], scale, seed, pool, checkpoint, cache)?;
    Ok(rows.pop().expect("one row in, one row out"))
}

/// The cache key of one clustered-multihop (Corollary 3) measurement,
/// which bypasses [`Scenario`] and therefore needs its own digest.
fn clustered_cache_key(exps: &ModelExponents, n: usize, seed: u64) -> String {
    let parts = [
        "table1-clustered".to_string(),
        format!("alpha={}", exps.alpha),
        format!("m_exp={}", exps.m_exp),
        format!("r_exp={}", exps.r_exp),
        format!("k_exp={}", exps.k_exp),
        format!("phi={}", exps.phi),
        format!("n={n}"),
        format!("seed={seed}"),
    ];
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    format!("clustered-{}", scenario_digest(&refs))
}

/// One Table I row as the drivers fan it out: its spec plus what is
/// derived from it once (regime, ladder).
struct RowPlan {
    label: &'static str,
    exps: ModelExponents,
    with_bs: bool,
    mobility: MobilityKind,
    regime: Option<MobilityRegime>,
    ns: Vec<usize>,
}

impl RowPlan {
    fn new(
        label: &'static str,
        exps: ModelExponents,
        with_bs: bool,
        mobility: MobilityKind,
        scale: Scale,
    ) -> Self {
        let regime = if matches!(mobility, MobilityKind::Static) {
            exps.classify_with_excursion(f64::INFINITY).ok()
        } else {
            exps.classify().ok()
        };
        RowPlan {
            label,
            exps,
            with_bs,
            mobility,
            regime,
            ns: ladder_for(scale, &exps),
        }
    }

    /// Estimated cost of one repetition at `n`, used only to order
    /// dispatch: `n` times the fluid engines the rep runs. Every rep of a
    /// row runs the same schemes, so this ranks a row's jobs exactly; the
    /// analytic rows (clustered multihop, scheme C) cost microseconds and
    /// rank last.
    fn rep_cost(&self, n: usize) -> u64 {
        let engines = match (self.regime, self.with_bs) {
            (Some(MobilityRegime::Strong), true) => 2,
            (Some(MobilityRegime::Strong), false) | (None, _) => 1,
            (Some(MobilityRegime::Weak), true) => 1,
            _ => 0,
        };
        n as u64 * engines
    }

    /// Repetition `rep` at ladder point `n`: (mobility term, infrastructure
    /// term), either absent when the row does not measure it. A pure
    /// function of `(row, n, seed, rep)`.
    fn measure_rep(
        &self,
        n: usize,
        seed: u64,
        rep: usize,
        slots: usize,
        cache: Option<&ResultCache>,
        cache_err: &Mutex<Option<HycapError>>,
    ) -> RepOut {
        let seed = seed
            .wrapping_add((n as u64) << 8)
            .wrapping_add(rep as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if self.regime == Some(MobilityRegime::Weak) && !self.with_bs {
            // Corollary 3 row: clustered static multihop at the Lemma 10
            // connectivity range.
            let lambda = match cache {
                None => measure_clustered_no_bs(&self.exps, n, seed),
                Some(c) => {
                    let key = clustered_cache_key(&self.exps, n, seed);
                    match c.get(&key, |e| e.f64("lambda")) {
                        Some(v) => v,
                        None => {
                            let v = measure_clustered_no_bs(&self.exps, n, seed);
                            let mut entry = CacheEntry::new();
                            entry.push_f64("lambda", v);
                            if let Err(e) = c.put(&key, &entry) {
                                stash_first(cache_err, e);
                            }
                            v
                        }
                    }
                }
            };
            return (Some(lambda), None);
        }
        let sc = Scenario::builder(self.exps, n)
            .mobility(self.mobility)
            // 2x2 constant-area squarelets: the mobility radius is a larger
            // fraction of the squarelet at small n, which shortens the
            // finite-size transient of phase I/III.
            .scheme_b_cells(2)
            .seed(seed)
            .build_with_bs(self.with_bs);
        let report = match cache {
            None => sc.measure(slots),
            Some(c) => sc.measure_cached(slots, c).unwrap_or_else(|e| {
                stash_first(cache_err, e);
                sc.measure(slots)
            }),
        };
        (report.lambda_mobility_typical, report.lambda_infra_typical)
    }

    /// Fits each measured term against its prediction.
    fn result(&self, measured: &[(f64, f64)]) -> RowResult {
        let xs: Vec<f64> = self.ns.iter().map(|&n| n as f64).collect();
        let component = |name: &'static str, lambdas: Vec<f64>, order: Option<hycap::Order>| {
            let positive = lambdas.iter().filter(|&&l| l > 0.0).count();
            let fit = (positive >= 2)
                .then(|| fit_loglog(&xs, &lambdas).ok())
                .flatten();
            ComponentResult {
                name,
                ns: self.ns.clone(),
                lambdas,
                fit,
                theory_exponent: order.map_or(f64::NAN, |o| o.poly),
                theory_label: order.map_or_else(|| "(boundary)".into(), |o| o.to_string()),
            }
        };
        let exps = &self.exps;
        let mob: Vec<f64> = measured.iter().map(|&(m, _)| m).collect();
        let infra: Vec<f64> = measured.iter().map(|&(_, i)| i).collect();
        let components = match (self.regime, self.with_bs) {
            (Some(MobilityRegime::Strong), true) => vec![
                component(
                    "mobility term (scheme A)",
                    mob,
                    Some(hycap::mobility_order(exps.alpha)),
                ),
                component(
                    "infrastructure term (scheme B)",
                    infra,
                    Some(hycap::infrastructure_order(exps.k_exp, exps.phi)),
                ),
            ],
            (Some(MobilityRegime::Strong), false) | (None, _) => vec![component(
                "capacity (scheme A)",
                mob,
                self.regime.map(|r| hycap::capacity_no_bs(r, exps)),
            )],
            (Some(r), false) => vec![component(
                "capacity (clustered multihop)",
                mob,
                Some(hycap::capacity_no_bs(r, exps)),
            )],
            (Some(r @ MobilityRegime::Weak), true) => vec![component(
                "capacity (scheme B by clusters)",
                infra,
                Some(hycap::capacity_with_bs(r, exps)),
            )],
            (Some(r @ MobilityRegime::Trivial), true) => vec![component(
                "capacity (scheme C)",
                infra,
                Some(hycap::capacity_with_bs(r, exps)),
            )],
        };
        RowResult {
            label: self.label,
            components,
        }
    }
}

/// One repetition's (mobility term, infrastructure term).
type RepOut = (Option<f64>, Option<f64>);

/// A ladder point's reps finished so far, each in its rep slot.
type RepSlots = Mutex<Vec<Option<RepOut>>>;

/// One unit of Table I work: repetition `rep` of ladder point `point` of
/// row `row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RepJob {
    row: usize,
    point: usize,
    rep: usize,
    cost: u64,
}

/// The dispatch plan for a batch of rows. `points[row][i]` is ladder point
/// `i`'s estimated rep cost, or `None` when the point is already journaled
/// (it then contributes no jobs). Every remaining (point, rep) appears
/// exactly once, costliest first; ties keep row, ladder, then rep order.
/// Dispatching the largest jobs first keeps every worker busy until the
/// batch's end instead of leaving the costliest point to run alone.
fn plan_rep_jobs(points: &[Vec<Option<u64>>], reps: usize) -> Vec<RepJob> {
    let mut jobs: Vec<RepJob> = points
        .iter()
        .enumerate()
        .flat_map(|(row, costs)| {
            costs.iter().enumerate().flat_map(move |(point, cost)| {
                (*cost).into_iter().flat_map(move |cost| {
                    (0..reps).map(move |rep| RepJob {
                        row,
                        point,
                        rep,
                        cost,
                    })
                })
            })
        })
        .collect();
    // Stable: equal costs stay in (row, point, rep) order.
    jobs.sort_by_key(|job| std::cmp::Reverse(job.cost));
    jobs
}

/// Averages a point's positive rep measurements per term, folding in rep
/// order (the summation order every Table I number was recorded with).
fn fold_reps(reps: &[RepOut]) -> (f64, f64) {
    let (mut acc_m, mut used_m, mut acc_i, mut used_i) = (0.0, 0usize, 0.0, 0usize);
    for &(lm, li) in reps {
        if let Some(l) = lm.filter(|&l| l > 0.0) {
            acc_m += l;
            used_m += 1;
        }
        if let Some(l) = li.filter(|&l| l > 0.0) {
            acc_i += l;
            used_i += 1;
        }
    }
    let mean = |acc: f64, used: usize| if used > 0 { acc / used as f64 } else { 0.0 };
    (mean(acc_m, used_m), mean(acc_i, used_i))
}

/// Stashes the first error of a batch so one failed store never costs the
/// batch its measurements mid-flight; the error surfaces once every job
/// has completed.
fn stash_first(slot: &Mutex<Option<HycapError>>, e: HycapError) {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get_or_insert(e);
}

fn take_stashed(slot: &Mutex<Option<HycapError>>) -> Option<HycapError> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
}

/// Runs `rows` as one batch on `pool`: one job per (ladder point,
/// repetition) across every row, dispatched largest first. Each rep lands
/// in its (point, rep) slot; the worker that completes a point's last rep
/// folds the reps in rep order and journals the point, so every λ is
/// bit-identical for any thread count or completion order, and a crash
/// mid-batch keeps every finished point.
fn run_table1_batch(
    rows: Vec<RowPlan>,
    scale: Scale,
    seed: u64,
    pool: &WorkerPool,
    checkpoint: Option<&Arc<Checkpoint>>,
    cache: Option<&Arc<ResultCache>>,
) -> Result<Vec<RowResult>, HycapError> {
    let (slots, reps) = (scale.slots(), scale.reps());
    let mut measured: Vec<Vec<Option<(f64, f64)>>> = rows
        .iter()
        .map(|row| {
            row.ns
                .iter()
                .map(|&n| {
                    checkpoint?
                        .lookup(&table1_point_key(row.label, n))
                        .and_then(|bits| (bits.len() == 2).then(|| (bits[0], bits[1])))
                })
                .collect()
        })
        .collect();
    let costs: Vec<Vec<Option<u64>>> = rows
        .iter()
        .zip(&measured)
        .map(|(row, done)| {
            row.ns
                .iter()
                .zip(done)
                .map(|(&n, done)| done.is_none().then(|| row.rep_cost(n)))
                .collect()
        })
        .collect();
    let jobs = plan_rep_jobs(&costs, reps);
    let pending: Arc<Vec<Vec<RepSlots>>> = Arc::new(
        rows.iter()
            .map(|row| {
                row.ns
                    .iter()
                    .map(|_| Mutex::new(vec![None; reps]))
                    .collect()
            })
            .collect(),
    );
    let rows = Arc::new(rows);
    let journal_err: Arc<Mutex<Option<HycapError>>> = Arc::new(Mutex::new(None));
    let cache_err: Arc<Mutex<Option<HycapError>>> = Arc::new(Mutex::new(None));
    let tasks: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let (rows, pending) = (Arc::clone(&rows), Arc::clone(&pending));
            let (journal_err, cache_err) = (Arc::clone(&journal_err), Arc::clone(&cache_err));
            let checkpoint = checkpoint.map(Arc::clone);
            let cache = cache.map(Arc::clone);
            move || {
                let row = &rows[job.row];
                let n = row.ns[job.point];
                let out = row.measure_rep(n, seed, job.rep, slots, cache.as_deref(), &cache_err);
                let mut slot = pending[job.row][job.point]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                slot[job.rep] = Some(out);
                // Only the worker that fills a point's last slot goes on.
                let done: Vec<RepOut> = slot.iter().copied().collect::<Option<_>>()?;
                let value = fold_reps(&done);
                if let Some(ck) = &checkpoint {
                    if let Err(e) = ck.record(&table1_point_key(row.label, n), &[value.0, value.1])
                    {
                        stash_first(&journal_err, e);
                    }
                }
                Some((job.row, job.point, value))
            }
        })
        .collect();
    for (row, point, value) in pool.run(tasks).into_iter().flatten() {
        measured[row][point] = Some(value);
    }
    if let Some(e) = take_stashed(&journal_err).or_else(|| take_stashed(&cache_err)) {
        return Err(e);
    }
    Ok(rows
        .iter()
        .zip(measured)
        .map(|(row, points)| {
            let points: Vec<(f64, f64)> = points
                .into_iter()
                .map(|v| v.expect("every ladder point resolved"))
                .collect();
            row.result(&points)
        })
        .collect())
}

/// Runs all five Table I rows on one shared worker pool.
pub fn run_table1(scale: Scale, seed: u64) -> Vec<RowResult> {
    run_table1_cached(scale, seed, None).expect("a cache-free table run performs no store I/O")
}

/// [`run_table1`] with an optional result cache threaded through every
/// row: ladder points already stored under the current engine version
/// are served bit-identically instead of recomputed, so a warm rerun of
/// the whole table costs only directory reads. All five rows' jobs go to
/// the pool as one batch, so no row waits at another row's barrier.
///
/// # Errors
///
/// [`HycapError::Io`] when a cache store fails; served rows are never
/// affected.
pub fn run_table1_cached(
    scale: Scale,
    seed: u64,
    cache: Option<&Arc<ResultCache>>,
) -> Result<Vec<RowResult>, HycapError> {
    let pool = WorkerPool::new(WorkerPool::default_threads());
    let rows = table1_exponents()
        .into_iter()
        .map(|(label, exps, with_bs, mobility)| RowPlan::new(label, exps, with_bs, mobility, scale))
        .collect();
    run_table1_batch(rows, scale, seed, &pool, None, cache)
}

/// Picks a ladder whose points make the family's realized parameters
/// exact, eliminating rounding lumps from the exponent fits:
///
/// * `M = 1, α = 1/4` (strong rows) — fourth powers, so the scheme-A grid
///   resolution `f = n^{1/4}` is an integer;
/// * `M = 0.2` (clustered rows) — fifth powers `n = m⁵`, so `m = n^{0.2}`,
///   `k = n^{0.6} = m³` and `r = n^{-0.4} = m^{-2}` are all exact;
/// * anything else — the generic geometric ladder.
fn ladder_for(scale: Scale, exps: &ModelExponents) -> Vec<usize> {
    if (exps.m_exp - 1.0).abs() < 1e-12 && (exps.alpha - 0.25).abs() < 1e-12 {
        return match scale {
            Scale::Smoke => vec![81, 256],
            Scale::Quick => vec![256, 625, 1296, 2401, 4096],
            Scale::Full => vec![625, 1296, 2401, 4096, 6561, 10000],
        };
    }
    if (exps.m_exp - 0.2).abs() < 1e-12
        && (exps.r_exp - 0.4).abs() < 1e-12
        && (exps.k_exp - 0.6).abs() < 1e-12
    {
        return match scale {
            Scale::Smoke => vec![243, 1024],
            Scale::Quick => vec![243, 1024, 3125],
            Scale::Full => vec![243, 1024, 3125, 7776, 16807],
        };
    }
    scale.ladder()
}

/// Corollary 3 measurement: clustered home-points, (quasi-)static nodes,
/// multihop at the enlarged connectivity range `R_T = Θ(√(log m / m))`,
/// constant TDMA reuse.
fn measure_clustered_no_bs(exps: &ModelExponents, n: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = exps.realize(n);
    let config = PopulationConfig::builder(n)
        .alpha(exps.alpha)
        .clusters(ClusteredModel::explicit(params.m, params.r))
        .kernel(Kernel::uniform_disk(1.0))
        .mobility(MobilityKind::Static)
        .build();
    let population = Population::generate(&config, &mut rng);
    let traffic = TrafficMatrix::permutation(n, &mut rng);
    let cell_len = baselines::clustered_connectivity_range(params.m.max(2));
    let plan = StaticMultihopPlan::build_with_cell_len(population.positions(), &traffic, cell_len);
    plan.analytic_rate(9)
}

/// One simulated anchor of the Figure 3 phase diagram.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Anchor {
    /// Extension exponent `α`.
    pub alpha: f64,
    /// BS exponent `K`.
    pub k_exp: f64,
    /// Backbone exponent `ϕ`.
    pub phi: f64,
    /// Empirical capacity exponent between two ladder points.
    pub measured_exponent: f64,
    /// The analytic Figure 3 exponent `max(-α, min(K+ϕ-1, K-1))`.
    pub theory_exponent: f64,
}

/// Measures the empirical capacity exponent at `(α, K, ϕ)` anchors of the
/// strong-mobility surface by a two-point slope.
pub fn run_fig3_anchors(phi: f64, scale: Scale, seed: u64) -> Vec<Fig3Anchor> {
    // Fourth-power n so the scheme-A grid resolution f = n^alpha is free of
    // ceil() discretization wobble at the alpha = 1/4 anchors.
    let (n1, n2, slots) = match scale {
        Scale::Smoke => (81, 256, 60),
        Scale::Quick => (256, 2401, 300),
        Scale::Full => (625, 6561, 600),
    };
    let mut anchors = Vec::new();
    let two_point = |l1: Option<f64>, l2: Option<f64>, n1: usize, n2: usize| -> f64 {
        match (l1, l2) {
            (Some(a), Some(b)) if a > 0.0 && b > 0.0 => (b / a).ln() / (n2 as f64 / n1 as f64).ln(),
            _ => f64::NAN,
        }
    };
    for &alpha in &[0.1, 0.25, 0.4] {
        for &k_exp in &[0.4, 0.7, 0.95] {
            let exps = ModelExponents::new(alpha, 1.0, 0.0, k_exp, phi).unwrap();
            let measure = |n: usize, s: u64| {
                Scenario::builder(exps, n)
                    .scheme_b_cells(2)
                    .seed(s)
                    .build()
                    .measure(slots)
            };
            let r1 = measure(n1, seed.wrapping_add(1));
            let r2 = measure(n2, seed.wrapping_add(2));
            // The capacity is the *sum* of the mobility and infrastructure
            // terms, so its asymptotic exponent is the max of the two term
            // exponents; measuring each term separately avoids the
            // finite-n constant mismatch between them.
            let e_mob = two_point(
                r1.lambda_mobility_typical,
                r2.lambda_mobility_typical,
                n1,
                n2,
            );
            let e_infra = two_point(r1.lambda_infra_typical, r2.lambda_infra_typical, n1, n2);
            let measured_exponent = match (e_mob.is_nan(), e_infra.is_nan()) {
                (false, false) => e_mob.max(e_infra),
                (false, true) => e_mob,
                (true, false) => e_infra,
                (true, true) => f64::NAN,
            };
            anchors.push(Fig3Anchor {
                alpha,
                k_exp,
                phi,
                measured_exponent,
                theory_exponent: capacity_exponent(alpha, k_exp, phi),
            });
        }
    }
    anchors
}

/// Extension trait used by the drivers to toggle infrastructure on the
/// scenario builder without duplicating the parameter plumbing.
pub trait ScenarioBuilderExt {
    /// Builds with or without base stations.
    fn build_with_bs(self, with_bs: bool) -> Scenario;
}

impl ScenarioBuilderExt for hycap::ScenarioBuilder {
    fn build_with_bs(self, with_bs: bool) -> Scenario {
        if with_bs {
            self.build()
        } else {
            self.without_bs().build()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_scales() {
        assert!(Scale::Smoke.ladder().len() >= 2);
        assert!(Scale::Quick.ladder().len() >= 3);
        assert!(Scale::Full.ladder().len() >= 4);
        assert!(Scale::Full.slots() > Scale::Quick.slots());
    }

    #[test]
    fn table1_exponents_are_valid_and_distinct() {
        let rows = table1_exponents();
        assert_eq!(rows.len(), 5);
        for (label, exps, _, mobility) in rows {
            let regime = if matches!(mobility, MobilityKind::Static) {
                exps.classify_with_excursion(f64::INFINITY)
            } else {
                exps.classify()
            };
            assert!(regime.is_ok(), "{label}: {regime:?}");
        }
        // Rows 1-2 strong, 3-4 weak, 5 trivial.
        assert_eq!(rows[0].1.classify().unwrap(), MobilityRegime::Strong);
        assert_eq!(rows[2].1.classify().unwrap(), MobilityRegime::Weak);
        assert_eq!(
            rows[4].1.classify_with_excursion(f64::INFINITY).unwrap(),
            MobilityRegime::Trivial
        );
    }

    #[test]
    fn strong_row_produces_fit() {
        let (label, exps, with_bs, mobility) = table1_exponents()[0];
        let pool = WorkerPool::new(2);
        let row = run_table1_row(label, exps, with_bs, mobility, Scale::Smoke, 11, &pool);
        assert_eq!(row.components.len(), 1);
        let comp = &row.components[0];
        assert_eq!(comp.ns.len(), comp.lambdas.len());
        assert!(
            comp.fit.is_some(),
            "no usable measurements: {:?}",
            comp.lambdas
        );
        assert!((comp.theory_exponent + 0.25).abs() < 1e-12);
        assert!(comp.slope_error().is_finite());
    }

    #[test]
    fn checkpointed_row_journals_and_resumes_bit_identically() {
        let (label, exps, with_bs, mobility) = table1_exponents()[0];
        let pool = WorkerPool::new(2);
        let plain = run_table1_row(label, exps, with_bs, mobility, Scale::Smoke, 11, &pool);
        let dir = std::env::temp_dir().join(format!("hycap-bench-ckpt-{}", std::process::id()));
        let path = dir.join("row.jsonl");
        let digest = hycap_sim::scenario_digest(&[label, "scale=smoke", "seed=11"]);
        let ck = Arc::new(Checkpoint::create(&path, &digest).unwrap());
        let first = run_table1_row_checkpointed(
            label,
            exps,
            with_bs,
            mobility,
            Scale::Smoke,
            11,
            &pool,
            Some(&ck),
        )
        .unwrap();
        let expect = &plain.components[0].lambdas;
        let got = &first.components[0].lambdas;
        assert_eq!(expect.len(), got.len());
        for (a, b) in expect.iter().zip(got) {
            assert_eq!(a.to_bits(), b.to_bits(), "journaling must not perturb");
        }
        assert_eq!(ck.completed(), plain.components[0].ns.len());
        // A fresh process resuming the journal recomputes nothing and
        // reproduces the same bits.
        let resumed_ck = Arc::new(Checkpoint::resume(&path, &digest).unwrap());
        assert_eq!(resumed_ck.completed(), ck.completed());
        let resumed = run_table1_row_checkpointed(
            label,
            exps,
            with_bs,
            mobility,
            Scale::Smoke,
            11,
            &pool,
            Some(&resumed_ck),
        )
        .unwrap();
        for (a, b) in expect.iter().zip(&resumed.components[0].lambdas) {
            assert_eq!(a.to_bits(), b.to_bits(), "resume must reproduce exactly");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journaled_point_is_served_and_the_rest_computed() {
        let (label, exps, with_bs, mobility) = table1_exponents()[0];
        let pool = WorkerPool::new(2);
        let plain = run_table1_row(label, exps, with_bs, mobility, Scale::Smoke, 11, &pool);
        let dir = std::env::temp_dir().join(format!("hycap-bench-part-{}", std::process::id()));
        let path = dir.join("row.jsonl");
        let digest = hycap_sim::scenario_digest(&[label, "scale=smoke", "seed=11"]);
        let ck = Arc::new(Checkpoint::create(&path, &digest).unwrap());
        // A sentinel no measurement produces: if the journaled point were
        // recomputed, its λ would not come back as 0.5.
        let ns = &plain.components[0].ns;
        ck.record(&table1_point_key(label, ns[0]), &[0.5, 0.0])
            .unwrap();
        let row = run_table1_row_checkpointed(
            label,
            exps,
            with_bs,
            mobility,
            Scale::Smoke,
            11,
            &pool,
            Some(&ck),
        )
        .unwrap();
        let got = &row.components[0].lambdas;
        assert_eq!(got[0], 0.5, "journaled point must not be recomputed");
        for (a, b) in plain.components[0].lambdas.iter().zip(got).skip(1) {
            assert_eq!(a.to_bits(), b.to_bits(), "fresh points must match");
        }
        assert_eq!(ck.completed(), ns.len(), "the fresh point is journaled");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_rows_are_bit_identical_and_warm_runs_hit() {
        let pool = WorkerPool::new(2);
        let dir = std::env::temp_dir().join(format!("hycap-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).unwrap());
        // One Scenario-backed row and the clustered-multihop row, which
        // exercises the non-Scenario cache key.
        for idx in [0usize, 2] {
            let (label, exps, with_bs, mobility) = table1_exponents()[idx];
            let plain = run_table1_row(label, exps, with_bs, mobility, Scale::Smoke, 11, &pool);
            let cold = run_table1_row_cached(
                label,
                exps,
                with_bs,
                mobility,
                Scale::Smoke,
                11,
                &pool,
                None,
                Some(&cache),
            )
            .unwrap();
            let warm = run_table1_row_cached(
                label,
                exps,
                with_bs,
                mobility,
                Scale::Smoke,
                11,
                &pool,
                None,
                Some(&cache),
            )
            .unwrap();
            for (p, c) in plain.components.iter().zip(&cold.components) {
                for (a, b) in p.lambdas.iter().zip(&c.lambdas) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{label}: caching must not perturb"
                    );
                }
            }
            for (p, w) in plain.components.iter().zip(&warm.components) {
                for (a, b) in p.lambdas.iter().zip(&w.lambdas) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}: warm row must reproduce");
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, stats.stores, "every miss stores an entry");
        assert_eq!(stats.hits, stats.misses, "warm runs hit every key");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rep_job_plan_covers_every_point_rep_once() {
        let points = vec![
            vec![Some(256), Some(625), Some(1296)],
            vec![Some(0), Some(0)],
            vec![Some(2 * 243), Some(2 * 3125)],
        ];
        let reps = 3;
        let jobs = plan_rep_jobs(&points, reps);
        let mut seen: Vec<(usize, usize, usize)> =
            jobs.iter().map(|j| (j.row, j.point, j.rep)).collect();
        seen.sort_unstable();
        let mut expect = Vec::new();
        for (row, costs) in points.iter().enumerate() {
            for point in 0..costs.len() {
                for rep in 0..reps {
                    expect.push((row, point, rep));
                }
            }
        }
        assert_eq!(seen, expect, "every (point, rep) exactly once");
        for job in &jobs {
            assert_eq!(Some(job.cost), points[job.row][job.point]);
        }
    }

    #[test]
    fn rep_job_plan_is_largest_first_with_ladder_then_rep_ties() {
        // Row 0 and row 2 tie at cost 1000; row 1 is analytic (cost 0).
        let points = vec![
            vec![Some(200), Some(1000), Some(400)],
            vec![Some(0), Some(0)],
            vec![Some(1000), Some(5000)],
        ];
        let jobs = plan_rep_jobs(&points, 2);
        for pair in jobs.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(a.cost >= b.cost, "cost rose: {a:?} then {b:?}");
            if a.cost == b.cost {
                assert!(
                    (a.row, a.point, a.rep) < (b.row, b.point, b.rep),
                    "tie out of row/ladder/rep order: {a:?} then {b:?}"
                );
            }
        }
        let order: Vec<(usize, usize, usize)> =
            jobs.iter().map(|j| (j.row, j.point, j.rep)).collect();
        assert_eq!(
            &order[..6],
            &[
                (2, 1, 0),
                (2, 1, 1),
                (0, 1, 0),
                (0, 1, 1),
                (2, 0, 0),
                (2, 0, 1)
            ]
        );
        assert_eq!(&order[10..], &[(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]);
    }

    #[test]
    fn journaled_points_emit_no_jobs() {
        let points = vec![vec![Some(81), None, Some(625)], vec![None, None]];
        let jobs = plan_rep_jobs(&points, 4);
        assert_eq!(jobs.len(), 2 * 4);
        assert!(jobs.iter().all(|j| j.row == 0 && j.point != 1));
        assert!(plan_rep_jobs(&[vec![None, None]], 3).is_empty());
    }

    #[test]
    fn fold_ignores_completion_order() {
        // Values whose sum depends on association order, plus a zero and
        // an absent term that must not count as used reps.
        let reps: Vec<RepOut> = vec![
            (Some(0.1), Some(1e-17)),
            (Some(0.2), None),
            (Some(0.3), Some(0.0)),
        ];
        let in_order = fold_reps(&reps);
        // Workers finish reps 2, 1, 0; each lands in its rep slot.
        let mut slots: Vec<Option<RepOut>> = vec![None; 3];
        for rep in [2, 1, 0] {
            slots[rep] = Some(reps[rep]);
        }
        let landed: Vec<RepOut> = slots.into_iter().map(Option::unwrap).collect();
        let shuffled = fold_reps(&landed);
        assert_eq!(in_order.0.to_bits(), shuffled.0.to_bits());
        assert_eq!(in_order.1.to_bits(), shuffled.1.to_bits());
        // The in-order fold is the left-to-right sum the rep loop made.
        assert_eq!(in_order.0.to_bits(), ((0.1 + 0.2 + 0.3) / 3.0f64).to_bits());
        assert_eq!(in_order.1.to_bits(), 1e-17f64.to_bits());
        // Completion-order summation would differ, so the slotting matters.
        assert_ne!(
            (0.3 + 0.2 + 0.1f64).to_bits(),
            (0.1 + 0.2 + 0.3f64).to_bits()
        );
        assert_eq!(fold_reps(&[(None, Some(-1.0))]), (0.0, 0.0));
    }

    #[test]
    fn smoke_row_is_bit_identical_across_pool_sizes() {
        // The two-component row: both terms fold from the same reps.
        let (label, exps, with_bs, mobility) = table1_exponents()[1];
        let run = |threads: usize| {
            let pool = WorkerPool::new(threads);
            run_table1_row(label, exps, with_bs, mobility, Scale::Smoke, 11, &pool)
        };
        let bits = |row: &RowResult| -> Vec<u64> {
            row.components
                .iter()
                .flat_map(|c| c.lambdas.iter().map(|l| l.to_bits()))
                .collect()
        };
        let one = bits(&run(1));
        assert_eq!(one.len(), 2 * 2);
        for threads in [2, 3] {
            assert_eq!(bits(&run(threads)), one, "{threads} threads");
        }
    }

    #[test]
    fn clustered_no_bs_rate_positive_and_decreasing() {
        let exps = ModelExponents::new(0.4, 0.5, 0.35, 0.6, 0.0).unwrap();
        let r1 = measure_clustered_no_bs(&exps, 200, 1);
        let r2 = measure_clustered_no_bs(&exps, 800, 2);
        assert!(r1 > 0.0 && r2 > 0.0);
        assert!(r2 < r1, "rate must fall with n: {r1} -> {r2}");
    }

    #[test]
    fn fig3_anchor_theory_matches_formula() {
        let anchors = run_fig3_anchors(0.0, Scale::Smoke, 3);
        assert_eq!(anchors.len(), 9);
        for a in &anchors {
            assert!((a.theory_exponent - capacity_exponent(a.alpha, a.k_exp, a.phi)).abs() < 1e-12);
        }
    }
}
