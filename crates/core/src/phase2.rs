//! Phase 2: path merging under the register constraint.
//!
//! If Phase 1 needs more virtual registers than the machine has
//! (`K̃ > K`), paths must be merged. The paper's heuristic (Section 3.2)
//! always merges the pair `(P_i, P_j)` whose merge `P_i ⊕ P_j` has the
//! minimal cost `C(P_i ⊕ P_j)` among all pairs, repeating until `K` paths
//! remain. The evaluation baseline (*naive* allocation, Section 4) merges
//! two *arbitrary* paths instead; both are implemented here as
//! [`MergeStrategy`] variants, together with a deliberately bad
//! worst-case strategy for ablation studies.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::ops::RangeInclusive;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use raco_graph::{DistanceModel, PathCover};

use crate::cost::CostModel;

/// How merge candidates are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MergeStrategy {
    /// The paper's heuristic: merge the pair with minimal merged cost
    /// `C(P_i ⊕ P_j)`. Ties are broken by smaller *marginal* cost
    /// (`C(P_i ⊕ P_j) - C(P_i) - C(P_j)` — extending a path that already
    /// pays an update is better than spoiling two clean ones), then by
    /// smaller merged length, then by smaller pair indices (covers are
    /// canonically ordered, so the result is deterministic).
    GreedyMinCost,
    /// The paper's baseline: merge two arbitrary paths. Pairs are drawn
    /// uniformly from a seeded RNG so experiments are reproducible.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Always merge the first two paths in canonical order — a
    /// deterministic flavour of "arbitrary".
    FirstPair,
    /// Adversarial: merge the pair with *maximal* merged cost. Used by
    /// ablation experiments to bracket the strategy space.
    WorstCost,
}

/// One merge step performed by Phase 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeRecord {
    /// Number of paths before this merge.
    pub paths_before: usize,
    /// Lengths of the two merged paths.
    pub merged_lengths: (usize, usize),
    /// Cost of the merged path under the configured cost model.
    pub merged_path_cost: u32,
    /// Total cover cost after this merge.
    pub total_cost_after: u32,
}

/// The result of Phase 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase2Report {
    cover: PathCover,
    records: Vec<MergeRecord>,
    cost_trajectory: Vec<(usize, u32)>,
}

impl Phase2Report {
    /// Reassembles a report from its serialized parts — the inverse of
    /// the [`cover`](Self::cover)/[`records`](Self::records)/
    /// [`cost_trajectory`](Self::cost_trajectory) accessors, used by
    /// snapshot decoders (`raco_driver::persist`) to rebuild cached
    /// allocations without re-running the merge trajectory.
    ///
    /// All recorded costs are evaluated under the *accounting* cost
    /// model the merge ran with — on a machine with modify registers
    /// that is the MR-aware predicted cost, the same number the
    /// simulator measures.
    pub fn from_parts(
        cover: PathCover,
        records: Vec<MergeRecord>,
        cost_trajectory: Vec<(usize, u32)>,
    ) -> Self {
        Phase2Report {
            cover,
            records,
            cost_trajectory,
        }
    }

    /// The final cover (at most `K` paths).
    pub fn cover(&self) -> &PathCover {
        &self.cover
    }

    /// One record per merge, in execution order.
    pub fn records(&self) -> &[MergeRecord] {
        &self.records
    }

    /// `(register count, total cost)` after Phase 1 and after every
    /// merge — i.e. the whole cost curve from `K̃` down to the final
    /// register count. Useful for register sweeps: the cost for any
    /// intermediate `k` can be read off without re-running.
    pub fn cost_trajectory(&self) -> &[(usize, u32)] {
        &self.cost_trajectory
    }

    /// The cost the trajectory reports for `k` registers, if the
    /// trajectory passed through `k`.
    pub fn cost_at(&self, k: usize) -> Option<u32> {
        self.cost_trajectory
            .iter()
            .find(|&&(count, _)| count == k)
            .map(|&(_, cost)| cost)
    }

    /// The predicted cost of the final cover — the last trajectory
    /// entry, evaluated under the accounting cost model the merge ran
    /// with (MR-aware on machines with modify registers).
    pub fn final_cost(&self) -> u32 {
        self.cost_trajectory
            .last()
            .map(|&(_, cost)| cost)
            .unwrap_or(0)
    }
}

/// Merges paths of `cover` until at most `k` remain.
///
/// The returned report contains the final cover, per-merge records and the
/// full cost trajectory. If the cover already satisfies the constraint it
/// is returned unchanged (empty record list).
///
/// For [`MergeStrategy::GreedyMinCost`] merging continues **below** the
/// constraint as long as a merge strictly reduces total cost. This can
/// only happen when Phase 1 fell back to a relaxed cover (paths that
/// individually pay their wrap steps can combine into a cheaper chain);
/// for zero-cost Phase-1 covers every merge costs at least one update, so
/// the greedy result uses exactly `min(k, K̃)` registers. The baseline
/// strategies stop at `k` paths, faithful to the paper's naive allocator.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Examples
///
/// ```
/// use raco_core::{phase2, CostModel, MergeStrategy};
/// use raco_graph::{bb, DistanceModel};
///
/// let dm = DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1);
/// let phase1 = bb::min_zero_cost_cover(&dm).unwrap().cover; // K̃ = 3
/// let report = phase2::merge_until(
///     &phase1,
///     2,
///     &dm,
///     CostModel::steady_state(),
///     MergeStrategy::GreedyMinCost,
/// );
/// assert_eq!(report.cover().register_count(), 2);
/// assert!(report.cost_at(2).unwrap() >= 1); // every merge costs ≥ 1
/// ```
pub fn merge_until(
    cover: &PathCover,
    k: usize,
    dm: &DistanceModel,
    cost_model: CostModel,
    strategy: MergeStrategy,
) -> Phase2Report {
    merge_until_with_selection(cover, k, dm, cost_model, cost_model, strategy)
}

/// [`merge_until`] with the cost model split into two roles:
///
/// * `account` prices every recorded cost — merge records, the cost
///   trajectory, and therefore the final predicted cost. On machines
///   with modify registers this is the MR-aware model, so Phase 2
///   reports the same number the simulator measures.
/// * `selection` ranks merge candidates. With zero modify registers the
///   ranking is the paper's (minimal merged-path cost, byte-identical
///   to the pre-MR behaviour); with modify registers a candidate is
///   ranked by the `selection` cost of the whole cover after the merge,
///   which charges a delta zero cycles when one of `selection`'s modify
///   registers would hold it, steering merges toward covers whose
///   over-range deltas repeat. Those prices come from a [`MergePricer`]:
///   one delta histogram per merge step, updated per candidate.
///
/// Splitting the roles lets `Optimizer` sweep selection aggressiveness
/// (`0..=MR` priced registers) while every candidate is judged under
/// the one true machine model — which is what makes the final predicted
/// cost monotone in the machine's modify-register count.
///
/// The report is a truncation of one merge trajectory: the greedy pick
/// depends on nothing but the current cover, so merging down to `k` is
/// the first `K̃ - min(k, K̃)` merges of the trajectory from `K̃` to one
/// register, followed by the opportunistic merges below `k`. When
/// `selection` prices modify registers, the opportunistic phase picks
/// exactly the trajectory's next pair and keeps it while the
/// `selection` cost strictly drops, so the whole report stays on the
/// trajectory. `Optimizer` reads the report of every register count off
/// one such trajectory per selection level.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn merge_until_with_selection(
    cover: &PathCover,
    k: usize,
    dm: &DistanceModel,
    account: CostModel,
    selection: CostModel,
    strategy: MergeStrategy,
) -> Phase2Report {
    let steps = OnceCell::new();
    Trajectory::walk(cover, k..=k, dm, account, selection, strategy, &steps).report(k)
}

/// A merge trajectory from the Phase-1 cover toward one register, long
/// enough to hold the [`merge_until_with_selection`] report of every
/// register count in a range.
#[derive(Debug)]
pub(crate) struct Trajectory {
    /// The cover the trajectory starts from.
    start: PathCover,
    /// The cover after the last merge.
    end: PathCover,
    /// The merged pair of every step, as indices into the cover of the
    /// step.
    pairs: Vec<(usize, usize)>,
    records: Vec<MergeRecord>,
    cost_trajectory: Vec<(usize, u32)>,
    /// The smallest register count of the range.
    first_k: usize,
    /// Where the report of each register count ends, indexed by
    /// `k - first_k`.
    stops: Vec<Stop>,
}

/// Where one register count's report ends.
#[derive(Debug, Clone)]
enum Stop {
    /// After the trajectory's first `n` merges.
    Merges(usize),
    /// Off the trajectory: a plain-selection opportunistic phase merged
    /// a pair the greedy ranking would not have picked.
    Tail(Phase2Report),
}

impl Trajectory {
    /// Walks the trajectory of `strategy` from `cover` until the report
    /// of every register count in `ks` is known. `steps` holds the step
    /// table of `dm` once a modify-register-aware model needs it, so
    /// several walks over one distance model build it once.
    pub(crate) fn walk(
        cover: &PathCover,
        ks: RangeInclusive<usize>,
        dm: &DistanceModel,
        account: CostModel,
        selection: CostModel,
        strategy: MergeStrategy,
        steps: &OnceCell<StepTable>,
    ) -> Trajectory {
        let first_k = *ks.start();
        assert!(first_k > 0, "cannot allocate to zero registers");
        let mut walk = Walk::new(cover, dm, account, steps);
        // The MR-aware ranking prices whole covers; the plain ranking
        // only needs path costs.
        let mr_aware = selection.modify_registers() > 0
            && matches!(
                strategy,
                MergeStrategy::GreedyMinCost | MergeStrategy::WorstCost
            );
        // Built on the first pick, so covers that need no merge never
        // build a step table.
        let mut chooser: Option<MergePricer<'_>> = None;
        let mut rng = match strategy {
            MergeStrategy::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        let mut pairs = Vec::new();
        let mut stops: Vec<Option<Stop>> = ks.map(|_| None).collect();
        // A register count `k` is settled once its prefix is done
        // (`count <= k`) and its opportunistic phase stops; the smallest
        // count settles last.
        loop {
            let count = walk.cover.register_count();
            let open = count.saturating_sub(first_k).min(stops.len());
            let mut pick = None;
            if stops[open..].iter().any(Option::is_none) {
                let stop = match strategy {
                    // The opportunistic pick is the next greedy pick:
                    // stay on the trajectory while it strictly lowers
                    // the selection cost.
                    MergeStrategy::GreedyMinCost if mr_aware => {
                        let chooser = walk.pricer(&mut chooser, selection);
                        pick = (count >= 2).then(|| chooser.best_pair(&walk.cover, false));
                        match pick {
                            Some((_, _, after)) if after < chooser.cost() => None,
                            _ => Some(Stop::Merges(pairs.len())),
                        }
                    }
                    MergeStrategy::GreedyMinCost => Some(walk.plain_tail(pairs.len(), selection)),
                    _ => Some(Stop::Merges(pairs.len())),
                };
                if let Some(stop) = stop {
                    for slot in stops[open..].iter_mut().filter(|s| s.is_none()) {
                        *slot = Some(stop.clone());
                    }
                }
            }
            if stops.first().is_none_or(Option::is_some) {
                break;
            }
            let (i, j) = match pick {
                Some((i, j, _)) => (i, j),
                None if mr_aware => {
                    let worst = strategy == MergeStrategy::WorstCost;
                    let (i, j, _) = walk
                        .pricer(&mut chooser, selection)
                        .best_pair(&walk.cover, worst);
                    (i, j)
                }
                None => select_pair(&walk.cover, dm, selection, strategy, rng.as_mut()),
            };
            if let Some(chooser) = chooser.as_mut() {
                chooser.merge(&walk.cover, i, j);
            }
            walk.merge(i, j);
            pairs.push((i, j));
        }
        let Walk {
            cover: end,
            records,
            cost_trajectory,
            ..
        } = walk;
        Trajectory {
            start: cover.clone(),
            end,
            pairs,
            records,
            cost_trajectory,
            first_k,
            stops: stops.into_iter().map(|s| s.expect("all settled")).collect(),
        }
    }

    /// The final cost of the report for `k` registers, under the
    /// account model.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the walked range.
    pub(crate) fn cost(&self, k: usize) -> u32 {
        match &self.stops[k - self.first_k] {
            Stop::Merges(n) => self.cost_trajectory[*n].1,
            Stop::Tail(report) => report.final_cost(),
        }
    }

    /// The report for `k` registers: equal to
    /// [`merge_until_with_selection`] at `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the walked range.
    pub(crate) fn report(&self, k: usize) -> Phase2Report {
        match &self.stops[k - self.first_k] {
            &Stop::Merges(n) => {
                let cover = if n == self.pairs.len() {
                    self.end.clone()
                } else {
                    let mut cover = self.start.clone();
                    for &(i, j) in &self.pairs[..n] {
                        cover.merge_pair(i, j).expect("cover paths are disjoint");
                    }
                    cover
                };
                Phase2Report {
                    cover,
                    records: self.records[..n].to_vec(),
                    cost_trajectory: self.cost_trajectory[..=n].to_vec(),
                }
            }
            Stop::Tail(report) => report.clone(),
        }
    }
}

/// A cover being merged, with everything its report records.
#[derive(Debug, Clone)]
struct Walk<'a> {
    dm: &'a DistanceModel,
    steps: &'a OnceCell<StepTable>,
    account: CostModel,
    /// Prices the cover from its first merge on when `account` has
    /// modify registers.
    pricer: Option<MergePricer<'a>>,
    cover: PathCover,
    records: Vec<MergeRecord>,
    cost_trajectory: Vec<(usize, u32)>,
}

impl<'a> Walk<'a> {
    fn new(
        cover: &PathCover,
        dm: &'a DistanceModel,
        account: CostModel,
        steps: &'a OnceCell<StepTable>,
    ) -> Self {
        Walk {
            dm,
            steps,
            account,
            pricer: None,
            cover: cover.clone(),
            records: Vec::new(),
            cost_trajectory: vec![(cover.register_count(), account.cover_cost(cover, dm))],
        }
    }

    /// The step table of the distance model, built on first use.
    fn table(&self) -> Cow<'a, StepTable> {
        Cow::Borrowed(self.steps.get_or_init(|| StepTable::new(self.dm)))
    }

    /// The pricer in `slot`, built for `model` from the current cover on
    /// first use.
    fn pricer<'s>(
        &self,
        slot: &'s mut Option<MergePricer<'a>>,
        model: CostModel,
    ) -> &'s mut MergePricer<'a> {
        slot.get_or_insert_with(|| MergePricer::with_table(&self.cover, model, self.table()))
    }

    /// Merges paths `i` and `j` and records the step.
    fn merge(&mut self, i: usize, j: usize) {
        let paths_before = self.cover.register_count();
        let (a, b) = (&self.cover.paths()[i], &self.cover.paths()[j]);
        let merged_lengths = (a.len(), b.len());
        let merged_path_cost = self
            .account
            .path_cost(&a.merge(b).expect("cover paths are disjoint"), self.dm);
        if self.account.modify_registers() > 0 {
            let table = self.table();
            self.pricer
                .get_or_insert_with(|| MergePricer::with_table(&self.cover, self.account, table))
                .merge(&self.cover, i, j);
        }
        self.cover
            .merge_pair(i, j)
            .expect("cover paths are disjoint");
        let total_cost_after = match &self.pricer {
            Some(pricer) => pricer.cost(),
            None => self.account.cover_cost(&self.cover, self.dm),
        };
        self.records.push(MergeRecord {
            paths_before,
            merged_lengths,
            merged_path_cost,
            total_cost_after,
        });
        self.cost_trajectory
            .push((self.cover.register_count(), total_cost_after));
    }

    /// The opportunistic phase under a plain (modify-register-free)
    /// `selection`, from the state after `merges` trajectory merges:
    /// keep merging the pair of smallest marginal cost while it strictly
    /// pays off (relaxed Phase-1 covers only; see [`merge_until`]).
    fn plain_tail(&self, merges: usize, selection: CostModel) -> Stop {
        let next = |cover: &PathCover| {
            best_marginal_pair(cover, self.dm, selection)
                .filter(|&(_, _, marginal)| marginal < 0)
                .map(|(i, j, _)| (i, j))
        };
        let Some((i, j)) = next(&self.cover) else {
            return Stop::Merges(merges);
        };
        let mut tail = self.clone();
        tail.merge(i, j);
        while let Some((i, j)) = next(&tail.cover) {
            tail.merge(i, j);
        }
        Stop::Tail(Phase2Report {
            cover: tail.cover,
            records: tail.records,
            cost_trajectory: tail.cost_trajectory,
        })
    }
}

/// Ranking key of a merge candidate in the opportunistic phase.
type MarginalRank = (i64, usize, usize, usize);

/// The pair with the smallest marginal merge cost
/// (`C(P_i ⊕ P_j) - C(P_i) - C(P_j)`) under a plain cost model, or `None`
/// for single-path covers.
fn best_marginal_pair(
    cover: &PathCover,
    dm: &DistanceModel,
    cost_model: CostModel,
) -> Option<(usize, usize, i64)> {
    let p = cover.register_count();
    if p < 2 {
        return None;
    }
    let path_costs: Vec<i64> = cover
        .paths()
        .iter()
        .map(|path| i64::from(cost_model.path_cost(path, dm)))
        .collect();
    let mut best: Option<(MarginalRank, (usize, usize))> = None;
    for i in 0..p {
        for j in (i + 1)..p {
            let merged = cover.paths()[i]
                .merge(&cover.paths()[j])
                .expect("cover paths are disjoint");
            let marginal =
                i64::from(cost_model.path_cost(&merged, dm)) - path_costs[i] - path_costs[j];
            let rank = (marginal, merged.len(), i, j);
            if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                best = Some((rank, (i, j)));
            }
        }
    }
    best.map(|((marginal, _, _, _), (i, j))| (i, j, marginal))
}

/// Ranking key of a merge candidate in the greedy/worst strategies.
type GreedyRank = (u32, i64, usize, usize, usize);

/// The pair a strategy merges next under a plain (modify-register-free)
/// ranking; modify-register-aware rankings go through
/// [`MergePricer::best_pair`].
fn select_pair(
    cover: &PathCover,
    dm: &DistanceModel,
    cost_model: CostModel,
    strategy: MergeStrategy,
    rng: Option<&mut SmallRng>,
) -> (usize, usize) {
    let p = cover.register_count();
    debug_assert!(p >= 2);
    match strategy {
        MergeStrategy::FirstPair => (0, 1),
        MergeStrategy::Random { .. } => {
            let rng = rng.expect("random strategy carries an RNG");
            let i = rng.gen_range(0..p);
            let mut j = rng.gen_range(0..p - 1);
            if j >= i {
                j += 1;
            }
            (i.min(j), i.max(j))
        }
        MergeStrategy::GreedyMinCost | MergeStrategy::WorstCost => {
            let path_costs: Vec<i64> = cover
                .paths()
                .iter()
                .map(|p| i64::from(cost_model.path_cost(p, dm)))
                .collect();
            let mut best: Option<(GreedyRank, (usize, usize))> = None;
            for i in 0..p {
                for j in (i + 1)..p {
                    let merged = cover.paths()[i]
                        .merge(&cover.paths()[j])
                        .expect("cover paths are disjoint");
                    let cost = cost_model.path_cost(&merged, dm);
                    let marginal = i64::from(cost) - path_costs[i] - path_costs[j];
                    let rank = if strategy == MergeStrategy::WorstCost {
                        // Invert the primary criterion; tie-breaks stay
                        // deterministic.
                        (u32::MAX - cost, -marginal, merged.len(), i, j)
                    } else {
                        (cost, marginal, merged.len(), i, j)
                    };
                    if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                        best = Some((rank, (i, j)));
                    }
                }
            }
            best.expect("at least one pair exists").1
        }
    }
}

/// Marks a step whose delta is inside the free update window.
const FREE_STEP: u32 = u32::MAX;

/// Dense ids of the over-range step deltas between every ordered pair
/// of accesses of one distance model: `from -> to` is the intra-iteration
/// step when `from < to` and the back-edge step (tail `from`, head `to`)
/// otherwise. Equal deltas share an id, so a histogram over ids is a
/// histogram over delta values. It holds `n²` ids for `n` accesses, the
/// order of memory Phase 1's access graph already takes when most
/// steps are free, and is built only once a merge must be priced.
#[derive(Debug, Clone)]
pub(crate) struct StepTable {
    accesses: usize,
    ids: Vec<u32>,
    distinct: usize,
}

impl StepTable {
    fn new(dm: &DistanceModel) -> Self {
        let n = dm.len();
        let mut distinct: HashMap<i64, u32> = HashMap::new();
        let ids = (0..n * n)
            .map(|at| {
                let (from, to) = (at / n, at % n);
                let delta = if from < to {
                    dm.intra_distance(from, to)
                } else {
                    dm.wrap_distance(from, to)
                };
                if dm.is_free(delta) {
                    return FREE_STEP;
                }
                let next = u32::try_from(distinct.len())
                    .ok()
                    .filter(|&id| id != FREE_STEP)
                    .expect("fewer distinct steps than u32 ids");
                *distinct.entry(delta).or_insert(next)
            })
            .collect();
        StepTable {
            accesses: n,
            ids,
            distinct: distinct.len(),
        }
    }

    fn id(&self, from: usize, to: usize) -> u32 {
        self.ids[from * self.accesses + to]
    }
}

/// Calls `step(from, to)` for every step of the path with the given
/// access indices: the intra-iteration steps, then the back-edge step
/// when `wrap` is set.
fn path_steps(indices: &[usize], wrap: bool, mut step: impl FnMut(usize, usize)) {
    for pair in indices.windows(2) {
        step(pair[0], pair[1]);
    }
    if wrap {
        step(indices[indices.len() - 1], indices[0]);
    }
}

/// [`path_steps`] of `P_a ⊕ P_b`, without building the merged path.
fn merged_steps(a: &[usize], b: &[usize], wrap: bool, mut step: impl FnMut(usize, usize)) {
    let (mut x, mut y) = (0, 0);
    let mut previous = None;
    while x < a.len() || y < b.len() {
        let next = if y == b.len() || (x < a.len() && a[x] < b[y]) {
            x += 1;
            a[x - 1]
        } else {
            y += 1;
            b[y - 1]
        };
        if let Some(previous) = previous {
            step(previous, next);
        }
        previous = Some(next);
    }
    if wrap {
        step(a[a.len() - 1].max(b[b.len() - 1]), a[0].min(b[0]));
    }
}

/// Prices merge candidates of a cover under a cost model — modify
/// registers included — without building the merged cover.
///
/// With modify registers, what a cover costs depends on the frequency of
/// every over-range step delta across all its paths: the model charges
/// zero for the `MR` most frequent ones (see [`CostModel::cover_cost`]).
/// The pricer keeps that histogram and the raw (MR-blind) cost of the
/// cover it tracks. Pricing the merge of `P_i` and `P_j` removes their
/// steps, adds the steps of `P_i ⊕ P_j`, and sums the `MR` largest
/// counts — a sum that does not depend on how equal counts are ranked —
/// then undoes the change. No cover is cloned and nothing is sorted.
///
/// Every method taking a `cover` expects the cover the pricer tracks:
/// the one it was built from, with each merge reported through
/// [`merge`](Self::merge) applied.
///
/// # Examples
///
/// ```
/// use raco_core::{phase2::MergePricer, CostModel};
/// use raco_graph::{DistanceModel, PathCover};
///
/// let dm = DistanceModel::from_offsets(&[0, 7, 14, 21], 22, 1);
/// let cover = PathCover::singletons(4);
/// let model = CostModel::steady_state().with_modify_registers(1);
/// let mut pricer = MergePricer::new(&cover, &dm, model);
/// assert_eq!(pricer.cost(), model.cover_cost(&cover, &dm));
///
/// let mut merged = cover.clone();
/// merged.merge_pair(0, 1).unwrap();
/// assert_eq!(pricer.merged_cost(&cover, 0, 1), model.cover_cost(&merged, &dm));
/// ```
#[derive(Debug, Clone)]
pub struct MergePricer<'a> {
    model: CostModel,
    table: Cow<'a, StepTable>,
    /// Over-range steps of the tracked cover, per delta id.
    counts: Vec<u32>,
    /// `by_count[c]`: how many deltas occur exactly `c` times.
    by_count: Vec<u32>,
    /// At least the largest count.
    top: usize,
    /// Over-range steps in total: the cost without modify registers.
    raw: u32,
}

impl MergePricer<'static> {
    /// A pricer for `cover` under `cost_model`.
    pub fn new(cover: &PathCover, dm: &DistanceModel, cost_model: CostModel) -> Self {
        MergePricer::with_table(cover, cost_model, Cow::Owned(StepTable::new(dm)))
    }
}

impl<'a> MergePricer<'a> {
    fn with_table(cover: &PathCover, model: CostModel, table: Cow<'a, StepTable>) -> Self {
        let mut pricer = MergePricer {
            model,
            counts: vec![0; table.distinct],
            // A cover has one step per access, so no delta occurs more
            // often than there are accesses.
            by_count: vec![0; table.accesses + 1],
            table,
            top: 0,
            raw: 0,
        };
        let wrap = model.includes_wrap();
        for path in cover.paths() {
            path_steps(path.indices(), wrap, |from, to| {
                pricer.count(from, to, true)
            });
        }
        pricer
    }

    /// The cost of the tracked cover: `cost_model.cover_cost(cover, dm)`.
    pub fn cost(&self) -> u32 {
        let mut left = self.model.modify_registers();
        let mut saved = 0;
        for count in (1..=self.top).rev() {
            if left == 0 {
                break;
            }
            let taken = (self.by_count[count] as usize).min(left);
            saved += taken as u32 * count as u32;
            left -= taken;
        }
        (self.raw - saved).saturating_mul(self.model.adda_cost())
    }

    /// The cost of the tracked cover after merging its paths `i` and
    /// `j`: `cost_model.cover_cost` of that merged cover. The pricer is
    /// left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn merged_cost(&mut self, cover: &PathCover, i: usize, j: usize) -> u32 {
        self.merge(cover, i, j);
        let cost = self.cost();
        self.unmerge(cover, i, j);
        cost
    }

    /// The merge candidate scan of the modify-register-aware greedy and
    /// worst-case strategies: the pair whose merge leaves the cheapest
    /// cover (the most expensive one when `worst` is set), with ties
    /// broken toward shorter merged paths, then smaller indices, so
    /// selection stays deterministic. Returns the pair and the cover
    /// cost after merging it.
    ///
    /// # Panics
    ///
    /// Panics if the cover has fewer than two paths.
    pub fn best_pair(&mut self, cover: &PathCover, worst: bool) -> (usize, usize, u32) {
        /// Ranking key of a candidate: primary criterion, merged
        /// length, then the pair indices.
        type Rank = (u32, usize, usize, usize);
        let p = cover.register_count();
        let mut best: Option<(Rank, u32)> = None;
        for i in 0..p {
            for j in (i + 1)..p {
                let cost = self.merged_cost(cover, i, j);
                let primary = if worst { u32::MAX - cost } else { cost };
                let merged_len = cover.paths()[i].len() + cover.paths()[j].len();
                let rank = (primary, merged_len, i, j);
                if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                    best = Some((rank, cost));
                }
            }
        }
        let ((_, _, i, j), cost) = best.expect("at least one pair exists");
        (i, j, cost)
    }

    /// Tracks the merge of paths `i` and `j` of `cover`; call it before
    /// [`PathCover::merge_pair`].
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn merge(&mut self, cover: &PathCover, i: usize, j: usize) {
        let (a, b) = (cover.paths()[i].indices(), cover.paths()[j].indices());
        let wrap = self.model.includes_wrap();
        path_steps(a, wrap, |from, to| self.count(from, to, false));
        path_steps(b, wrap, |from, to| self.count(from, to, false));
        merged_steps(a, b, wrap, |from, to| self.count(from, to, true));
    }

    /// Undoes [`merge`](Self::merge) of the same paths. Removing before
    /// adding, in both, keeps every count within a cover's step count.
    fn unmerge(&mut self, cover: &PathCover, i: usize, j: usize) {
        let (a, b) = (cover.paths()[i].indices(), cover.paths()[j].indices());
        let wrap = self.model.includes_wrap();
        merged_steps(a, b, wrap, |from, to| self.count(from, to, false));
        path_steps(a, wrap, |from, to| self.count(from, to, true));
        path_steps(b, wrap, |from, to| self.count(from, to, true));
    }

    /// Adds (or removes) one occurrence of the step `from -> to`.
    fn count(&mut self, from: usize, to: usize, add: bool) {
        let id = self.table.id(from, to);
        if id == FREE_STEP {
            return;
        }
        let count = &mut self.counts[id as usize];
        if *count > 0 {
            self.by_count[*count as usize] -= 1;
        }
        if add {
            *count += 1;
            self.raw += 1;
        } else {
            *count -= 1;
            self.raw -= 1;
        }
        if *count > 0 {
            self.by_count[*count as usize] += 1;
            self.top = self.top.max(*count as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raco_graph::Path;

    fn paper_dm() -> DistanceModel {
        DistanceModel::from_offsets(&[1, 0, 2, -1, 1, 0, -2], 1, 1)
    }

    fn paper_phase1_cover() -> PathCover {
        // {(a_1,a_3,a_5), (a_2,a_4,a_6), (a_7)} — the zero-cost K̃ = 3 cover.
        PathCover::new(
            vec![
                Path::new(vec![0, 2, 4]).unwrap(),
                Path::new(vec![1, 3, 5]).unwrap(),
                Path::new(vec![6]).unwrap(),
            ],
            7,
        )
        .unwrap()
    }

    #[test]
    fn already_satisfied_constraint_is_a_no_op() {
        let dm = paper_dm();
        let cover = paper_phase1_cover();
        let r = merge_until(
            &cover,
            3,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        assert_eq!(r.cover(), &cover);
        assert!(r.records().is_empty());
        assert_eq!(r.cost_trajectory(), &[(3, 0)]);
    }

    #[test]
    fn greedy_merges_down_to_k_and_each_merge_costs_at_least_one() {
        let dm = paper_dm();
        let r = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        assert_eq!(r.cover().register_count(), 1);
        assert_eq!(r.records().len(), 2);
        // Minimality of K̃ implies every merge of zero-cost paths costs >= 1.
        let mut last = 0;
        for (k, cost) in r.cost_trajectory().iter().skip(1) {
            assert!(*cost > last, "merge to {k} registers must add cost");
            last = *cost;
        }
    }

    #[test]
    fn cost_trajectory_indexes_by_register_count() {
        let dm = paper_dm();
        let r = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        assert_eq!(r.cost_at(3), Some(0));
        assert!(r.cost_at(2).unwrap() >= 1);
        assert!(r.cost_at(1).unwrap() >= r.cost_at(2).unwrap());
        assert_eq!(r.cost_at(7), None);
    }

    #[test]
    fn greedy_is_no_worse_than_worst_case_here() {
        let dm = paper_dm();
        let greedy = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        let worst = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::WorstCost,
        );
        assert!(
            greedy.cost_at(1).unwrap() <= worst.cost_at(1).unwrap(),
            "greedy {} vs worst {}",
            greedy.cost_at(1).unwrap(),
            worst.cost_at(1).unwrap()
        );
    }

    #[test]
    fn random_strategy_is_reproducible_per_seed() {
        let dm = paper_dm();
        let a = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::Random { seed: 42 },
        );
        let b = merge_until(
            &paper_phase1_cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::Random { seed: 42 },
        );
        assert_eq!(a.cover(), b.cover());
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn first_pair_strategy_merges_canonical_heads() {
        let dm = paper_dm();
        let r = merge_until(
            &paper_phase1_cover(),
            2,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::FirstPair,
        );
        assert_eq!(r.cover().register_count(), 2);
        // First two canonical paths are (a_1,a_3,a_5) and (a_2,a_4,a_6):
        // merged into the 6-access chain; a_7 stays alone.
        assert_eq!(r.cover().paths()[0].len(), 6);
        assert_eq!(r.cover().paths()[1].len(), 1);
    }

    #[test]
    fn merging_preserves_the_access_partition() {
        let dm = paper_dm();
        for strategy in [
            MergeStrategy::GreedyMinCost,
            MergeStrategy::FirstPair,
            MergeStrategy::Random { seed: 7 },
            MergeStrategy::WorstCost,
        ] {
            let r = merge_until(
                &paper_phase1_cover(),
                1,
                &dm,
                CostModel::steady_state(),
                strategy,
            );
            let total: usize = r.cover().paths().iter().map(|p| p.len()).sum();
            assert_eq!(total, 7, "{strategy:?}");
        }
    }

    #[test]
    fn marginal_tie_break_grows_one_chain_instead_of_many_pairs() {
        // FIR-style pattern: offsets 0, -1, …, -7 with stride 1: K̃ = 8
        // (no multi-access path can close its wrap), and the optimum for
        // every 1 <= k < 8 is exactly one unit cost — one long chain pays
        // a single wrap. A greedy that ties toward fresh singleton pairs
        // would pay once per pair instead.
        let offsets: Vec<i64> = (0..8).map(|i| -i).collect();
        let dm = DistanceModel::from_offsets(&offsets, 1, 1);
        let phase1 = crate::phase1::run(&dm, raco_graph::BbOptions::default());
        assert_eq!(phase1.virtual_registers(), 8);
        let r = merge_until(
            phase1.cover(),
            1,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        for (k, cost) in r.cost_trajectory() {
            let expected = if *k == 8 { 0 } else { 1 };
            assert_eq!(*cost, expected, "k = {k}");
        }
    }

    #[test]
    fn greedy_keeps_merging_below_k_when_it_pays() {
        // Stride 5, M = 1: no zero-cost cover exists, Phase 1 falls back
        // to the relaxed cover (two singletons, each paying its wrap).
        // Chaining them costs 1 instead of 2, so greedy must merge even
        // though the register constraint (k = 2) is already met.
        let dm = DistanceModel::from_offsets(&[0, 5], 5, 1);
        let phase1 = crate::phase1::run(&dm, raco_graph::BbOptions::default());
        assert_eq!(
            phase1.outcome(),
            crate::Phase1Outcome::Relaxed,
            "precondition"
        );
        let r = merge_until(
            phase1.cover(),
            2,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
        assert_eq!(r.cover().register_count(), 1);
        assert_eq!(CostModel::steady_state().cover_cost(r.cover(), &dm), 1);
        // The baselines stay at the constraint, as the paper's naive
        // allocator does.
        let naive = merge_until(
            phase1.cover(),
            2,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::FirstPair,
        );
        assert_eq!(naive.cover().register_count(), 2);
    }

    #[test]
    fn opportunistic_merges_need_a_strict_drop_in_selection_cost() {
        // Two free singletons; chaining them takes +10 and a -9 wrap,
        // both over range, which two modify registers absorb. The merge
        // leaves the cost at 0, so it does not pay and the greedy keeps
        // both registers.
        let dm = DistanceModel::from_offsets(&[0, 10], 1, 1);
        let model = CostModel::steady_state().with_modify_registers(2);
        let cover = PathCover::singletons(2);
        let mut merged = cover.clone();
        merged.merge_pair(0, 1).unwrap();
        assert_eq!(model.cover_cost(&merged, &dm), 0, "precondition");
        let r = merge_until(&cover, 2, &dm, model, MergeStrategy::GreedyMinCost);
        assert_eq!(r.cover(), &cover);
        assert!(r.records().is_empty());
    }

    #[test]
    fn one_walk_reproduces_every_register_count() {
        // The relaxed two-access cover leaves the trajectory through the
        // plain opportunistic phase at k = 2; the paper's cover stays on
        // it. Every strategy, with and without priced modify registers,
        // must give the same report read off one walk as walked for one
        // register count alone.
        let relaxed = DistanceModel::from_offsets(&[0, 5], 5, 1);
        let scattered = DistanceModel::from_offsets(&[0, 9, 3, 30, 12, -5, 7], 2, 1);
        let cases = [
            (paper_dm(), paper_phase1_cover()),
            (relaxed, PathCover::singletons(2)),
            (scattered, PathCover::singletons(7)),
        ];
        for (dm, cover) in &cases {
            for base in [CostModel::steady_state(), CostModel::paper_literal()] {
                for strategy in [
                    MergeStrategy::GreedyMinCost,
                    MergeStrategy::WorstCost,
                    MergeStrategy::FirstPair,
                    MergeStrategy::Random { seed: 5 },
                ] {
                    for (account, priced) in [(0, 0), (2, 0), (2, 1), (2, 2)] {
                        let account = base.with_modify_registers(account);
                        let selection = base.with_modify_registers(priced);
                        let n = cover.accesses();
                        let steps = OnceCell::new();
                        let walk = Trajectory::walk(
                            cover,
                            1..=n,
                            dm,
                            account,
                            selection,
                            strategy,
                            &steps,
                        );
                        for k in 1..=n {
                            let alone = merge_until_with_selection(
                                cover, k, dm, account, selection, strategy,
                            );
                            assert_eq!(walk.report(k), alone, "{strategy:?} {selection:?} k={k}");
                            assert_eq!(walk.cost(k), alone.final_cost());
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero registers")]
    fn zero_register_target_is_rejected() {
        let dm = paper_dm();
        let _ = merge_until(
            &paper_phase1_cover(),
            0,
            &dm,
            CostModel::steady_state(),
            MergeStrategy::GreedyMinCost,
        );
    }
}
