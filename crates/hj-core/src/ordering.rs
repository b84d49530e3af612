//! Vector-pairing orderings (the paper's §V-D) as a pluggable subsystem.
//!
//! A sweep must visit every unordered column pair at most once
//! (`n(n−1)/2` pairs for the classical cyclic family). Two orders ship,
//! both cyclic and so both covered by the classical convergence proof:
//!
//! * **Round-robin** — the "caterpillar"/Brent-Luk order arranges each sweep
//!   into `rounds` of **pairwise-disjoint** pairs, which is exactly what
//!   lets the paper's hardware (Fig. 6) issue groups of rotations
//!   concurrently (modelled cycle by cycle in `hj-arch`). The default.
//! * **Row-cyclic** — the literal loop nest of the paper's Algorithm 1,
//!   kept as the paper-faithful reference order.
//!
//! The subsystem has three layers:
//!
//! * [`Sweep`] — one sweep's plan: rounds of disjoint pairs, stored flat.
//! * [`OrderingStrategy`] — plans each sweep's rounds into a caller-owned
//!   [`Sweep`]; planning a sweep into an empty buffer is one allocation.
//! * [`SweepSchedule`] — the strategy + plan buffer + optional
//!   [`ThresholdSchedule`] bundle the [`crate::engine::SolveDriver`] consumes.

use crate::engine::PAIR_TOL;
use crate::gram::GramState;

/// One sweep's worth of pair visits, grouped into rounds.
///
/// Within a round all pairs are disjoint (no column appears twice), so the
/// rounds are the natural unit of parallel execution. Every
/// [`OrderingStrategy`] upholds this invariant. Every round of a plan has
/// the same width — `⌊n/2⌋` pairs for round-robin, one for row-cyclic — so
/// the plan is one flat pair list cut into rounds of that width.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sweep {
    pairs: Vec<(usize, usize)>,
    width: usize,
}

impl Sweep {
    /// An empty plan (no rounds). Strategies fill it via
    /// [`OrderingStrategy::plan_sweep`].
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// The rounds, in execution order.
    pub fn rounds(&self) -> impl Iterator<Item = &[(usize, usize)]> + '_ {
        self.pairs.chunks(self.width.max(1))
    }

    /// Iterate over every pair in sweep order, flattening rounds.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pairs.iter().copied()
    }

    /// Total number of pairs in the sweep.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of rounds.
    pub fn round_count(&self) -> usize {
        self.pairs.len().checked_div(self.width).unwrap_or(0)
    }

    /// Split each round into chunks of at most `group` pairs — modelling the
    /// paper's Fig. 6 dashed box: the hardware processes a bounded number of
    /// vector pairs simultaneously, so an `n/2`-pair round enters the
    /// architecture as successive groups.
    pub fn grouped(&self, group: usize) -> Vec<Vec<(usize, usize)>> {
        assert!(group > 0, "group size must be positive");
        self.grouped_iter(group).map(|chunk| chunk.to_vec()).collect()
    }

    /// Borrowing counterpart of [`Sweep::grouped`]: iterate the same pair
    /// groups as slices into the schedule, without allocating. Round
    /// boundaries are preserved (a group never spans two rounds), so every
    /// group consists of disjoint pairs.
    pub fn grouped_iter(&self, group: usize) -> impl Iterator<Item = &[(usize, usize)]> + '_ {
        assert!(group > 0, "group size must be positive");
        self.rounds().flat_map(move |round| round.chunks(group))
    }

    /// Empty the plan for `rounds` rounds of `width` pairs each, keeping
    /// the pair list's capacity.
    fn reset(&mut self, rounds: usize, width: usize) {
        self.pairs.clear();
        self.pairs.reserve_exact(rounds * width);
        self.width = width;
    }
}

/// Pairing order selection for the sweep drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Round-robin (tournament) cyclic order: `n−1` rounds of `⌊n/2⌋`
    /// disjoint pairs — the paper's Fig. 6 order and the library default.
    /// Provably convergent.
    #[default]
    RoundRobin,
    /// Row-cyclic order: `(0,1), (0,2), …, (0,n−1), (1,2), …` — the literal
    /// loop nest of Algorithm 1 (rounds of one pair).
    RowCyclic,
}

impl Ordering {
    /// Every ordering, in canonical (CLI/bench) order.
    pub const ALL: [Ordering; 2] = [Ordering::RoundRobin, Ordering::RowCyclic];

    /// Canonical short name, as reported in [`crate::SolveStats::ordering`]
    /// and accepted by [`Ordering::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Ordering::RoundRobin => "cyclic",
            Ordering::RowCyclic => "row-cyclic",
        }
    }

    /// Parse a CLI/wire spelling. Accepts the canonical names plus the
    /// aliases the CLI documents (`round-robin`, `row`).
    pub fn parse(s: &str) -> Option<Ordering> {
        match s {
            "cyclic" | "round-robin" => Some(Ordering::RoundRobin),
            "row" | "row-cyclic" => Some(Ordering::RowCyclic),
            _ => None,
        }
    }

    /// Dense index (the wire-protocol byte); inverse of
    /// [`Ordering::from_index`], matching the position in [`Ordering::ALL`].
    pub fn index(self) -> usize {
        match self {
            Ordering::RoundRobin => 0,
            Ordering::RowCyclic => 1,
        }
    }

    /// Inverse of [`Ordering::index`]; `None` for out-of-range bytes.
    pub fn from_index(i: usize) -> Option<Ordering> {
        Ordering::ALL.get(i).copied()
    }
}

/// Round-robin tournament schedule over `n` columns.
///
/// The classic circle method: fix column 0 and rotate the rest (plus a bye
/// slot for odd `n`). Produces `n−1` rounds (`n` rounds for odd `n`), each of
/// `⌊n/2⌋` disjoint pairs; every unordered pair appears exactly once per
/// sweep. Pairs are emitted as `(min, max)`.
///
/// ```
/// use hj_core::ordering::round_robin;
///
/// let sweep = round_robin(8);
/// assert_eq!(sweep.round_count(), 7);
/// assert_eq!(sweep.pair_count(), 28); // C(8, 2): every pair, once
/// // The paper's hardware takes the rounds in groups of 8 pairs:
/// assert!(sweep.grouped(8).iter().all(|g| g.len() <= 8));
/// ```
pub fn round_robin(n: usize) -> Sweep {
    let mut sweep = Sweep::new();
    fill_round_robin(n, &mut sweep);
    sweep
}

/// Row-cyclic order: the literal `for i { for j in i+1.. }` of Algorithm 1.
/// Each pair is its own round (no intra-round parallelism).
pub fn row_cyclic(n: usize) -> Sweep {
    let mut sweep = Sweep::new();
    fill_row_cyclic(n, &mut sweep);
    sweep
}

/// The circle-method planner shared by [`round_robin`] and [`Cyclic`].
///
/// Slot 0 stays fixed and slots `1..slots` rotate right by one each round,
/// so in round `r` slot `k ≥ 1` holds column `1 + (k − 1 − r) mod (slots − 1)`
/// and round `r` pairs slot `k` with slot `slots − 1 − k`. Odd `n` gets a
/// phantom "bye" column `n`, whose pair is left out.
fn fill_round_robin(n: usize, out: &mut Sweep) {
    if n < 2 {
        out.reset(0, 0);
        return;
    }
    let slots = if n.is_multiple_of(2) { n } else { n + 1 };
    let turns = slots - 1;
    out.reset(turns, n / 2);
    let column = |slot: usize, r: usize| {
        if slot == 0 {
            return 0;
        }
        // (slot − 1 − r) mod turns, from an operand already in 0..2·turns.
        let k = slot - 1 + turns - r;
        1 + if k >= turns { k - turns } else { k }
    };
    for r in 0..turns {
        for k in 0..slots / 2 {
            let (a, b) = (column(k, r), column(slots - 1 - k, r));
            if a < n && b < n {
                out.pairs.push((a.min(b), a.max(b)));
            }
        }
    }
}

/// Row-cyclic planner: `n(n−1)/2` rounds of one pair.
fn fill_row_cyclic(n: usize, out: &mut Sweep) {
    out.reset(n * n.saturating_sub(1) / 2, 1);
    for i in 0..n.saturating_sub(1) {
        for j in i + 1..n {
            out.pairs.push((i, j));
        }
    }
}

/// Plans each sweep's rounds of disjoint pairs.
///
/// The [`crate::engine::SolveDriver`] calls [`OrderingStrategy::plan_sweep`]
/// before every sweep with the **same** plan buffer (see [`SweepSchedule`]);
/// a strategy may leave a still-valid plan untouched (returning `false`) or
/// rebuild it (returning `true`). Planning time counts toward the sweep's
/// [`crate::SolveStats::sweep_seconds`]. Strategies write the plan straight
/// into the buffer, so planning into an empty buffer is one allocation and
/// replanning into one that held a plan at least as large is none.
///
/// Every produced plan must keep the pairs of each round pairwise disjoint
/// and visit each unordered pair at most once — the invariant the paper's
/// concurrent rotation groups (Fig. 6) rely on.
pub trait OrderingStrategy {
    /// Which [`Ordering`] this strategy implements.
    fn kind(&self) -> Ordering;

    /// Canonical name for stats/trace labels (defaults to the kind's name).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Ensure `out` holds this strategy's plan for the sweep about to run.
    /// `sweep_index` is 1-based. Returns `true` if the plan was rebuilt
    /// (a *replan*), `false` if the existing plan was reused.
    ///
    /// `out` must be the same buffer on every call for a given solve —
    /// strategies cache what it holds to skip redundant rebuilds.
    fn plan_sweep(&mut self, gram: &GramState, sweep_index: usize, out: &mut Sweep) -> bool;
}

/// Today's default: the round-robin cyclic order, planned once per dimension
/// and reused for every sweep — bit-identical to the pre-subsystem schedule.
#[derive(Debug, Default)]
pub struct Cyclic {
    planned_dim: Option<usize>,
}

impl Cyclic {
    /// A fresh strategy that has planned nothing yet.
    pub fn new() -> Cyclic {
        Cyclic::default()
    }
}

impl OrderingStrategy for Cyclic {
    fn kind(&self) -> Ordering {
        Ordering::RoundRobin
    }

    fn plan_sweep(&mut self, gram: &GramState, _sweep_index: usize, out: &mut Sweep) -> bool {
        let n = gram.dim();
        if self.planned_dim == Some(n) {
            return false;
        }
        fill_round_robin(n, out);
        self.planned_dim = Some(n);
        true
    }
}

/// The row-cyclic order of Algorithm 1's literal loop nest, planned once per
/// dimension (rounds of one pair).
#[derive(Debug, Default)]
pub struct RowCyclic {
    planned_dim: Option<usize>,
}

impl RowCyclic {
    /// A fresh strategy that has planned nothing yet.
    pub fn new() -> RowCyclic {
        RowCyclic::default()
    }
}

impl OrderingStrategy for RowCyclic {
    fn kind(&self) -> Ordering {
        Ordering::RowCyclic
    }

    fn plan_sweep(&mut self, gram: &GramState, _sweep_index: usize, out: &mut Sweep) -> bool {
        let n = gram.dim();
        if self.planned_dim == Some(n) {
            return false;
        }
        fill_row_cyclic(n, out);
        self.planned_dim = Some(n);
        true
    }
}

/// Adapter for callers that bring a ready-made [`Sweep`] (the legacy
/// `SolveDriver::run` path and direct-engine tests): never replans, reports
/// no ordering name (stats show `""`).
#[derive(Debug, Default)]
pub struct Preplanned;

impl OrderingStrategy for Preplanned {
    fn kind(&self) -> Ordering {
        Ordering::RoundRobin
    }

    fn name(&self) -> &'static str {
        ""
    }

    fn plan_sweep(&mut self, _gram: &GramState, _sweep_index: usize, _out: &mut Sweep) -> bool {
        false
    }
}

/// Per-sweep rotation-threshold ramp, composable with any ordering.
///
/// Sweep `s` (1-based) skips pairs whose `|D_ij| ≤ tol(s)·√(D_ii·D_jj)`
/// with `tol(s) = max(PAIR_TOL, initial·decay^(s−1))` — coarse early sweeps
/// spend no rotations on covariances a later sweep would disturb anyway,
/// ramping down to the standard [`PAIR_TOL`] guard. While the ramp is above
/// the floor the driver suppresses the [`crate::Convergence::NoRotations`]
/// stopping rule (a coarse guard's "no rotations" is not convergence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSchedule {
    /// Sweep 1's relative threshold.
    pub initial: f64,
    /// Multiplicative decay per sweep (in `(0, 1)`).
    pub decay: f64,
}

impl ThresholdSchedule {
    /// A schedule starting at `initial` and multiplying by `decay` each
    /// sweep. Non-finite or out-of-range inputs are clamped to the default.
    pub fn new(initial: f64, decay: f64) -> ThresholdSchedule {
        let d = ThresholdSchedule::default();
        ThresholdSchedule {
            initial: if initial.is_finite() && initial > 0.0 { initial } else { d.initial },
            decay: if decay.is_finite() && decay > 0.0 && decay < 1.0 { decay } else { d.decay },
        }
    }

    /// The relative rotation threshold for 1-based sweep `s`, floored at
    /// [`PAIR_TOL`].
    pub fn tol(&self, sweep_index: usize) -> f64 {
        let s = sweep_index.max(1);
        let exp = (s - 1).min(i32::MAX as usize) as i32;
        (self.initial * self.decay.powi(exp)).max(PAIR_TOL)
    }

    /// Whether the ramp is still above the [`PAIR_TOL`] floor at sweep `s`
    /// (i.e. the threshold guard is coarser than the default pair guard).
    pub fn active(&self, sweep_index: usize) -> bool {
        self.tol(sweep_index) > PAIR_TOL
    }
}

impl Default for ThresholdSchedule {
    /// `initial = 1e-2`, `decay = 1e-2`: tol 1e-2, 1e-4, 1e-6, …, reaching
    /// the [`PAIR_TOL`] floor by sweep 8. Sweep 1's threshold sits above the
    /// `~1/√m` correlation scale of random columns, so the coarse sweeps
    /// actually defer near-orthogonal pairs, while the two-orders-per-sweep
    /// ramp stays below the iteration's own convergence trajectory and never
    /// blocks a rotation the tail sweeps need.
    fn default() -> ThresholdSchedule {
        ThresholdSchedule { initial: 1e-2, decay: 1e-2 }
    }
}

/// The per-solve schedule the [`crate::engine::SolveDriver`] consumes: a
/// planning strategy, its (reused) plan buffer, and an optional rotation
/// threshold ramp.
pub struct SweepSchedule<'a> {
    /// Plans each sweep's rounds (same plan buffer every call).
    pub strategy: &'a mut dyn OrderingStrategy,
    /// The plan buffer the strategy writes into and the engines read.
    pub plan: &'a mut Sweep,
    /// Optional per-sweep rotation-threshold ramp.
    pub threshold: Option<ThresholdSchedule>,
}

/// One instance of every strategy plus a dedicated plan buffer per strategy.
/// A solve builds one and plans into it (one allocation); carried across
/// solves, it replans only when the dimension changes. Each strategy gets
/// its *own* plan buffer — a shared one would invalidate the
/// once-per-dimension caches whenever the selected ordering changes.
#[derive(Debug, Default)]
pub struct PlanBuffers {
    cyclic: Cyclic,
    row: RowCyclic,
    plan_cyclic: Sweep,
    plan_row: Sweep,
}

impl PlanBuffers {
    /// Fresh, empty buffers (everything sized lazily on first plan).
    pub fn new() -> PlanBuffers {
        PlanBuffers::default()
    }

    /// Borrow the strategy and plan buffer for `kind`, ready to assemble a
    /// [`SweepSchedule`].
    pub fn schedule_parts(&mut self, kind: Ordering) -> (&mut dyn OrderingStrategy, &mut Sweep) {
        match kind {
            Ordering::RoundRobin => (&mut self.cyclic, &mut self.plan_cyclic),
            Ordering::RowCyclic => (&mut self.row, &mut self.plan_row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_full_coverage(sweep: &Sweep, n: usize) {
        let mut seen = HashSet::new();
        for (i, j) in sweep.pairs() {
            assert!(i < j, "pairs must be (min, max): ({i},{j})");
            assert!(j < n);
            assert!(seen.insert((i, j)), "pair ({i},{j}) visited twice");
        }
        assert_eq!(seen.len(), n * (n - 1) / 2, "sweep must visit every pair for n={n}");
    }

    fn assert_rounds_disjoint(sweep: &Sweep) {
        for round in sweep.rounds() {
            let mut used = HashSet::new();
            for &(i, j) in round {
                assert!(used.insert(i), "index {i} reused within a round");
                assert!(used.insert(j), "index {j} reused within a round");
            }
        }
    }

    fn gram_for(n: usize, seed: u64) -> GramState {
        GramState::from_matrix(&hj_matrix::gen::uniform(2 * n + 3, n, seed))
    }

    #[test]
    fn round_robin_covers_all_pairs_even() {
        for n in [2usize, 4, 8, 32, 64] {
            let s = round_robin(n);
            assert_eq!(s.round_count(), n - 1);
            assert_full_coverage(&s, n);
            assert_rounds_disjoint(&s);
            for round in s.rounds() {
                assert_eq!(round.len(), n / 2);
            }
        }
    }

    #[test]
    fn round_robin_covers_all_pairs_odd() {
        for n in [3usize, 5, 7, 31] {
            let s = round_robin(n);
            assert_eq!(s.round_count(), n);
            assert_full_coverage(&s, n);
            assert_rounds_disjoint(&s);
            assert!(s.rounds().all(|round| round.len() == n / 2), "the bye drops one pair");
        }
    }

    #[test]
    fn round_robin_degenerate() {
        assert_eq!(round_robin(0).pair_count(), 0);
        assert_eq!(round_robin(1).pair_count(), 0);
        let s = round_robin(2);
        assert_eq!(s.pair_count(), 1);
        assert_eq!(s.rounds().collect::<Vec<_>>(), [&[(0, 1)][..]]);
        assert_eq!(round_robin(1).round_count(), 0);
        assert_eq!(row_cyclic(1).round_count(), 0);
    }

    /// The circle method written as a ring of slots rotated once per round.
    fn ring_round_robin(n: usize) -> Vec<(usize, usize)> {
        let slots = if n.is_multiple_of(2) { n } else { n + 1 };
        let mut ring: Vec<usize> = (0..slots).collect();
        let mut pairs = Vec::new();
        for _ in 1..slots {
            for k in 0..slots / 2 {
                let (a, b) = (ring[k], ring[slots - 1 - k]);
                if a < n && b < n {
                    pairs.push((a.min(b), a.max(b)));
                }
            }
            ring[1..].rotate_right(1);
        }
        pairs
    }

    #[test]
    fn closed_form_planner_matches_the_rotating_ring() {
        // Same pairs in the same order is what keeps solves bit-identical.
        for n in 0usize..40 {
            assert_eq!(round_robin(n).pairs().collect::<Vec<_>>(), ring_round_robin(n), "n={n}");
        }
    }

    #[test]
    fn row_cyclic_matches_algorithm_one_order() {
        let s = row_cyclic(4);
        let pairs: Vec<_> = s.pairs().collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_full_coverage(&s, 4);
    }

    #[test]
    fn grouped_respects_group_size() {
        let s = round_robin(32);
        // The paper's configuration: groups of 8 pairs enter the architecture.
        let groups = s.grouped(8);
        assert!(groups.iter().all(|g| g.len() <= 8 && !g.is_empty()));
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 32 * 31 / 2);
        // Disjointness within groups is inherited from rounds.
        for g in &groups {
            let mut used = HashSet::new();
            for &(i, j) in g {
                assert!(used.insert(i) && used.insert(j));
            }
        }
    }

    #[test]
    fn grouped_iter_matches_grouped() {
        for n in [5usize, 8, 17, 32] {
            let s = round_robin(n);
            for group in [1usize, 3, 8] {
                let owned = s.grouped(group);
                let borrowed: Vec<&[(usize, usize)]> = s.grouped_iter(group).collect();
                assert_eq!(owned.len(), borrowed.len(), "n={n} group={group}");
                for (o, b) in owned.iter().zip(&borrowed) {
                    assert_eq!(o.as_slice(), *b);
                }
            }
        }
    }

    #[test]
    fn names_and_parse_round_trip() {
        for kind in Ordering::ALL {
            assert_eq!(Ordering::parse(kind.name()), Some(kind));
        }
        assert_eq!(Ordering::parse("round-robin"), Some(Ordering::RoundRobin));
        assert_eq!(Ordering::parse("row"), Some(Ordering::RowCyclic));
        assert_eq!(Ordering::parse("warp"), None);
        for (i, kind) in Ordering::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(Ordering::from_index(i), Some(*kind));
        }
        assert_eq!(Ordering::from_index(Ordering::ALL.len()), None);
    }

    #[test]
    fn cyclic_strategy_is_bit_identical_to_round_robin() {
        for n in [2usize, 7, 8, 24] {
            let gram = gram_for(n, 5);
            let mut strat = Cyclic::new();
            let mut plan = Sweep::new();
            assert!(strat.plan_sweep(&gram, 1, &mut plan), "first call must plan");
            assert_eq!(plan, round_robin(n), "n={n}");
            // Later sweeps reuse the plan verbatim.
            assert!(!strat.plan_sweep(&gram, 2, &mut plan));
            assert_eq!(plan, round_robin(n));
        }
    }

    #[test]
    fn strategies_replan_on_dimension_change() {
        let mut strat = Cyclic::new();
        let mut plan = Sweep::new();
        assert!(strat.plan_sweep(&gram_for(6, 1), 1, &mut plan));
        assert!(strat.plan_sweep(&gram_for(9, 2), 1, &mut plan), "new dim must replan");
        assert_eq!(plan, round_robin(9));
        // Shrinking keeps the buffer but must take the new round width.
        assert!(strat.plan_sweep(&gram_for(4, 3), 1, &mut plan));
        assert_eq!(plan, round_robin(4));
        assert_eq!(plan.rounds().map(<[_]>::len).collect::<Vec<_>>(), [2, 2, 2]);
    }

    #[test]
    fn threshold_schedule_ramps_down_to_pair_tol() {
        let th = ThresholdSchedule::default();
        assert!(th.tol(1) > th.tol(2));
        assert!(th.tol(2) > th.tol(3));
        assert!(th.active(1));
        // The ramp bottoms out exactly at the floor and stays there.
        assert_eq!(th.tol(40), PAIR_TOL);
        assert!(!th.active(40));
        // Sanitization: bad inputs fall back to the default schedule.
        assert_eq!(ThresholdSchedule::new(f64::NAN, 2.0), ThresholdSchedule::default());
        let custom = ThresholdSchedule::new(1e-2, 0.1);
        assert_eq!(custom.tol(1), 1e-2);
        assert!((custom.tol(2) - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn plan_buffers_hand_out_matching_parts() {
        let gram = gram_for(8, 21);
        let mut bufs = PlanBuffers::new();
        for kind in Ordering::ALL {
            let (strategy, plan) = bufs.schedule_parts(kind);
            assert_eq!(strategy.kind(), kind);
            strategy.plan_sweep(&gram, 1, plan);
            assert_full_coverage(plan, 8);
            assert_rounds_disjoint(plan);
        }
        // A second checkout of the same kind sees the cached plan.
        let (strategy, plan) = bufs.schedule_parts(Ordering::RoundRobin);
        assert!(!strategy.plan_sweep(&gram, 2, plan));
    }

    #[test]
    fn preplanned_never_replans() {
        let gram = gram_for(6, 2);
        let mut strat = Preplanned;
        let mut plan = round_robin(6);
        let before = plan.clone();
        assert!(!strat.plan_sweep(&gram, 1, &mut plan));
        assert_eq!(plan, before);
        assert_eq!(strat.name(), "");
    }
}
