//! Vector-pairing orderings (the paper's §V-D).
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
//! A sweep's plan is a function of the ordering and `n` alone, so a solve
//! plans once and replays the plan every sweep, as the paper's rotation
//! unit replays one fixed pair schedule:
//!
//! * [`Sweep`] — one sweep's plan: rounds of disjoint pairs, stored flat.
//! * [`Ordering::plan_into`] — plans a sweep into a caller-owned [`Sweep`];
//!   planning into an empty buffer is one allocation.
//! * [`SweepSchedule`] — the ordering + plan buffer + optional
//!   [`ThresholdSchedule`] bundle the [`crate::engine::SolveDriver`]
//!   consumes; the driver plans into the buffer at sweep 1.

use crate::engine::PAIR_TOL;

/// One sweep's worth of pair visits, grouped into rounds.
///
/// Within a round all pairs are disjoint (no column appears twice), so the
/// rounds are the natural unit of parallel execution; both orderings
/// uphold this invariant. Every round of a plan has the same width —
/// `⌊n/2⌋` pairs for round-robin, one for row-cyclic — so the plan is one
/// flat pair list cut into rounds of that width. The plan remembers the
/// [`Ordering`] it was made with, which picks the engine's sweep path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sweep {
    pairs: Vec<(usize, usize)>,
    width: usize,
    ordering: Ordering,
}

impl Sweep {
    /// An empty plan (no rounds), filled by [`Ordering::plan_into`].
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

    /// The ordering this plan was made with.
    pub(crate) fn ordering(&self) -> Ordering {
        self.ordering
    }

    /// Empty the plan for `rounds` rounds of `width` pairs each of
    /// `ordering`, keeping the pair list's capacity.
    fn reset(&mut self, rounds: usize, width: usize, ordering: Ordering) {
        self.pairs.clear();
        self.pairs.reserve_exact(rounds * width);
        self.width = width;
        self.ordering = ordering;
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

    /// Plan one sweep over `n` columns into `out` — [`round_robin`] or
    /// [`row_cyclic`] — reusing its capacity: planning into an empty
    /// [`Sweep`] is one allocation, and into one that held a plan at least
    /// as large, none.
    pub fn plan_into(self, n: usize, out: &mut Sweep) {
        match self {
            Ordering::RoundRobin => fill_round_robin(n, out),
            Ordering::RowCyclic => fill_row_cyclic(n, out),
        }
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

/// Ring slots of the circle method over `n` columns: `n`, plus a phantom
/// "bye" column `n` when `n` is odd.
pub(crate) fn ring_slots(n: usize) -> usize {
    if n.is_multiple_of(2) {
        n
    } else {
        n + 1
    }
}

/// The column in ring slot `slot` in round `r` of the circle method over
/// `slots` slots: slot 0 stays fixed and slots `1..slots` rotate right by
/// one each round, so slot `k ≥ 1` holds column
/// `1 + (k − 1 − r) mod (slots − 1)`. Round `r` pairs slot `k` with slot
/// `slots − 1 − k`. The planner and the engine's round kernel both place
/// columns with this one function.
#[inline]
pub(crate) fn ring_column(slot: usize, r: usize, slots: usize) -> usize {
    if slot == 0 {
        return 0;
    }
    let turns = slots - 1;
    // (slot − 1 − r) mod turns, from an operand already in 0..2·turns.
    let k = slot - 1 + turns - r;
    1 + if k >= turns { k - turns } else { k }
}

/// The circle-method planner behind [`round_robin`] and
/// [`Ordering::RoundRobin`]: round `r` visits the pairs of
/// [`ring_column`]'s slots `k` and `slots − 1 − k` in slot order. Odd `n`'s
/// phantom "bye" column `n` has its pair left out.
fn fill_round_robin(n: usize, out: &mut Sweep) {
    if n < 2 {
        out.reset(0, 0, Ordering::RoundRobin);
        return;
    }
    let slots = ring_slots(n);
    let turns = slots - 1;
    out.reset(turns, n / 2, Ordering::RoundRobin);
    for r in 0..turns {
        for k in 0..slots / 2 {
            let (a, b) = (ring_column(k, r, slots), ring_column(slots - 1 - k, r, slots));
            if a < n && b < n {
                out.pairs.push((a.min(b), a.max(b)));
            }
        }
    }
}

/// Row-cyclic planner: `n(n−1)/2` rounds of one pair.
fn fill_row_cyclic(n: usize, out: &mut Sweep) {
    out.reset(n * n.saturating_sub(1) / 2, 1, Ordering::RowCyclic);
    for i in 0..n.saturating_sub(1) {
        for j in i + 1..n {
            out.pairs.push((i, j));
        }
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

/// The per-solve schedule the [`crate::engine::SolveDriver`] consumes: the
/// ordering, the plan buffer the driver plans it into at sweep 1, and an
/// optional rotation threshold ramp.
pub struct SweepSchedule<'a> {
    /// The pair ordering every sweep of the solve follows.
    pub strategy: Ordering,
    /// The plan buffer: filled once per solve, read by the engine every
    /// sweep.
    pub plan: &'a mut Sweep,
    /// Optional per-sweep rotation-threshold ramp.
    pub threshold: Option<ThresholdSchedule>,
}

/// A single plan buffer, kept only for the benchmark's traced replay
/// (`perfbench/`), which builds its [`SweepSchedule`] from
/// [`PlanBuffers::schedule_parts`]. Solves plan into a local [`Sweep`].
/// This type goes once that replay reads production counters instead
/// (ROADMAP.md, item 1).
#[derive(Debug, Default)]
pub struct PlanBuffers {
    plan: Sweep,
}

impl PlanBuffers {
    /// An empty plan buffer.
    pub fn new() -> PlanBuffers {
        PlanBuffers::default()
    }

    /// The ordering and the plan buffer, ready to assemble a
    /// [`SweepSchedule`].
    pub fn schedule_parts(&mut self, ordering: Ordering) -> (Ordering, &mut Sweep) {
        (ordering, &mut self.plan)
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
        // Same pairs in the same order is what keeps solves bit-identical,
        // and the ordering plans exactly `round_robin(n)`.
        let mut plan = Sweep::new();
        for n in 0usize..40 {
            assert_eq!(round_robin(n).pairs().collect::<Vec<_>>(), ring_round_robin(n), "n={n}");
            Ordering::RoundRobin.plan_into(n, &mut plan);
            assert_eq!(plan, round_robin(n), "n={n}");
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
    fn a_reused_plan_takes_each_new_dimension() {
        let mut plan = Sweep::new();
        Ordering::RoundRobin.plan_into(6, &mut plan);
        Ordering::RoundRobin.plan_into(9, &mut plan);
        assert_eq!(plan, round_robin(9));
        // Shrinking keeps the buffer but must take the new round width.
        Ordering::RoundRobin.plan_into(4, &mut plan);
        assert_eq!(plan, round_robin(4));
        assert_eq!(plan.rounds().map(<[_]>::len).collect::<Vec<_>>(), [2, 2, 2]);
        Ordering::RowCyclic.plan_into(4, &mut plan);
        assert_eq!(plan, row_cyclic(4));
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
}
