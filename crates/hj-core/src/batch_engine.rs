//! Batched SoA solve engine — high throughput for many tiny SVDs.
//!
//! The paper's §V utilization analysis shows that at small `n` the
//! Hestenes-Jacobi datapath is starved: per-pair coordination and memory
//! traffic dominate, not the rotations themselves. That is exactly the
//! regime of the "millions of tiny SVDs" workloads (sensor covariance
//! blocks, whitening, per-head attention analysis) the batch drivers in
//! [`crate::batch`] serve — and those drivers still pay the full per-solve
//! overhead once per matrix, because each worker loops one problem at a
//! time.
//!
//! This module batches *across* problems instead, the structure-of-arrays
//! trick of the GPU batch-SVD literature: the packed Gram triangles are
//! interleaved with the lane index fastest-moving ([`hj_matrix::soa`]
//! layout, lane-padded to [`hj_matrix::ops::ROTATE_LANES`]), so the
//! rotation of pair `(i, j)` touches one contiguous lanes-wide slice per
//! Gram entry and a whole sweep runs as straight-line vectorizable loops
//! ([`crate::kernel::batch_params_soa`] / [`crate::kernel::rotate_packed_soa`]).
//! The strided packed-triangle accesses that dominate the scalar
//! [`crate::kernel::rotate_packed`] at small `n` vanish entirely.
//!
//! The interleave is tiled into cache *blocks* (AoSoA), and a block is the
//! unit of parallel work. Each block holds whole `ROTATE_LANES` groups of
//! lanes with its own triangles and every per-lane buffer, and sweeps the
//! pair schedule to convergence on its own: lanes never read each other, so
//! blocks share nothing but the schedule. A batch is cut into the fewest
//! evenly sized blocks whose triangles fit an L2-sized budget
//! (`BLOCK_TRI_BYTES`), and, once it has the work to pay for a dispatch
//! (`SPLIT_WORK`) and lanes enough for blocks of 64 (`SPLIT_GROUPS`), into
//! a multiple of the rayon pool's thread count. [`BatchDriver::load`] and
//! [`BatchDriver::sweep_to_convergence`] then run each block on its own pool
//! thread; a batch of one block runs on the caller with no dispatch, and
//! [`BatchDriver::extract`] gathers the results on the caller's thread. A
//! busy pool — a nested call, or another thread's batch in flight, such as
//! a second hj-serve worker's bulk job — runs every block in turn on the
//! caller instead; blocks of at least 64 lanes keep that within a few
//! percent of one wide block. A lane's bits do not depend on its block, so
//! they are the same at any thread count and on either path.
//!
//! [`BatchDriver`] runs the shared cyclic sweep schedule over each block
//! with a **per-problem active mask**:
//!
//! * a problem that satisfies the solver's [`crate::Convergence`] criterion
//!   drops out (its lane gets identity rotation parameters — bit-preserving
//!   for its diagonal, hence for its spectrum) without stalling the batch;
//! * a problem that trips the health check (non-finite Gram, materially
//!   negative diagonal, convergence stall — each lane runs the scalar
//!   driver's [`crate::HealthCheck`] on its own [`crate::DiagonalScan`] and
//!   stall memory) faults **alone**: lanes never read each other, so a
//!   NaN-poisoned problem cannot perturb its neighbors' bits;
//! * a [`crate::SolveBudget`] deadline/cancellation aborts every
//!   still-active problem of a block at *that block's* next sweep boundary.
//!   Blocks sweep independently, so the problems of one batch can abort at
//!   different sweeps, each fault naming its own block's sweep.
//!
//! A faulted problem aborts, as on every solve path: nothing is retried.
//! The guarded-numerics prescaling of [`crate::svd`] applies per problem at
//! pack time, so the usual overflow/underflow classes never fault in the
//! first place.
//!
//! Results match the looped path within a `1e-12·σ_max` envelope (pinned by
//! proptest): the lanes-wide parameter kernel computes the textbook chain
//! in a vectorizable `sqrt`-based form that tracks the scalar one to ~1 ulp
//! (see [`crate::kernel::batch_params_soa`]), the rotation kernel applies
//! the scalar expressions (contracted to fused multiply-adds, ≤ 1 ulp, on
//! FMA hardware), the shared schedule keeps rotating a lane until *its own*
//! criterion fires, and sweep-boundary bookkeeping differs from the scalar
//! driver only in traversal.

use crate::convergence::{is_converged, off_frobenius, SweepRecord, MAX_SWEEP_CAP};
use crate::engine::PAIR_TOL;
use crate::gram::DiagonalScan;
use crate::kernel::{batch_params_soa, rotate_packed_soa};
use crate::ordering::{round_robin, Ordering};
use crate::recovery::{Fault, HealthCheck, HealthState};
use crate::stats::SolveStats;
use crate::svd::{prescale_exponent, scale_exp2, spectrum, HestenesSvd, SingularValues};
use crate::SvdError;
use hj_matrix::ops::{self, GramScan};
use hj_matrix::{soa, Matrix, PackedSymmetric};
use rayon::prelude::*;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Stable engine name reported in [`SolveStats::engine`] for batched-SoA
/// solves.
pub const BATCH_SOA_ENGINE: &str = "batch-soa";

/// Largest per-problem dimension `n` for which the automatic
/// [`crate::HestenesSvd::singular_values_batch`] dispatch prefers the SoA
/// engine. Beyond it the per-problem `O(n³)` rotation work amortizes the
/// scalar path's per-pair overhead on its own, and the interleaved triangle
/// (`n(n+1)/2 · lanes` doubles) stops fitting cache comfortably.
pub const SOA_DISPATCH_MAX_N: usize = 32;

/// Per-block cache budget for the interleaved triangles, in bytes. A block
/// of `B` lanes holds `n(n+1)/2 · B` doubles that every pair of a sweep
/// re-touches; keeping that within an L2-sized budget stops the rotation
/// kernel from streaming the whole batch footprint from L3/DRAM once per
/// pair. The budget is deliberately generous (~1.5 MiB): on one thread the
/// default `k = 256, n ≤ 32` workload fits a single block, because measured
/// on wide-vector cores the per-block loop and call overhead of narrow
/// tiles costs far more than L2 misses save. The pool's thread count, not
/// this budget, sets the block count of such batches.
const BLOCK_TRI_BYTES: usize = 1536 * 1024;

/// Work `k·n³` from which a batch is split over the pool, and lane groups
/// each block then gets at least (64 lanes). Below the work, the dispatch
/// (about 20 µs) costs more than the second core saves: 8 problems of 8×4
/// took 25 µs split against 6–10 µs on one thread. Narrower blocks cost
/// per-pair loop overhead on every lane group: swept one after the other,
/// as on a busy pool, two blocks of 32 lanes took 1.03–1.09× one block of
/// 64, and two of 16 lanes 1.21–1.28×, while two of 64 lanes took
/// 0.97–1.05× one block of 128 (EXPERIMENTS.md, "Bulk batches on both
/// cores").
const SPLIT_WORK: usize = 1 << 15;
const SPLIT_GROUPS: usize = 16;

/// Why a lane stopped participating in its block's sweep loop.
#[derive(Debug, Clone)]
enum LaneOutcome {
    /// Still sweeping (or finished the budget without meeting the criterion
    /// — like the scalar driver, that is a clean result, not an error).
    Running,
    /// Rejected at pack time, before any sweep ran.
    Invalid(SvdError),
    /// Tripped a health check or the solve budget mid-flight.
    Faulted(Fault),
    /// Met the solver's convergence criterion.
    Converged,
}

/// Refill `buf` with exactly `len` copies of `fill`, counting a growth
/// event in `allocations` only when the capacity actually increases.
fn reset<T: Clone>(allocations: &mut usize, buf: &mut Vec<T>, len: usize, fill: T) {
    if buf.capacity() < len {
        *allocations += 1;
    }
    buf.clear();
    buf.resize(len, fill);
}

/// One cache block of lanes: its interleaved triangles, the pair kernels'
/// per-lane scratch and every per-problem accumulator of the sweep loop.
/// Blocks share nothing but the pair schedule, so each one loads and sweeps
/// on whichever pool thread takes it.
#[derive(Debug, Default)]
struct Block {
    /// Batch index of the block's first problem.
    first: usize,
    /// Problems loaded into the block (lanes `problems..lanes` are padding).
    problems: usize,
    /// Lane count: a whole number of `ROTATE_LANES` groups.
    lanes: usize,
    /// Interleaved packed triangles: entry `e` of lane `q` lives at
    /// `d[e · lanes + q]`.
    d: Vec<f64>,
    /// Per-lane rotation parameters for the current pair.
    cos: Vec<f64>,
    sin: Vec<f64>,
    t: Vec<f64>,
    /// Per-lane "rotation applied" flag for the current pair.
    applied: Vec<u8>,
    /// Per-lane participation mask (0 for converged/faulted/padding lanes).
    active: Vec<u8>,
    /// Per-problem prescale exponents (guarded numerics, applied at pack).
    exps: Vec<i32>,
    /// Per-problem outcome.
    outcome: Vec<LaneOutcome>,
    /// Per-problem sweep histories.
    histories: Vec<Vec<SweepRecord>>,
    /// Wall-clock seconds of each of the block's sweeps.
    sweep_seconds: Vec<f64>,
    /// Per-lane rotations applied during the current sweep.
    applied_count: Vec<usize>,
    // Per-lane post-sweep metric accumulators (off-diagonal summary,
    // diagonal scan, trace) — one fused pass over the SoA triangles.
    abs_sum: Vec<f64>,
    sum_sq: Vec<f64>,
    max_abs: Vec<f64>,
    diag_min: Vec<f64>,
    diag_argmin: Vec<usize>,
    diag_max_abs: Vec<f64>,
    diag_finite: Vec<u8>,
    trace: Vec<f64>,
    /// Per-lane stall-detector memory for the health check.
    health: Vec<HealthState>,
    /// Prescale scratch: one problem's scaled column data.
    scaled: Vec<f64>,
    /// Buffer creation/growth events.
    allocations: usize,
}

impl Block {
    /// Size every buffer for `problems` problems of `tri` triangle entries
    /// in `lanes` lanes, starting at batch index `first`, clearing per-call
    /// state but never shrinking capacity.
    fn prepare(&mut self, tri: usize, first: usize, problems: usize, lanes: usize) {
        let a = &mut self.allocations;
        reset(a, &mut self.d, tri * lanes, 0.0);
        reset(a, &mut self.cos, lanes, 0.0);
        reset(a, &mut self.sin, lanes, 0.0);
        reset(a, &mut self.t, lanes, 0.0);
        reset(a, &mut self.applied, lanes, 0);
        reset(a, &mut self.active, lanes, 0);
        reset(a, &mut self.abs_sum, lanes, 0.0);
        reset(a, &mut self.sum_sq, lanes, 0.0);
        reset(a, &mut self.max_abs, lanes, 0.0);
        reset(a, &mut self.diag_min, lanes, 0.0);
        reset(a, &mut self.diag_argmin, lanes, 0);
        reset(a, &mut self.diag_max_abs, lanes, 0.0);
        reset(a, &mut self.diag_finite, lanes, 1);
        reset(a, &mut self.trace, lanes, 0.0);
        reset(a, &mut self.health, lanes, HealthState::new());
        reset(a, &mut self.applied_count, lanes, 0);
        reset(a, &mut self.exps, problems, 0);
        reset(a, &mut self.outcome, problems, LaneOutcome::Running);
        if self.histories.len() < problems {
            self.allocations += 1;
            self.histories.resize_with(problems, Vec::new);
        }
        for h in &mut self.histories[..problems] {
            h.clear();
        }
        self.sweep_seconds.clear();
        self.first = first;
        self.problems = problems;
        self.lanes = lanes;
    }

    /// Build lane `q`'s Gram triangle from `mat`, reading it once: the
    /// build scans the input as it goes, as the scalar path's does. Only a
    /// build the scan stopped — a NaN or ±∞, or a running max outside the
    /// prescale window — falls back to one full scan, which gives
    /// `NonFiniteInput` or the exact max, and then to a build from the
    /// input scaled by the exponent that max gives. Input errors come in
    /// the scalar path's order: `EmptyInput`, `NonFiniteInput`,
    /// `ZeroSweepBudget`.
    fn load_lane(&mut self, q: usize, mat: &Matrix, zero_budget: bool) {
        let (rows, n) = mat.shape();
        let data = mat.as_slice();
        if mat.is_empty() {
            self.outcome[q] = LaneOutcome::Invalid(SvdError::EmptyInput);
            return;
        }
        if zero_budget {
            let err = match ops::finite_max_abs(data) {
                Some(_) => SvdError::ZeroSweepBudget,
                None => SvdError::NonFiniteInput,
            };
            self.outcome[q] = LaneOutcome::Invalid(err);
            return;
        }
        // Lane q's entries stride by the block width from its lane base.
        let (out, lanes) = (&mut self.d[q..], self.lanes);
        let stop = AtomicBool::new(false);
        let scan = GramScan { window: |max_abs| prescale_exponent(max_abs) == 0, stop: &stop };
        if ops::gram_packed_rows(data, rows, n, 0..n, out, lanes, Some(&scan)).is_none() {
            let Some(max_abs) = ops::finite_max_abs(data) else {
                self.outcome[q] = LaneOutcome::Invalid(SvdError::NonFiniteInput);
                return;
            };
            let exp = prescale_exponent(max_abs);
            let data = if exp == 0 {
                data
            } else {
                // Out-of-window input: scale a scratch copy by the exact
                // power of two first (squaring unscaled entries is what
                // overflows), then build the Gram from the scratch columns.
                reset(&mut self.allocations, &mut self.scaled, data.len(), 0.0);
                self.scaled.copy_from_slice(data);
                scale_exp2(&mut self.scaled, exp);
                &self.scaled
            };
            ops::gram_packed(data, rows, n, &mut self.d[q..], lanes);
            self.exps[q] = exp;
        }
        self.active[q] = 1;
    }

    /// Sweep the shared `pairs` schedule over this block until every lane
    /// has converged, faulted, or exhausted the solver's sweep budget,
    /// calling `before(sweep, block)` ahead of each sweep that runs (after
    /// the budget check), so that a test can corrupt a lane's `D` exactly
    /// where a scalar [`crate::SweepEngine`] would.
    fn sweep(
        &mut self,
        solver: &HestenesSvd,
        n: usize,
        pairs: &[(usize, usize)],
        before: &impl Fn(usize, &mut Block),
    ) {
        let opts = solver.options();
        let max_sweeps = opts.max_sweeps.min(MAX_SWEEP_CAP);
        let lanes = self.lanes;
        let off = |r: usize, c: usize| ops::packed_row_start(n, r) + (c - r);
        for sweep in 1..=max_sweeps {
            if self.active.iter().all(|&a| a == 0) {
                break;
            }
            if let Some(fault) = solver.budget().check(sweep) {
                for q in 0..self.problems {
                    if self.active[q] != 0 {
                        self.active[q] = 0;
                        self.outcome[q] = LaneOutcome::Faulted(fault);
                    }
                }
                break;
            }
            before(sweep, self);
            let started = Instant::now();
            self.applied_count.iter_mut().for_each(|c| *c = 0);
            for &(i, j) in pairs {
                let oi = off(i, i) * lanes;
                let oj = off(j, j) * lanes;
                let oc = off(i, j) * lanes;
                let any_live = batch_params_soa(
                    &self.d[oi..oi + lanes],
                    &self.d[oj..oj + lanes],
                    &self.d[oc..oc + lanes],
                    &self.active,
                    PAIR_TOL,
                    &mut self.cos,
                    &mut self.sin,
                    &mut self.t,
                    &mut self.applied,
                );
                if any_live {
                    rotate_packed_soa(
                        &mut self.d,
                        n,
                        lanes,
                        i,
                        j,
                        &self.cos,
                        &self.sin,
                        &self.t,
                        &self.applied,
                    );
                    for (c, &a) in self.applied_count.iter_mut().zip(&self.applied) {
                        *c += usize::from(a);
                    }
                }
            }
            self.sweep_seconds.push(started.elapsed().as_secs_f64());
            self.scan_metrics(n);
            for q in 0..self.problems {
                if self.active[q] == 0 {
                    continue;
                }
                let d = &self.d;
                let entries =
                    (0..n).flat_map(|r| (r + 1..n).map(move |c| d[off(r, c) * lanes + q]));
                let rec = SweepRecord {
                    sweep,
                    mean_abs_cov: if n < 2 {
                        0.0
                    } else {
                        self.abs_sum[q] / ((n * (n - 1) / 2) as f64)
                    },
                    off_frobenius: off_frobenius(self.sum_sq[q], self.max_abs[q], entries),
                    max_abs_cov: self.max_abs[q],
                    rotations_applied: self.applied_count[q],
                    rotations_skipped: pairs.len() - self.applied_count[q],
                };
                self.histories[q].push(rec);
                let scan = DiagonalScan {
                    finite: self.diag_finite[q] != 0,
                    min: self.diag_min[q],
                    argmin: self.diag_argmin[q],
                    max_abs: self.diag_max_abs[q],
                };
                if let Some(fault) =
                    HealthCheck::default().inspect(&scan, n, &rec, &mut self.health[q])
                {
                    self.active[q] = 0;
                    self.outcome[q] = LaneOutcome::Faulted(fault);
                    continue;
                }
                if is_converged(&opts.convergence, &rec, self.trace[q], n) {
                    self.active[q] = 0;
                    self.outcome[q] = LaneOutcome::Converged;
                }
            }
        }
    }

    /// One fused pass over the interleaved triangles computing, per lane, the
    /// off-diagonal summary (`abs_sum`, `sum_sq`, `max_abs` — the
    /// [`hj_matrix::OffDiagonalSummary`] fields), the diagonal scan
    /// (finiteness, min/argmin, max-abs — the [`crate::DiagonalScan`]
    /// fields), and the trace.
    fn scan_metrics(&mut self, n: usize) {
        let lanes = self.lanes;
        self.abs_sum.fill(0.0);
        self.sum_sq.fill(0.0);
        self.max_abs.fill(0.0);
        self.diag_min.fill(f64::INFINITY);
        self.diag_argmin.fill(0);
        self.diag_max_abs.fill(0.0);
        self.diag_finite.fill(1);
        self.trace.fill(0.0);
        let mut idx = 0usize;
        for r in 0..n {
            let row = &self.d[idx * lanes..(idx + 1) * lanes];
            for (q, &v) in row.iter().enumerate() {
                self.trace[q] += v;
                if !v.is_finite() {
                    self.diag_finite[q] = 0;
                }
                if v < self.diag_min[q] {
                    self.diag_min[q] = v;
                    self.diag_argmin[q] = r;
                }
                self.diag_max_abs[q] = self.diag_max_abs[q].max(v.abs());
            }
            idx += 1;
            for _ in (r + 1)..n {
                let row = &self.d[idx * lanes..(idx + 1) * lanes];
                for (q, &v) in row.iter().enumerate() {
                    let a = v.abs();
                    self.abs_sum[q] += a;
                    self.sum_sq[q] += v * v;
                    self.max_abs[q] = self.max_abs[q].max(a);
                }
                idx += 1;
            }
        }
    }
}

/// Reusable scratch for one batch of interleaved problems: the shared pair
/// schedule and the batch's cache blocks, each with its SoA Gram triangles,
/// per-pair parameter lanes, active mask, and every per-problem accumulator
/// the driver needs — all reused across calls, so a warm workspace solves
/// batch after batch of the same shape with **zero** steady-state heap
/// allocations (pinned in `tests/zero_alloc.rs`).
///
/// Buffer growth events are counted in [`BatchWorkspace::allocations`].
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    /// Problem dimension `n` of the loaded batch.
    n: usize,
    /// Problems actually loaded.
    problems: usize,
    /// Shared cyclic pair schedule for dimension `n`.
    pairs: Vec<(usize, usize)>,
    /// The loaded batch's blocks are `blocks[..used]`, in problem order; the
    /// rest stay warm for a later batch that splits wider.
    blocks: Vec<Block>,
    /// Blocks of the loaded batch.
    used: usize,
    /// Growth events of the schedule and the block list (each block counts
    /// its own buffers).
    allocations: usize,
}

impl BatchWorkspace {
    /// An empty workspace; buffers are sized by the first
    /// [`BatchDriver::load`].
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// Buffer creation/growth events since construction. Constant across
    /// repeated same-shape batches — the steady-state zero-allocation
    /// invariant.
    pub fn allocations(&self) -> usize {
        self.allocations + self.blocks.iter().map(|b| b.allocations).sum::<usize>()
    }

    /// Problem `p`'s current Gram triangle, gathered out of the interleaved
    /// layout into packed form — after [`BatchDriver::load`], the
    /// preprocessor's output for that problem. Allocates; for inspection,
    /// not the solve path.
    ///
    /// # Panics
    /// Panics if `p` is not a loaded problem.
    pub fn packed(&self, p: usize) -> PackedSymmetric {
        assert!(p < self.problems, "problem {p} out of {}", self.problems);
        let blocks = &self.blocks[..self.used];
        let blk = &blocks[blocks.partition_point(|b| b.first + b.problems <= p)];
        let mut d = PackedSymmetric::zeros(self.n);
        soa::deinterleave(&blk.d, p - blk.first, blk.lanes, d.as_mut_slice());
        d
    }

    /// Size the schedule and the blocks for a batch of `problems` problems
    /// of dimension `n`, clearing per-call state but never shrinking
    /// capacity.
    ///
    /// The batch's `ROTATE_LANES` groups are dealt out evenly (block sizes
    /// differ by at most one group) over the fewest blocks whose triangles
    /// fit [`BLOCK_TRI_BYTES`], and, once the batch has [`SPLIT_WORK`], over
    /// a multiple of the pool threads that can each get [`SPLIT_GROUPS`],
    /// so that every thread sweeps as many blocks.
    fn prepare(&mut self, n: usize, problems: usize) {
        let tri = n * (n + 1) / 2;
        let groups = problems.div_ceil(ops::ROTATE_LANES);
        let fit = (BLOCK_TRI_BYTES / (tri * 8 * ops::ROTATE_LANES).max(1)).max(1);
        let parts = if problems.saturating_mul(n.saturating_pow(3)) >= SPLIT_WORK {
            rayon::current_num_threads().min(groups / SPLIT_GROUPS).max(1)
        } else {
            1
        };
        let used = groups.div_ceil(fit).next_multiple_of(parts).min(groups);
        if self.blocks.len() < used {
            self.allocations += 1;
            self.blocks.resize_with(used, Block::default);
        }
        for (b, blk) in self.blocks[..used].iter_mut().enumerate() {
            let (g0, g1) = (groups * b / used, groups * (b + 1) / used);
            let first = g0 * ops::ROTATE_LANES;
            let lanes = (g1 - g0) * ops::ROTATE_LANES;
            blk.prepare(tri, first, problems.min(first + lanes) - first, lanes);
        }
        if self.pairs.is_empty() || self.n != n {
            self.allocations += 1;
            self.pairs.clear();
            self.pairs.extend(round_robin(n).pairs());
        }
        self.n = n;
        self.problems = problems;
        self.used = used;
    }
}

/// Runs the shared cyclic sweep schedule over a [`BatchWorkspace`]'s
/// blocks with the owning solver's convergence criterion, budget, and
/// health thresholds.
///
/// The three phases are public so callers (and the zero-allocation tests)
/// can drive them separately; [`BatchDriver::solve`] chains them.
#[derive(Debug, Clone, Copy)]
pub struct BatchDriver<'a> {
    solver: &'a HestenesSvd,
}

impl<'a> BatchDriver<'a> {
    /// A driver borrowing the solver's configuration.
    pub fn new(solver: &'a HestenesSvd) -> Self {
        BatchDriver { solver }
    }

    /// Load + sweep + extract in one call: every block's problems swept
    /// together, one rotation kernel invocation per `(i, j)` pair per
    /// block, the blocks on the pool's threads. Results are within
    /// `1e-12·σ_max` of the looped [`crate::HestenesSvd::singular_values`]
    /// per problem, and each problem's are the same bits whatever batch it
    /// rides in; per-problem errors (invalid input, mid-solve faults) land
    /// in their own slots. A warm workspace solves repeated same-shape
    /// batches with zero steady-state heap allocations.
    ///
    /// ```
    /// use hj_core::{BatchDriver, BatchWorkspace, HestenesSvd, SvdOptions};
    /// use hj_matrix::gen;
    ///
    /// let mats: Vec<_> = (0..64).map(|k| gen::uniform(24, 12, k)).collect();
    /// let solver = HestenesSvd::new(SvdOptions::default());
    /// let batch = BatchDriver::new(&solver).solve(&mut BatchWorkspace::new(), &mats);
    /// let one = solver.singular_values(&mats[7]).unwrap();
    /// let soa = batch[7].as_ref().unwrap();
    /// for (x, y) in soa.values.iter().zip(&one.values) {
    ///     assert!((x - y).abs() <= 1e-12 * one.values[0]);
    /// }
    /// ```
    ///
    /// # Panics
    /// Panics if the matrices do not all share one column count (see
    /// [`BatchDriver::load`]).
    pub fn solve(
        &self,
        ws: &mut BatchWorkspace,
        mats: &[Matrix],
    ) -> Vec<Result<SingularValues, SvdError>> {
        self.load(ws, mats);
        self.sweep_to_convergence(ws);
        self.extract(ws, mats)
    }

    /// Pack the batch into the workspace's SoA layout, each block on a pool
    /// thread: per problem, validate (empty / non-finite inputs are
    /// rejected into their own slot) and build the Gram triangle straight
    /// into the problem's lane with the kernel behind
    /// [`crate::GramState::from_matrix`] ([`ops::gram_packed_rows`], strided
    /// by the block width), scanning the input in the same pass. The scan
    /// gives the guarded-numerics prescale; an input outside its window is
    /// rebuilt from an exactly scaled copy.
    ///
    /// # Panics
    /// Panics if the matrices do not all share one column count — the SoA
    /// layout interleaves same-shape triangles. (The automatic
    /// [`crate::HestenesSvd::singular_values_batch`] dispatch only routes
    /// uniform batches here; direct callers own the check.)
    pub fn load(&self, ws: &mut BatchWorkspace, mats: &[Matrix]) {
        let n = mats.first().map_or(0, Matrix::cols);
        assert!(
            mats.iter().all(|m| m.cols() == n),
            "batched SoA solve requires a uniform column count"
        );
        ws.prepare(n, mats.len());
        let zero_budget = self.solver.options().max_sweeps == 0;
        ws.blocks[..ws.used].par_iter_mut().for_each(|blk| {
            for (q, mat) in mats[blk.first..blk.first + blk.problems].iter().enumerate() {
                blk.load_lane(q, mat, zero_budget);
            }
        });
    }

    /// Sweep every block, each on a pool thread, until each of its lanes
    /// has converged, faulted, or exhausted the solver's sweep budget. The
    /// budget is checked at each block's own sweep boundaries.
    /// Allocation-free in the steady state (same shape, warm workspace).
    pub fn sweep_to_convergence(&self, ws: &mut BatchWorkspace) {
        self.sweep_inner(ws, |_, _| {});
    }

    /// The blocks' sweep loops, each calling `before(sweep, block)` ahead
    /// of each of its sweeps that runs (see [`Block::sweep`]).
    fn sweep_inner(&self, ws: &mut BatchWorkspace, before: impl Fn(usize, &mut Block) + Sync) {
        let (n, pairs) = (ws.n, &ws.pairs[..]);
        ws.blocks[..ws.used]
            .par_iter_mut()
            .for_each(|blk| blk.sweep(self.solver, n, pairs, &before));
    }

    /// Extract per-problem results on the calling thread: the scalar path's
    /// spectrum step (`σᵢ = √D_ii` sorted descending, the wide-matrix
    /// truncated-tail check, prescale undo) and a per-problem
    /// [`SolveStats`] under the `"batch-soa"` engine name, timed by the
    /// problem's block. `mats` must be the slice passed to
    /// [`BatchDriver::load`] (the row counts size each problem's thin
    /// spectrum).
    pub fn extract(
        &self,
        ws: &BatchWorkspace,
        mats: &[Matrix],
    ) -> Vec<Result<SingularValues, SvdError>> {
        assert_eq!(mats.len(), ws.problems, "extract: batch size mismatch");
        let n = ws.n;
        let mut out = Vec::with_capacity(ws.problems);
        for blk in &ws.blocks[..ws.used] {
            let diag = |r: usize, q: usize| blk.d[ops::packed_row_start(n, r) * blk.lanes + q];
            out.extend((0..blk.problems).map(|q| {
                match &blk.outcome[q] {
                    LaneOutcome::Invalid(e) => return Err(e.clone()),
                    LaneOutcome::Faulted(fault) => {
                        return Err(SvdError::SolveFault {
                            fault: *fault,
                            sweeps_completed: blk.histories[q].len(),
                        })
                    }
                    LaneOutcome::Running | LaneOutcome::Converged => {}
                }
                let rows = mats[blk.first + q].rows();
                let values = spectrum((0..n).map(|r| diag(r, q)).collect(), rows, blk.exps[q])?;
                let history = blk.histories[q].clone();
                let sweeps = history.len();
                let mut stats = SolveStats {
                    engine: BATCH_SOA_ENGINE,
                    ordering: "cyclic",
                    prescale_exp: blk.exps[q],
                    ..SolveStats::default()
                };
                for (rec, &secs) in history.iter().zip(&blk.sweep_seconds) {
                    stats.record_sweep(secs, rec);
                }
                Ok(SingularValues { values, sweeps, history, stats })
            }));
        }
        out
    }
}

/// True when [`crate::HestenesSvd::singular_values_batch`] should route the
/// batch through the SoA engine: at least two problems, one uniform shape,
/// `2 ≤ n ≤` [`SOA_DISPATCH_MAX_N`], and the solver running the default
/// cyclic ordering with no threshold ramp (the configurations whose
/// semantics the batch engine reproduces).
pub(crate) fn soa_eligible(solver: &HestenesSvd, mats: &[Matrix]) -> bool {
    if mats.len() < 2 {
        return false;
    }
    let opts = solver.options();
    if opts.ordering != Ordering::RoundRobin || opts.threshold.is_some() {
        return false;
    }
    let shape = mats[0].shape();
    if shape.1 < 2 || shape.1 > SOA_DISPATCH_MAX_N {
        return false;
    }
    mats.iter().all(|m| m.shape() == shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        PairGuard, RotationTarget, Sequential, SolveDriver, SolveMonitor, SweepEngine, SweepState,
    };
    use crate::gram::GramState;
    use crate::ordering::{Sweep, SweepSchedule};
    use crate::trace::Tracer;
    use crate::{Convergence, SolveBudget, SvdOptions};
    use hj_matrix::gen;

    fn uniform_batch(m: usize, n: usize, count: usize) -> Vec<Matrix> {
        (0..count).map(|k| gen::uniform(m, n, 900 + k as u64)).collect()
    }

    /// One SoA solve of `mats` on a fresh workspace.
    fn soa(solver: &HestenesSvd, mats: &[Matrix]) -> Vec<Result<SingularValues, SvdError>> {
        BatchDriver::new(solver).solve(&mut BatchWorkspace::new(), mats)
    }

    /// A write of `value` to `D[i][j]` of problem `problem`, made before
    /// sweep `sweep` runs.
    #[derive(Clone, Copy)]
    struct Poison {
        problem: usize,
        sweep: usize,
        i: usize,
        j: usize,
        value: f64,
    }

    /// [`soa`] with every write of `plan` made before its sweep.
    fn soa_poisoned(
        solver: &HestenesSvd,
        mats: &[Matrix],
        plan: &[Poison],
    ) -> Vec<Result<SingularValues, SvdError>> {
        let driver = BatchDriver::new(solver);
        let mut ws = BatchWorkspace::new();
        driver.load(&mut ws, mats);
        let n = ws.n;
        driver.sweep_inner(&mut ws, |sweep, blk| {
            let held = blk.first..blk.first + blk.problems;
            for c in plan.iter().filter(|c| c.sweep == sweep && held.contains(&c.problem)) {
                let (r, col) = (c.i.min(c.j), c.i.max(c.j));
                let e = ops::packed_row_start(n, r) + col - r;
                blk.d[e * blk.lanes + c.problem - blk.first] = c.value;
            }
        });
        driver.extract(&ws, mats)
    }

    #[test]
    fn soa_batch_matches_looped_within_envelope() {
        let mats = uniform_batch(20, 8, 11);
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = soa(&solver, &mats);
        for (k, res) in batch.iter().enumerate() {
            let one = solver.singular_values(&mats[k]).unwrap();
            let soa = res.as_ref().unwrap();
            assert_eq!(soa.values.len(), one.values.len());
            let smax = one.values[0].max(f64::MIN_POSITIVE);
            for (x, y) in soa.values.iter().zip(&one.values) {
                assert!((x - y).abs() <= 1e-12 * smax, "slot {k}: σ {x} vs {y}");
            }
            assert_eq!(soa.stats.engine, "batch-soa");
            assert_eq!(soa.stats.ordering, "cyclic");
            assert!(soa.sweeps >= 1 && soa.sweeps == soa.history.len());
        }
    }

    #[test]
    fn converged_problems_drop_out_at_their_own_sweep() {
        // Each lane runs the same cyclic schedule, guard, and metric fold
        // as the scalar sequential driver (parameters track it to ~1 ulp),
        // so a problem must freeze at the sweep its own criterion fires —
        // independent of how long its batch neighbors keep going.
        // Conditioning stays ≤ 1e6: past that, forming AᵀA leaves σ_min
        // with so few correct bits that the ulp-level parameter difference
        // cascades to ~1e-11·σ_max drift — the Gram method's own accuracy
        // floor, not a batching defect (the looped path drifts as much
        // between equivalent-but-reordered schedules).
        let mats = vec![
            gen::with_singular_values(24, 6, &[32.0, 16.0, 8.0, 4.0, 2.0, 1.0], 3),
            gen::with_condition_number(24, 6, 1e6, 4),
            gen::uniform(24, 6, 5),
        ];
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = soa(&solver, &mats);
        let mut sweep_counts = Vec::new();
        for (k, res) in batch.iter().enumerate() {
            let one = solver.singular_values(&mats[k]).unwrap();
            let soa = res.as_ref().unwrap();
            assert_eq!(soa.sweeps, one.sweeps, "slot {k} must stop at its own sweep");
            assert_eq!(soa.history.len(), one.history.len(), "slot {k}");
            for (got, want) in soa.history.iter().zip(&one.history) {
                assert_eq!(got.sweep, want.sweep, "slot {k}");
                assert_eq!(
                    got.rotations_applied + got.rotations_skipped,
                    want.rotations_applied + want.rotations_skipped,
                    "slot {k}: every lane sees the full shared schedule each sweep"
                );
            }
            let smax = one.values[0].max(f64::MIN_POSITIVE);
            for (x, y) in soa.values.iter().zip(&one.values) {
                assert!((x - y).abs() <= 1e-12 * smax, "slot {k}: σ {x} vs {y}");
            }
            sweep_counts.push(soa.sweeps);
        }
        assert!(
            sweep_counts.iter().any(|&s| s != sweep_counts[0]),
            "test wants problems with distinct convergence sweeps, got {sweep_counts:?}"
        );
    }

    #[test]
    fn invalid_problems_error_in_their_own_slot() {
        let mut mats = uniform_batch(10, 4, 4);
        let mut poisoned = Matrix::zeros(10, 4);
        poisoned.set(3, 2, f64::NAN);
        mats[1] = poisoned;
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = soa(&solver, &mats);
        assert!(matches!(batch[1], Err(SvdError::NonFiniteInput)));
        for (k, res) in batch.iter().enumerate() {
            if k == 1 {
                continue;
            }
            let one = solver.singular_values(&mats[k]).unwrap();
            let soa = res.as_ref().unwrap();
            for (x, y) in soa.values.iter().zip(&one.values) {
                assert!((x - y).abs() <= 1e-12 * one.values[0], "slot {k}");
            }
        }
    }

    #[test]
    fn prescaled_lanes_solve_out_of_window_inputs() {
        let base = uniform_batch(16, 5, 3);
        let mut mats = base.clone();
        mats[1] = base[1].scaled(1e160); // Gram would overflow unscaled
        let solver = HestenesSvd::new(SvdOptions::default());
        let batch = soa(&solver, &mats);
        let huge = batch[1].as_ref().unwrap();
        assert_ne!(huge.stats.prescale_exp, 0);
        let clean = solver.singular_values(&base[1]).unwrap();
        for (x, y) in huge.values.iter().zip(&clean.values) {
            let want = y * 1e160;
            assert!((x - want).abs() <= 1e-10 * clean.values[0] * 1e160, "{x:e} vs {want:e}");
        }
        // Neighbors unscaled and unaffected.
        assert_eq!(batch[0].as_ref().unwrap().stats.prescale_exp, 0);
    }

    #[test]
    fn expired_budget_aborts_every_active_lane() {
        use std::time::{Duration, Instant};
        let mats = uniform_batch(12, 4, 3);
        let solver = HestenesSvd::new(SvdOptions::default())
            .with_budget(SolveBudget::with_deadline(Instant::now() - Duration::from_millis(1)));
        for res in soa(&solver, &mats) {
            match res {
                Err(SvdError::SolveFault { fault, sweeps_completed }) => {
                    assert_eq!(fault, Fault::DeadlineExceeded { sweep: 1 });
                    assert_eq!(sweeps_completed, 0);
                }
                other => panic!("expected SolveFault, got {other:?}"),
            }
        }
    }

    #[test]
    fn wide_batch_truncates_or_rejects_like_the_scalar_driver() {
        let mats = vec![gen::uniform(4, 9, 7), gen::uniform(4, 9, 8)];
        let solver = HestenesSvd::new(SvdOptions::default());
        let ok = soa(&solver, &mats);
        for (res, mat) in ok.iter().zip(&mats) {
            let sv = res.as_ref().unwrap();
            assert_eq!(sv.values.len(), 4);
            let one = solver.singular_values(mat).unwrap();
            for (x, y) in sv.values.iter().zip(&one.values) {
                assert!((x - y).abs() <= 1e-12 * one.values[0]);
            }
        }
        // One sweep leaves real mass in the discarded tail → per-slot error.
        let rushed = HestenesSvd::new(SvdOptions {
            convergence: Convergence::FixedSweeps(1),
            max_sweeps: 1,
            ..Default::default()
        });
        for res in soa(&rushed, &mats) {
            assert!(matches!(res, Err(SvdError::TruncatedTailNotNegligible)));
        }
    }

    #[test]
    fn warm_workspace_is_bit_stable_and_stops_allocating() {
        let mats = uniform_batch(18, 6, 9);
        let solver = HestenesSvd::new(SvdOptions::default());
        let mut ws = BatchWorkspace::new();
        let first = BatchDriver::new(&solver).solve(&mut ws, &mats);
        let warm_allocs = ws.allocations();
        assert!(warm_allocs > 0, "first load must size the buffers");
        let second = BatchDriver::new(&solver).solve(&mut ws, &mats);
        assert_eq!(ws.allocations(), warm_allocs, "steady-state batches must not grow buffers");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap().values, b.as_ref().unwrap().values);
        }
    }

    /// Bits of a packed triangle.
    fn bits(d: &PackedSymmetric) -> Vec<u64> {
        d.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn load_reads_each_input_once_and_keeps_errors_prescales_and_bits() {
        // The scanned build stops on a NaN in the very last entry and on a
        // max just outside the prescale window; both fall back exactly as
        // the separate scan did. Every built lane's D is the Gram of its
        // exactly prescaled input, and the clean neighbors' results are the
        // bits of each solved alone.
        let (m, n) = (20, 6);
        let mut mats: Vec<_> = (0..10).map(|k| gen::uniform(m, n, 40 + k)).collect();
        mats[2].set(m - 1, n - 1, f64::NAN);
        mats[5].set(3, 1, 1.5 * 2f64.powi(251));
        mats[6].set(3, 1, 1.5 * 2f64.powi(250));
        mats[8] = mats[8].scaled(2f64.powi(-300));
        let solver = HestenesSvd::new(SvdOptions::default());
        let driver = BatchDriver::new(&solver);
        let mut ws = BatchWorkspace::new();
        driver.load(&mut ws, &mats);
        let loaded: Vec<_> = (0..mats.len()).map(|p| bits(&ws.packed(p))).collect();
        driver.sweep_to_convergence(&mut ws);
        let solved = driver.extract(&ws, &mats);
        assert!(matches!(solved[2], Err(SvdError::NonFiniteInput)));
        for (p, mat) in mats.iter().enumerate().filter(|&(p, _)| p != 2) {
            let exp = solver.singular_values(mat).unwrap().stats.prescale_exp;
            assert_eq!(solved[p].as_ref().unwrap().stats.prescale_exp, exp, "lane {p}");
            let mut scaled = mat.clone();
            scale_exp2(scaled.as_mut_slice(), exp);
            assert_eq!(loaded[p], bits(GramState::from_matrix(&scaled).packed()), "lane {p}: D");
        }
        let exp = |p: usize| solved[p].as_ref().unwrap().stats.prescale_exp;
        assert_eq!((exp(5), exp(6)), (-251, 0), "just outside and just inside the window");
        assert!(exp(8) > 0);
        for p in [0, 1, 3, 4, 7, 9] {
            let alone = soa(&solver, std::slice::from_ref(&mats[p])).remove(0).unwrap();
            let got = solved[p].as_ref().unwrap();
            let vbits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(vbits(&got.values), vbits(&alone.values), "lane {p}");
            assert_eq!(got.history, alone.history, "lane {p}");
        }
        // A zero sweep budget builds nothing, and still reports the errors
        // in the scalar path's order.
        mats[4] = Matrix::zeros(0, n);
        let zero = HestenesSvd::new(SvdOptions { max_sweeps: 0, ..Default::default() });
        for (p, res) in soa(&zero, &mats).iter().enumerate() {
            match p {
                2 => assert!(matches!(res, Err(SvdError::NonFiniteInput)), "{res:?}"),
                4 => assert!(matches!(res, Err(SvdError::EmptyInput)), "{res:?}"),
                _ => assert!(matches!(res, Err(SvdError::ZeroSweepBudget)), "{res:?}"),
            }
        }
    }

    #[test]
    fn blocks_deal_the_lane_groups_evenly_over_the_pool() {
        let threads = rayon::current_num_threads();
        let mut ws = BatchWorkspace::new();
        for (n, problems) in [(4, 1), (4, 5), (8, 9), (16, 24), (32, 128), (32, 1000), (2, 301)] {
            ws.prepare(n, problems);
            let groups = problems.div_ceil(ops::ROTATE_LANES);
            let blocks = &ws.blocks[..ws.used];
            let split = problems * n * n * n >= SPLIT_WORK;
            let want = if split { threads.min(groups / SPLIT_GROUPS).max(1) } else { 1 };
            assert!(blocks.len() >= want, "{problems} problems: too few blocks");
            assert!(
                blocks.len().is_multiple_of(want) || blocks.len() == groups,
                "{problems} problems: {} blocks deal unevenly over {want} threads",
                blocks.len()
            );
            let mut next = 0;
            for blk in blocks {
                assert_eq!(blk.first, next, "blocks hold consecutive problems");
                assert!(blk.problems > 0 && blk.problems <= blk.lanes);
                assert_eq!(blk.lanes % ops::ROTATE_LANES, 0);
                let bytes = n * (n + 1) / 2 * 8 * blk.lanes;
                assert!(bytes <= BLOCK_TRI_BYTES || blk.lanes == ops::ROTATE_LANES);
                next += blk.problems;
            }
            assert_eq!(next, problems);
            let widths: Vec<_> = blocks.iter().map(|b| b.lanes).collect();
            let (lo, hi) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
            assert!(hi - lo <= ops::ROTATE_LANES, "uneven blocks {widths:?}");
        }
        // 1000 lanes of n = 32 outgrow the cache budget on any pool.
        ws.prepare(32, 1000);
        assert!(ws.used >= 3);
    }

    #[test]
    fn a_batch_below_the_split_work_sweeps_on_the_caller() {
        // One block, and no dispatch to hand it to a worker while the
        // caller waits.
        let mats = uniform_batch(8, 4, 8);
        assert!(mats.len() * 4 * 4 * 4 < SPLIT_WORK);
        let solver = HestenesSvd::new(SvdOptions::default());
        let driver = BatchDriver::new(&solver);
        let mut ws = BatchWorkspace::new();
        driver.load(&mut ws, &mats);
        assert_eq!(ws.used, 1);
        let ran = std::sync::Mutex::new(Vec::new());
        driver.sweep_inner(&mut ws, |_, _| ran.lock().unwrap().push(std::thread::current().id()));
        let ran = ran.into_inner().unwrap();
        assert!(!ran.is_empty());
        assert!(ran.iter().all(|&t| t == std::thread::current().id()), "a worker swept");
    }

    #[test]
    fn a_busy_pool_runs_every_block_inline_with_the_same_bits() {
        // Called from inside a pool part, the batch finds the pool busy and
        // runs all its blocks on that thread; the results are the bits of
        // the same batch run from outside.
        let mut mats = uniform_batch(24, 16, 136);
        mats[9] = mats[9].scaled(1e200);
        mats[20].set(0, 0, f64::NAN);
        let solver = HestenesSvd::new(SvdOptions::default());
        let outside = soa(&solver, &mats);
        let mut inside = vec![Vec::new(); 2];
        inside.par_iter_mut().for_each(|slot| *slot = soa(&solver, &mats));
        for run in &inside {
            assert_eq!(run.len(), outside.len());
            for (got, want) in run.iter().zip(&outside) {
                match (got, want) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(g.values, w.values);
                        assert_eq!(g.history, w.history);
                        assert_eq!(g.stats.prescale_exp, w.stats.prescale_exp);
                    }
                    (g, w) => assert_eq!(format!("{g:?}"), format!("{w:?}")),
                }
            }
        }
    }

    #[test]
    fn empty_batch_and_n1_edge_cases() {
        let solver = HestenesSvd::new(SvdOptions::default());
        assert!(soa(&solver, &[]).is_empty());
        let mats = vec![Matrix::from_rows(&[&[3.0], &[4.0]]); 3];
        let batch = soa(&solver, &mats);
        for res in batch {
            let sv = res.unwrap();
            assert!((sv.values[0] - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dispatch_eligibility_matches_the_documented_gate() {
        let solver = HestenesSvd::new(SvdOptions::default());
        let uniform = uniform_batch(20, 8, 4);
        assert!(soa_eligible(&solver, &uniform));
        assert!(!soa_eligible(&solver, &uniform[..1]), "singleton batches stay looped");
        let mut mixed = uniform_batch(20, 8, 4);
        mixed[2] = gen::uniform(20, 9, 1);
        assert!(!soa_eligible(&solver, &mixed), "mixed shapes stay looped");
        let big = uniform_batch(40, SOA_DISPATCH_MAX_N + 1, 3);
        assert!(!soa_eligible(&solver, &big), "n above the gate stays looped");
        let row =
            HestenesSvd::new(SvdOptions { ordering: Ordering::RowCyclic, ..Default::default() });
        assert!(!soa_eligible(&row, &uniform), "other orderings stay looped");
    }

    #[test]
    fn poisoned_batch_lane_aborts_alone_and_neighbors_are_bit_unaffected() {
        // Per-lane fault isolation: a NaN written into one problem's
        // interleaved Gram triangle aborts THAT lane with a structured
        // non-finite-gram fault, while every other lane's spectrum, sweep
        // count, and history match the clean batch run bit-for-bit — the
        // software analogue of the paper's independent processing elements.
        let mats: Vec<_> = (0..12).map(|k| gen::uniform(18, 6, 500 + k)).collect();
        let s = HestenesSvd::new(SvdOptions::default());
        let clean = soa(&s, &mats);
        let plan = [Poison { problem: 4, sweep: 2, i: 1, j: 3, value: f64::NAN }];
        let batch = soa_poisoned(&s, &mats, &plan);

        for (p, (res, want)) in batch.iter().zip(&clean).enumerate() {
            if p == 4 {
                match res {
                    Err(SvdError::SolveFault { fault, sweeps_completed, .. }) => {
                        assert_eq!(fault.kind(), "non-finite-gram", "{fault}");
                        assert!(*sweeps_completed >= 2, "detected at the poisoned sweep");
                    }
                    other => panic!("poisoned lane must abort with a solve fault, got {other:?}"),
                }
            } else {
                let (got, want) = (res.as_ref().unwrap(), want.as_ref().unwrap());
                assert_eq!(got.values, want.values, "lane {p} perturbed by its neighbor's fault");
                assert_eq!(got.sweeps, want.sweeps, "lane {p} sweep count drifted");
                assert_eq!(got.history, want.history, "lane {p} history drifted");
            }
        }
    }

    #[test]
    fn multiple_poisoned_lanes_fail_independently() {
        // Several corrupted lanes, several fault classes (NaN gram entry and
        // a hard-negative diagonal), one shared sweep loop: each poisoned
        // lane reports its own fault; the survivors still match the clean
        // run.
        let mats: Vec<_> = (0..8).map(|k| gen::uniform(16, 5, 800 + k)).collect();
        let s = HestenesSvd::new(SvdOptions::default());
        let clean = soa(&s, &mats);
        let plan = [
            Poison { problem: 1, sweep: 1, i: 0, j: 2, value: f64::NAN },
            Poison { problem: 6, sweep: 2, i: 3, j: 3, value: -1e12 },
        ];
        let batch = soa_poisoned(&s, &mats, &plan);

        let mut kinds = Vec::new();
        for (p, (res, want)) in batch.iter().zip(&clean).enumerate() {
            match (p, res) {
                (1 | 6, Err(SvdError::SolveFault { fault, .. })) => kinds.push(fault.kind()),
                (1 | 6, other) => panic!("lane {p} must abort, got {other:?}"),
                (_, res) => {
                    let (got, want) = (res.as_ref().unwrap(), want.as_ref().unwrap());
                    assert_eq!(got.values, want.values, "lane {p} perturbed");
                }
            }
        }
        assert_eq!(kinds, ["non-finite-gram", "negative-diagonal"]);
    }

    /// A [`Sequential`] engine that makes `poison`'s write to `D` before its
    /// sweep.
    struct Poisoning(Poison);

    impl SweepEngine for Poisoning {
        fn name(&self) -> &'static str {
            "poisoning"
        }

        fn sweep_traced(
            &mut self,
            state: &mut SweepState<'_>,
            order: &Sweep,
            idx: usize,
            tracer: &mut Tracer<'_, '_>,
        ) -> SweepRecord {
            let c = self.0;
            if idx == c.sweep {
                let mut d = state.gram.packed().clone();
                d.set(c.i, c.j, c.value);
                *state.gram = GramState::from_packed(d);
            }
            Sequential.sweep_traced(state, order, idx, tracer)
        }
    }

    #[test]
    fn poisoned_lane_reports_the_fault_the_scalar_driver_reports() {
        // One fault rule on both paths: the same entry poisoned before the
        // same sweep gives the same fault (kind, sweep and index) and the
        // same number of completed sweeps on a SoA lane and on the scalar
        // driver.
        let mats: Vec<_> = (0..8).map(|k| gen::uniform(20, 6, 300 + k)).collect();
        let s = HestenesSvd::new(SvdOptions::default());
        let cases = [
            Poison { problem: 2, sweep: 2, i: 1, j: 3, value: f64::NAN },
            Poison { problem: 3, sweep: 1, i: 0, j: 4, value: f64::INFINITY },
            Poison { problem: 5, sweep: 3, i: 2, j: 2, value: f64::NEG_INFINITY },
            Poison { problem: 6, sweep: 2, i: 4, j: 4, value: -1e12 },
        ];
        let batch = soa_poisoned(&s, &mats, &cases);
        for c in cases {
            let mut gram = GramState::from_matrix(&mats[c.problem]);
            let mut state = SweepState {
                gram: &mut gram,
                target: RotationTarget::gram_only(),
                guard: PairGuard::default(),
            };
            let mut plan = Sweep::new();
            let mut schedule =
                SweepSchedule { strategy: Ordering::RoundRobin, plan: &mut plan, threshold: None };
            let mut monitor = SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::default());
            let driver = SolveDriver {
                convergence: s.options().convergence,
                max_sweeps: s.options().max_sweeps,
            };
            let run =
                driver.run_monitored(&mut Poisoning(c), &mut state, &mut schedule, &mut monitor);
            let scalar = run.fault.expect("the scalar driver detects the poison");
            match &batch[c.problem] {
                Err(SvdError::SolveFault { fault, sweeps_completed }) => {
                    assert_eq!(*fault, scalar, "lane {}", c.problem);
                    assert_eq!(*sweeps_completed, run.history.len(), "lane {}", c.problem);
                }
                other => panic!("lane {} must abort, got {other:?}", c.problem),
            }
        }
    }
}
