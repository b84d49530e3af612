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
//! For very large batches the interleave is additionally tiled into cache
//! *blocks* (AoSoA): lanes are grouped so one block's triangles stay inside
//! an L2-sized budget (`BLOCK_TRI_BYTES`), and the pair schedule runs
//! block by block so each pair's sweep streams a footprint the cache can
//! hold instead of the whole `tri·k` region. At the default `k = 256` and
//! `n ≤ 32` the footprint fits one block, so the batch runs *flat* — a
//! single full-width interleave, which measures fastest on cores with a
//! MiB-class L2 (narrow tiles trade cache residency for per-call overhead
//! and lose).
//!
//! [`BatchDriver`] runs the shared cyclic sweep schedule over a
//! [`BatchWorkspace`] with a **per-problem active mask**:
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
//!   still-active problem at the shared sweep boundary.
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
use hj_matrix::{ops, soa, Matrix, PackedSymmetric};
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
/// pair. The budget is deliberately generous (~1.5 MiB): the default
/// `k = 256, n ≤ 32` workload fits a single block and runs flat, because
/// measured on wide-vector cores the per-block loop and call overhead of
/// narrow tiles costs far more than L2 misses save.
const BLOCK_TRI_BYTES: usize = 1536 * 1024;

/// Why a lane stopped participating in the shared sweep loop.
#[derive(Debug, Clone)]
enum LaneOutcome {
    /// Still sweeping (or finished the budget without meeting the criterion
    /// — like the scalar driver, that is a clean result, not an error).
    Running,
    /// Rejected at pack time, before any sweep ran.
    Invalid(SvdError),
    /// Tripped a health check or the shared solve budget mid-flight.
    Faulted(Fault),
    /// Met the solver's convergence criterion.
    Converged,
}

/// Reusable scratch for one batch of interleaved problems: the SoA Gram
/// triangles, the per-pair parameter lanes, the active mask, and every
/// per-problem accumulator the driver needs — all reused across calls, so a
/// warm workspace solves batch after batch of the same shape with **zero**
/// steady-state heap allocations (pinned in `tests/zero_alloc.rs`).
///
/// Buffer growth events are counted in [`BatchWorkspace::allocations`].
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    /// Problem dimension `n` of the loaded batch.
    n: usize,
    /// Problems actually loaded (lanes `problems..lanes` are padding).
    problems: usize,
    /// Lane count: `problems` rounded up to a whole number of blocks.
    lanes: usize,
    /// Lanes per cache block (the AoSoA tile width): the widest SIMD-friendly
    /// count whose interleaved triangles fit [`BLOCK_TRI_BYTES`].
    block: usize,
    /// Block-major interleaved packed triangles: entry `e` of problem `p`
    /// lives in block `b = p / block` at
    /// `d[b · tri · block + e · block + (p mod block)]`.
    d: Vec<f64>,
    /// Per-lane rotation parameters for the current pair.
    cos: Vec<f64>,
    sin: Vec<f64>,
    t: Vec<f64>,
    /// Per-lane "rotation applied" flag for the current pair.
    applied: Vec<u8>,
    /// Per-lane participation mask (0 for converged/faulted/padding lanes).
    active: Vec<u8>,
    /// Shared cyclic pair schedule for dimension `n`.
    pairs: Vec<(usize, usize)>,
    /// Per-problem prescale exponents (guarded numerics, applied at pack).
    exps: Vec<i32>,
    /// Per-problem outcome.
    outcome: Vec<LaneOutcome>,
    /// Per-problem sweep histories.
    histories: Vec<Vec<SweepRecord>>,
    /// Wall-clock seconds of each shared sweep.
    sweep_seconds: Vec<f64>,
    /// Per-lane rotations applied during the current sweep.
    applied_count: Vec<usize>,
    // Per-lane post-sweep metric accumulators (off-diagonal summary,
    // diagonal scan, trace) — one fused pass over the SoA triangle.
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
    /// Buffer creation/growth events (the zero-alloc observability hook).
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
        self.allocations
    }

    /// Refill `buf` with exactly `len` copies of `fill`, counting a growth
    /// event only when the capacity actually increases.
    fn reset<T: Clone>(allocations: &mut usize, buf: &mut Vec<T>, len: usize, fill: T) {
        if buf.capacity() < len {
            *allocations += 1;
        }
        buf.clear();
        buf.resize(len, fill);
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
        let span = self.tri() * self.block;
        let blk = &self.d[p / self.block * span..][..span];
        let mut d = PackedSymmetric::zeros(self.n);
        soa::deinterleave(blk, p % self.block, self.block, d.as_mut_slice());
        d
    }

    /// Number of cache blocks in the loaded batch.
    fn blocks(&self) -> usize {
        self.lanes.checked_div(self.block).unwrap_or(0)
    }

    /// Packed-triangle entry count for the loaded dimension.
    fn tri(&self) -> usize {
        self.n * (self.n + 1) / 2
    }

    /// Flat index of triangle entry `e` for problem `p` in the block-major
    /// layout.
    fn at(&self, e: usize, p: usize) -> usize {
        (p / self.block) * self.tri() * self.block + e * self.block + (p % self.block)
    }

    /// Size every buffer for a batch of `problems` problems of dimension
    /// `n`, clearing per-call state but never shrinking capacity.
    fn prepare(&mut self, n: usize, problems: usize) {
        let tri = n * (n + 1) / 2;
        // AoSoA tile width: the batch is split into the fewest blocks whose
        // per-block triangles fit BLOCK_TRI_BYTES, sized evenly so the last
        // block is not a ragged remnant, then rounded up to a whole number
        // of SIMD lane groups. Batches within budget (the common case) get
        // one full-width block — the flat interleave.
        let padded = soa::lane_padded(problems);
        let block = if padded == 0 {
            0
        } else {
            let cap = (BLOCK_TRI_BYTES / (tri * 8).max(1)).max(ops::ROTATE_LANES);
            let nblocks = padded.div_ceil(cap);
            padded.div_ceil(nblocks).div_ceil(ops::ROTATE_LANES) * ops::ROTATE_LANES
        };
        let lanes = if block == 0 { 0 } else { problems.div_ceil(block) * block };
        let a = &mut self.allocations;
        Self::reset(a, &mut self.d, tri * lanes, 0.0);
        Self::reset(a, &mut self.cos, lanes, 0.0);
        Self::reset(a, &mut self.sin, lanes, 0.0);
        Self::reset(a, &mut self.t, lanes, 0.0);
        Self::reset(a, &mut self.applied, lanes, 0);
        Self::reset(a, &mut self.active, lanes, 0);
        Self::reset(a, &mut self.abs_sum, lanes, 0.0);
        Self::reset(a, &mut self.sum_sq, lanes, 0.0);
        Self::reset(a, &mut self.max_abs, lanes, 0.0);
        Self::reset(a, &mut self.diag_min, lanes, 0.0);
        Self::reset(a, &mut self.diag_argmin, lanes, 0);
        Self::reset(a, &mut self.diag_max_abs, lanes, 0.0);
        Self::reset(a, &mut self.diag_finite, lanes, 1);
        Self::reset(a, &mut self.trace, lanes, 0.0);
        Self::reset(a, &mut self.health, lanes, HealthState::new());
        Self::reset(a, &mut self.applied_count, lanes, 0);
        Self::reset(a, &mut self.exps, problems, 0);
        Self::reset(a, &mut self.outcome, problems, LaneOutcome::Running);
        if self.histories.len() < problems {
            self.allocations += 1;
            self.histories.resize_with(problems, Vec::new);
        }
        for h in &mut self.histories[..problems] {
            h.clear();
        }
        self.sweep_seconds.clear();
        if self.pairs.is_empty() || self.n != n {
            self.allocations += 1;
            self.pairs.clear();
            self.pairs.extend(round_robin(n).pairs());
        }
        self.n = n;
        self.problems = problems;
        self.lanes = lanes;
        self.block = block;
    }

    /// One fused pass over the interleaved triangle computing, per lane, the
    /// off-diagonal summary (`abs_sum`, `sum_sq`, `max_abs` — the
    /// [`hj_matrix::OffDiagonalSummary`] fields), the diagonal scan
    /// (finiteness, min/argmin, max-abs — the [`crate::DiagonalScan`]
    /// fields), and the trace.
    fn scan_metrics(&mut self) {
        let (n, block) = (self.n, self.block);
        for p in 0..self.lanes {
            self.abs_sum[p] = 0.0;
            self.sum_sq[p] = 0.0;
            self.max_abs[p] = 0.0;
            self.diag_min[p] = f64::INFINITY;
            self.diag_argmin[p] = 0;
            self.diag_max_abs[p] = 0.0;
            self.diag_finite[p] = 1;
            self.trace[p] = 0.0;
        }
        let tri = self.tri();
        for b in 0..self.blocks() {
            let lane0 = b * block;
            let blk = &self.d[b * tri * block..(b + 1) * tri * block];
            let mut idx = 0usize;
            for r in 0..n {
                let base = idx * block;
                for q in 0..block {
                    let p = lane0 + q;
                    let v = blk[base + q];
                    self.trace[p] += v;
                    if !v.is_finite() {
                        self.diag_finite[p] = 0;
                    }
                    if v < self.diag_min[p] {
                        self.diag_min[p] = v;
                        self.diag_argmin[p] = r;
                    }
                    self.diag_max_abs[p] = self.diag_max_abs[p].max(v.abs());
                }
                idx += 1;
                for _ in (r + 1)..n {
                    let base = idx * block;
                    for q in 0..block {
                        let p = lane0 + q;
                        let v = blk[base + q];
                        let a = v.abs();
                        self.abs_sum[p] += a;
                        self.sum_sq[p] += v * v;
                        self.max_abs[p] = self.max_abs[p].max(a);
                    }
                    idx += 1;
                }
            }
        }
    }
}

/// Runs the shared cyclic sweep schedule over a [`BatchWorkspace`] with the
/// owning solver's convergence criterion, budget, and health thresholds.
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

    /// Load + sweep + extract in one call: all problems swept together, one
    /// rotation kernel invocation per `(i, j)` pair across the whole batch.
    /// Results are within `1e-12·σ_max` of the looped
    /// [`crate::HestenesSvd::singular_values`] per problem; per-problem
    /// errors (invalid input, mid-solve faults) land in their own slots. A
    /// warm workspace solves repeated same-shape batches with zero
    /// steady-state heap allocations.
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

    /// Pack the batch into the workspace's SoA layout: per problem,
    /// validate (empty / non-finite inputs are rejected into their own
    /// slot), choose the guarded-numerics prescale exponent from the same
    /// single scan ([`ops::finite_max_abs`]), and build the Gram triangle
    /// straight into the problem's lane with the kernel behind
    /// [`crate::GramState::from_matrix`] ([`ops::gram_packed`], strided by
    /// the block width).
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
        for (p, mat) in mats.iter().enumerate() {
            if mat.is_empty() {
                ws.outcome[p] = LaneOutcome::Invalid(SvdError::EmptyInput);
                continue;
            }
            let Some(max_abs) = ops::finite_max_abs(mat.as_slice()) else {
                ws.outcome[p] = LaneOutcome::Invalid(SvdError::NonFiniteInput);
                continue;
            };
            if zero_budget {
                ws.outcome[p] = LaneOutcome::Invalid(SvdError::ZeroSweepBudget);
                continue;
            }
            ws.active[p] = 1;
            let exp = prescale_exponent(max_abs);
            ws.exps[p] = exp;
            let block = ws.block;
            // Problem p's entries stride by `block` from its lane base.
            let base = (p / block) * ws.tri() * block + (p % block);
            let data = if exp == 0 {
                mat.as_slice()
            } else {
                // Out-of-window input: scale a scratch copy by the exact
                // power of two first (squaring unscaled entries is what
                // overflows), then build the Gram from the scratch columns.
                BatchWorkspace::reset(
                    &mut ws.allocations,
                    &mut ws.scaled,
                    mat.as_slice().len(),
                    0.0,
                );
                ws.scaled.copy_from_slice(mat.as_slice());
                scale_exp2(&mut ws.scaled, exp);
                &ws.scaled
            };
            ops::gram_packed(data, mat.rows(), n, &mut ws.d[base..], block);
        }
    }

    /// Run shared cyclic sweeps until every lane has converged, faulted, or
    /// exhausted the solver's sweep budget. Allocation-free in the steady
    /// state (same shape, warm workspace).
    pub fn sweep_to_convergence(&self, ws: &mut BatchWorkspace) {
        self.sweep_inner(ws, |_, _| {});
    }

    /// The shared sweep loop, calling `before(sweep, ws)` ahead of each
    /// sweep that runs (after the budget check), so that a test can corrupt
    /// a lane's `D` exactly where a scalar [`crate::SweepEngine`] would.
    fn sweep_inner(
        &self,
        ws: &mut BatchWorkspace,
        mut before: impl FnMut(usize, &mut BatchWorkspace),
    ) {
        let opts = self.solver.options();
        let budget = self.solver.budget();
        let max_sweeps = opts.max_sweeps.min(MAX_SWEEP_CAP);
        let n = ws.n;
        let pair_count = ws.pairs.len();
        for sweep in 1..=max_sweeps {
            if ws.active.iter().all(|&a| a == 0) {
                break;
            }
            if let Some(fault) = budget.check(sweep) {
                for p in 0..ws.problems {
                    if ws.active[p] != 0 {
                        ws.active[p] = 0;
                        ws.outcome[p] = LaneOutcome::Faulted(fault);
                    }
                }
                break;
            }
            before(sweep, ws);
            let started = Instant::now();
            ws.applied_count.iter_mut().for_each(|c| *c = 0);
            let (block, tri) = (ws.block, ws.tri());
            for b in 0..ws.blocks() {
                let lane0 = b * block;
                // The mask only changes at sweep boundaries, so a block
                // whose lanes have all dropped out skips the whole pair
                // schedule — finished blocks cost nothing while stragglers
                // keep sweeping.
                if ws.active[lane0..lane0 + block].iter().all(|&a| a == 0) {
                    continue;
                }
                let base = b * tri * block;
                let off = |r: usize, c: usize| r * (2 * n - r + 1) / 2 + (c - r);
                for pi in 0..pair_count {
                    let (i, j) = ws.pairs[pi];
                    let oi = base + off(i, i) * block;
                    let oj = base + off(j, j) * block;
                    let oc = base + off(i, j) * block;
                    let any_live = batch_params_soa(
                        &ws.d[oi..oi + block],
                        &ws.d[oj..oj + block],
                        &ws.d[oc..oc + block],
                        &ws.active[lane0..lane0 + block],
                        PAIR_TOL,
                        &mut ws.cos[lane0..lane0 + block],
                        &mut ws.sin[lane0..lane0 + block],
                        &mut ws.t[lane0..lane0 + block],
                        &mut ws.applied[lane0..lane0 + block],
                    );
                    if any_live {
                        rotate_packed_soa(
                            &mut ws.d[base..base + tri * block],
                            n,
                            block,
                            i,
                            j,
                            &ws.cos[lane0..lane0 + block],
                            &ws.sin[lane0..lane0 + block],
                            &ws.t[lane0..lane0 + block],
                            &ws.applied[lane0..lane0 + block],
                        );
                        for q in lane0..lane0 + block {
                            ws.applied_count[q] += usize::from(ws.applied[q]);
                        }
                    }
                }
            }
            ws.sweep_seconds.push(started.elapsed().as_secs_f64());
            ws.scan_metrics();
            for p in 0..ws.problems {
                if ws.active[p] == 0 {
                    continue;
                }
                let lane = &*ws;
                let entries = (0..n).flat_map(|r| {
                    (r + 1..n).map(move |c| lane.d[lane.at(r * (2 * n - r + 1) / 2 + c - r, p)])
                });
                let off = off_frobenius(ws.sum_sq[p], ws.max_abs[p], entries);
                let rec = SweepRecord {
                    sweep,
                    mean_abs_cov: if n < 2 {
                        0.0
                    } else {
                        ws.abs_sum[p] / ((n * (n - 1) / 2) as f64)
                    },
                    off_frobenius: off,
                    max_abs_cov: ws.max_abs[p],
                    rotations_applied: ws.applied_count[p],
                    rotations_skipped: pair_count - ws.applied_count[p],
                };
                ws.histories[p].push(rec);
                let scan = DiagonalScan {
                    finite: ws.diag_finite[p] != 0,
                    min: ws.diag_min[p],
                    argmin: ws.diag_argmin[p],
                    max_abs: ws.diag_max_abs[p],
                };
                if let Some(fault) =
                    HealthCheck::default().inspect(&scan, n, &rec, &mut ws.health[p])
                {
                    ws.active[p] = 0;
                    ws.outcome[p] = LaneOutcome::Faulted(fault);
                    continue;
                }
                if is_converged(&opts.convergence, &rec, ws.trace[p], n) {
                    ws.active[p] = 0;
                    ws.outcome[p] = LaneOutcome::Converged;
                }
            }
        }
    }

    /// Extract per-problem results: the scalar path's spectrum step
    /// (`σᵢ = √D_ii` sorted descending, the wide-matrix truncated-tail
    /// check, prescale undo) and a per-problem [`SolveStats`] under the
    /// `"batch-soa"` engine name. `mats` must be the slice passed to
    /// [`BatchDriver::load`] (the row counts size each problem's thin
    /// spectrum).
    pub fn extract(
        &self,
        ws: &BatchWorkspace,
        mats: &[Matrix],
    ) -> Vec<Result<SingularValues, SvdError>> {
        assert_eq!(mats.len(), ws.problems, "extract: batch size mismatch");
        let n = ws.n;
        let diag = |r: usize, p: usize| ws.d[ws.at(r * (2 * n - r + 1) / 2, p)];
        (0..ws.problems)
            .map(|p| {
                match &ws.outcome[p] {
                    LaneOutcome::Invalid(e) => return Err(e.clone()),
                    LaneOutcome::Faulted(fault) => {
                        return Err(SvdError::SolveFault {
                            fault: *fault,
                            sweeps_completed: ws.histories[p].len(),
                        })
                    }
                    LaneOutcome::Running | LaneOutcome::Converged => {}
                }
                let values =
                    spectrum((0..n).map(|r| diag(r, p)).collect(), mats[p].rows(), ws.exps[p])?;
                let history = ws.histories[p].clone();
                let sweeps = history.len();
                let mut stats = SolveStats {
                    engine: BATCH_SOA_ENGINE,
                    ordering: "cyclic",
                    prescale_exp: ws.exps[p],
                    ..SolveStats::default()
                };
                for (rec, &secs) in history.iter().zip(&ws.sweep_seconds) {
                    stats.record_sweep(secs, rec);
                }
                Ok(SingularValues { values, sweeps, history, stats })
            })
            .collect()
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
        driver.sweep_inner(&mut ws, |sweep, ws| {
            for c in plan.iter().filter(|c| c.sweep == sweep) {
                let (r, col) = (c.i.min(c.j), c.i.max(c.j));
                let at = ws.at(ops::packed_row_start(ws.n, r) + col - r, c.problem);
                ws.d[at] = c.value;
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
