//! Vectorization-friendly inner kernels — the software mirror of the
//! paper's concurrent-dataflow units (Fig. 4).
//!
//! The sweep engines' hot loops route through this module. Before it
//! existed, they walked the packed covariance triangle through
//! [`PackedSymmetric::get`]/[`set`](PackedSymmetric::set) — a branch
//! (argument swap), a multiply (row-offset polynomial), and a bounds check
//! *per element*, which kept LLVM from vectorizing anything. The kernels
//! here replace that with slice traversals:
//!
//! * [`rotate_packed`] — the `O(n)` in-place Gram rotation of Algorithm 1
//!   lines 15–26, decomposed into the triangle's three natural regions so
//!   the dominant region runs on two contiguous slices (autovectorized via
//!   [`ops::rotate_pair`]) and the strided regions walk incrementally with
//!   no per-element offset math. Row-cyclic sweeps use it.
//! * The round kernel (`RoundBuffer`, crate-private) — a round-robin round
//!   at once: every off-diagonal 2×2 block of `D` takes its two pairs'
//!   rotations in one pass over contiguous runs of a full `n × n` buffer,
//!   which `GramState` owns.
//! * [`batch_params_soa`] / [`rotate_packed_soa`] — the batch SoA engine's
//!   lanes-wide kernels: one pair's rotation across many interleaved
//!   problems at once.
//!
//! # Bit-compat policy
//!
//! [`rotate_packed`] and the round kernel compute **exactly** the
//! elementwise expressions of the scalar pair-at-a-time path — same
//! operations, same order per element, no re-association, no FMA
//! contraction — so results are bit-identical to it. The only freedom
//! taken is *traversal* order across independent elements (chunking,
//! region splitting, loop interchange, and in the round kernel a round's
//! pairs taken together), which cannot change any bit because each element
//! still meets the same rotation expressions in the same order. The round
//! kernel may negate a sine to orient a pair, which is exact: IEEE
//! `a − (−b)` is `a + b`, and `+` commutes.
//!
//! Two kernels are deliberately exempt, both confined to the batch engine
//! whose accuracy contract is a pinned `1e-12·σ_max` envelope rather than
//! bit equality:
//!
//! * [`batch_params_soa`] computes the textbook chain branchlessly with
//!   `sqrt` in place of `f64::hypot` so the whole lanes-wide loop
//!   vectorizes (the libm call would serialize it). Its parameters agree
//!   with [`crate::rotation::textbook_params`] to ~1 ulp while its skip
//!   *decision* stays bit-exact against the scalar guard; see its doc for
//!   the exact formulation.
//! * [`rotate_packed_soa`]'s off-diagonal loop contracts to fused
//!   multiply-adds on targets with a hardware FMA unit (`cfg`-gated — never
//!   a software-fma fallback). Each rotated entry lands within 1 ulp of the
//!   scalar expression (the fused form is the *more* accurate of the two);
//!   diagonal, annihilated-covariance, and skipped-lane entries stay
//!   bit-exact on every target.
//!
//! [`rotate_packed`]'s compat test pins exact equality against the scalar
//! reference, and `tests/kernel_compat.rs` pins whole round-robin solves on
//! the round kernel against a pair-at-a-time reference engine.
//!
//! # Lane layout and tails
//!
//! Contiguous runs are processed in [`ops::ROTATE_LANES`]-wide chunks with a
//! scalar tail (odd `n`, non-multiple-of-lane lengths — proptested). Strided
//! runs (the `k < i` head of a logical column) cannot vectorize on packed
//! storage; they instead walk with two adds per step, replacing the offset
//! polynomial + branch of the `get`/`set` path.

use crate::ordering::{ring_column, ring_slots};
use crate::rotation::{rotate_norms, Rotation};
use hj_matrix::{ops, PackedSymmetric};

/// Shared live-lane threshold for the SoA kernels' sparse paths: with fewer
/// than one live lane in eight, walking live lanes one by one beats the
/// lanes-wide vector pass. [`batch_params_soa`] and [`rotate_packed_soa`]
/// must agree on this boundary — below it the params kernel only writes the
/// live lanes' outputs, and the rotation kernel only reads them.
#[inline]
fn sparse_lanes(live: usize, lanes: usize) -> bool {
    live * 8 <= lanes
}

/// Apply the plane rotation `rot` of column pair `(i, j)`, `i < j`, to the
/// packed triangle in place — Algorithm 1 lines 15–26, bit-identical to the
/// scalar `get`/`set` loop it replaces.
///
/// The "all `k ≠ i, j`" loop of the pseudocode splits into the triangle's
/// three regions, each with its own memory shape:
///
/// ```text
/// k < i     : (k,i) and (k,j) both strided — incremental walk, stride n−k−1
/// i < k < j : (i,k) contiguous in row i; (k,j) strided
/// k > j     : (i,k) and (j,k) two contiguous row tails — rotate_pair (SIMD)
/// ```
///
/// For a random pair each region averages a third of the column, and the
/// contiguous share grows as the round-robin ordering visits large `j`.
pub fn rotate_packed(d: &mut PackedSymmetric, i: usize, j: usize, rot: &Rotation) {
    debug_assert!(i != j, "degenerate pair");
    let n = d.dim();
    debug_assert!(i < n && j < n);
    let (i, j) = if i < j { (i, j) } else { (j, i) };
    let (cos, sin) = (rot.cos, rot.sin);
    let ri = d.row_offset(i);
    let rj = d.row_offset(j);
    let data = d.as_mut_slice();
    // Diagonal + annihilated covariance (lines 15–17): the exact O(1)
    // updates, identical to the rotate_norms expressions.
    let cov = data[ri + (j - i)];
    let (ni, nj, _) = rotate_norms(data[ri], data[rj], cov, rot);
    data[ri] = ni;
    data[rj] = nj;
    data[ri + (j - i)] = 0.0;
    // Region 1, k < i: offsets (k,i) and (k,j) start at i and j in row 0 and
    // advance by n − k − 1 per step (row k+1 is one entry shorter).
    let mut oi = i;
    let mut oj = j;
    for k in 0..i {
        let x = data[oi];
        let y = data[oj];
        data[oi] = x * cos - y * sin;
        data[oj] = x * sin + y * cos;
        let step = n - k - 1;
        oi += step;
        oj += step;
    }
    // Region 2, i < k < j: (i,k) walks row i contiguously; (k,j) continues
    // the strided walk below row i.
    let mut okj = ri + (n - i) + (j - i - 1); // offset(i+1, j)
    for (oik, k) in (ri + 1..).zip((i + 1)..j) {
        let x = data[oik];
        let y = data[okj];
        data[oik] = x * cos - y * sin;
        data[okj] = x * sin + y * cos;
        okj += n - k - 1;
    }
    // Region 3, k > j: two contiguous row tails — the vectorized majority.
    let tail = n - j - 1;
    if tail > 0 {
        let (head, row_j) = data.split_at_mut(rj + 1);
        let row_i = &mut head[ri + (j - i) + 1..ri + (j - i) + 1 + tail];
        ops::rotate_pair(row_i, &mut row_j[..tail], cos, sin);
    }
}

/// The round kernel's storage for one `D`: a full `S × S` buffer indexed
/// by column, `S` = [`ring_slots`]`(n)` (a zero phantom "bye" column `n`
/// for odd `n`), and the current round's pairs and rotations. `D_xx` sits
/// on the buffer's diagonal, where no block update reaches.
///
/// Each off-diagonal entry `{x, y}` is current in one place only: the row of
/// whichever column has the lower pair index this round, and within one
/// pair the row of the column in the lower slot `F` (the other is `G`).
/// So block row `k` — every 2×2 block `{pair k, pair l}` with `l > k` —
/// sits in rows `F_k` and `G_k`, where the columns `F_l` run forward and
/// `G_l` backward through the ring. The ring's columns wrap from `S − 1`
/// back to 1 in one place, so a block row is at most two runs along which
/// both are contiguous.
///
/// [`RoundBuffer::load`] fills it from the packed triangle at sweep start,
/// and [`RoundBuffer::store`] writes it back at sweep end, so everything
/// outside a sweep reads `D` as before. It is sized when `D` is built and
/// never grows.
#[derive(Clone, Debug)]
pub(crate) struct RoundBuffer {
    slots: usize,
    m: Vec<f64>,
    /// Per pair `k` of the current round: its columns `F_k`, `G_k`, the
    /// cosine, the sine oriented from `F_k` to `G_k` (negated when
    /// `F_k > G_k`), and whether it rotates. A pair that does not rotate is
    /// left out, never multiplied by the identity, which could flip a
    /// `−0.0`.
    f: Vec<usize>,
    g: Vec<usize>,
    cos: Vec<f64>,
    sin: Vec<f64>,
    live: Vec<bool>,
    /// The rotating pairs' indices, in order.
    rotating: Vec<usize>,
}

impl RoundBuffer {
    /// The buffer for a `D` of dimension `n`.
    pub(crate) fn new(n: usize) -> RoundBuffer {
        let slots = ring_slots(n);
        let pairs = slots / 2;
        RoundBuffer {
            slots,
            m: vec![0.0; slots * slots],
            f: vec![0; pairs],
            g: vec![0; pairs],
            cos: vec![0.0; pairs],
            sin: vec![0.0; pairs],
            live: vec![false; pairs],
            rotating: Vec::with_capacity(pairs),
        }
    }

    /// Rounds per sweep, `S − 1`.
    pub(crate) fn rounds(&self) -> usize {
        self.slots.saturating_sub(1)
    }

    /// Place round `r`'s pairs: pair `k` is `(F_k, G_k)`, the columns in
    /// ring slots `k` and `S − 1 − k`, and holds still until
    /// [`RoundBuffer::rotate_pair`].
    pub(crate) fn start_round(&mut self, r: usize) {
        let s = self.slots;
        for k in 0..s / 2 {
            self.f[k] = ring_column(k, r, s);
            self.g[k] = ring_column(s - 1 - k, r, s);
            self.live[k] = false;
        }
    }

    /// Pairs per round, `S / 2`, the bye included.
    pub(crate) fn pair_count(&self) -> usize {
        self.slots / 2
    }

    /// Pair `k` of the current round as `(F_k, G_k)` (either may be the
    /// phantom column `n`).
    pub(crate) fn pair(&self, k: usize) -> (usize, usize) {
        (self.f[k], self.g[k])
    }

    /// `(D_ii, D_jj, D_ij)` of pair `(f, g)`, `i = min(f, g)`, `j = max`.
    pub(crate) fn pair_entries(&self, f: usize, g: usize) -> (f64, f64, f64) {
        let (s, i, j) = (self.slots, f.min(g), f.max(g));
        (self.m[i * s + i], self.m[j * s + j], self.m[f * s + g])
    }

    /// Pair `k` = `(f, g)` rotates by `rot` this round: its diagonal block
    /// takes [`rotate_packed`]'s exact update now, and its rows and columns
    /// take the rotation in [`RoundBuffer::finish_round`].
    pub(crate) fn rotate_pair(&mut self, k: usize, rot: &Rotation) {
        let (f, g) = (self.f[k], self.g[k]);
        let (s, i, j) = (self.slots, f.min(g), f.max(g));
        let (ni, nj, cov) = self.pair_entries(f, g);
        (self.m[i * s + i], self.m[j * s + j], _) = rotate_norms(ni, nj, cov, rot);
        self.m[f * s + g] = 0.0;
        self.cos[k] = rot.cos;
        self.sin[k] = if f < g { rot.sin } else { -rot.sin };
        self.live[k] = true;
    }

    /// Fill the buffer from the packed triangle (both halves, so every
    /// owner's row is current) and zero the phantom column.
    pub(crate) fn load(&mut self, d: &PackedSymmetric) {
        let (n, s) = (d.dim(), self.slots);
        let data = d.as_slice();
        for x in 0..n {
            let row = &data[d.row_offset(x)..d.row_offset(x + 1)];
            self.m[x * s + x..x * s + n].copy_from_slice(row);
            for (y, &v) in (x + 1..n).zip(&row[1..]) {
                self.m[y * s + x] = v;
            }
        }
        for t in n..s {
            self.m[t * s..(t + 1) * s].fill(0.0);
            for x in 0..s {
                self.m[x * s + t] = 0.0;
            }
        }
    }

    /// Write the buffer back to the packed triangle. After a whole sweep
    /// the ring is back at round 0, where slot `c` holds column `c` and
    /// `{x, y}`, `x < y`, is owned by `x` exactly when `x + y ≤ S − 1`.
    pub(crate) fn store(&self, d: &mut PackedSymmetric) {
        let (n, s) = (d.dim(), self.slots);
        let data = d.as_mut_slice();
        let mut at = 0;
        for x in 0..n {
            let split = (s - x).clamp(x + 1, n);
            // D_xx and the entries x owns, then the ones its partners own.
            let owned = split - x;
            data[at..at + owned].copy_from_slice(&self.m[x * s + x..x * s + split]);
            for (out, y) in data[at + owned..at + n - x].iter_mut().zip(split..n) {
                *out = self.m[y * s + x];
            }
            at += n - x;
        }
    }

    /// Close the round: apply every off-diagonal 2×2 block's rotations,
    /// then hand the entries whose owner changes to their next owner's
    /// row.
    ///
    /// Block `{pair k, pair l}`, `k < l`, takes pair `k`'s rotation and then
    /// pair `l`'s, the order in which a pair-at-a-time sweep reaches them,
    /// each through [`rotate_packed`]'s element expressions `x·c − y·s`,
    /// `x·s + y·c`. With the sine oriented from `F` to `G` these are
    /// [`rotate_packed`]'s bits whichever of `F`, `G` is the smaller
    /// column: IEEE `a − (−b)` is `a + b`, and `+` commutes. A block whose
    /// pairs both hold still is not touched.
    pub(crate) fn finish_round(&mut self) {
        let (live, rotating) = (&self.live, &mut self.rotating);
        rotating.clear();
        rotating.extend((0..live.len()).filter(|&k| live[k]));
        for i in 0..self.rotating.len() {
            self.rotating_row(self.rotating[i]);
        }
        self.still_rows();
        self.turn();
    }

    /// Block row `k`, whose pair rotates: rows `F_k`, `G_k` against every
    /// pair `l > k`, run by run.
    fn rotating_row(&mut self, k: usize) {
        let (s, pairs) = (self.slots, self.pair_count());
        let (ck, sk) = (self.cos[k], self.sin[k]);
        let (row_f, row_g) = two_rows(&mut self.m, s, self.f[k], self.g[k]);
        let mut l = k + 1;
        while l < pairs {
            let (f, g) = (self.f[l], self.g[l]);
            // F_l counts up to column S − 1, G_l down to column 1.
            let len = (pairs - l).min(s - f).min(g);
            let g0 = g + 1 - len;
            let (xf, xg) = two_runs(row_f, f, g0, len);
            let (yf, yg) = two_runs(row_g, f, g0, len);
            let run = l..l + len;
            let params = (&self.cos[run.clone()], &self.sin[run.clone()], &self.live[run]);
            rotate_run(xf, xg, yf, yg, params, ck, sk);
            l += len;
        }
    }

    /// The blocks `{pair k, pair l}`, `k < l`, of every pair `k` that holds
    /// still against a pair `l` that rotates: pair `l`'s rotation alone, on
    /// the entries at `F_l` and `G_l` in rows `F_k` and `G_k`.
    fn still_rows(&mut self) {
        let s = self.slots;
        let mut after = 0; // the first rotating pair after k
        for k in (0..self.pair_count()).filter(|&k| !self.live[k]) {
            while after < self.rotating.len() && self.rotating[after] < k {
                after += 1;
            }
            for &l in &self.rotating[after..] {
                let (fl, gl, c, sn) = (self.f[l], self.g[l], self.cos[l], self.sin[l]);
                for row in [self.f[k], self.g[k]] {
                    let (x, y) = (self.m[row * s + fl], self.m[row * s + gl]);
                    self.m[row * s + fl] = x * c - y * sn;
                    self.m[row * s + gl] = x * sn + y * c;
                }
            }
        }
    }

    /// Move ownership from this round to the next. The ring shifts `F`
    /// columns one pair up and `G` columns one pair down, so the owner
    /// changes only for `(F_a, G_a)`, `a ≥ 1`; `(F_a, G_{a+1})`,
    /// `1 ≤ a ≤ P − 2`; and `(G_0, G_1)`: about `n` copies.
    fn turn(&mut self) {
        let (s, pairs) = (self.slots, self.pair_count());
        let (f, g, m) = (&self.f, &self.g, &mut self.m);
        let mut hand_over = |from: usize, to: usize| m[to * s + from] = m[from * s + to];
        for a in 1..pairs {
            hand_over(f[a], g[a]);
            if a + 1 < pairs {
                hand_over(f[a], g[a + 1]);
            }
        }
        if pairs >= 2 {
            hand_over(g[0], g[1]);
        }
    }
}

/// Rows `a` and `b ≠ a` of the row-major `s`-wide buffer `m`.
fn two_rows(m: &mut [f64], s: usize, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = m.split_at_mut(b * s);
        (&mut lo[a * s..(a + 1) * s], &mut hi[..s])
    } else {
        let (lo, hi) = m.split_at_mut(a * s);
        (&mut hi[..s], &mut lo[b * s..(b + 1) * s])
    }
}

/// The disjoint runs `row[a..a + len]` and `row[b..b + len]`.
fn two_runs(row: &mut [f64], a: usize, b: usize, len: usize) -> (&mut [f64], &mut [f64]) {
    if a < b {
        let (lo, hi) = row.split_at_mut(b);
        (&mut lo[a..a + len], &mut hi[..len])
    } else {
        let (lo, hi) = row.split_at_mut(a);
        (&mut hi[..len], &mut lo[b..b + len])
    }
}

/// One run of a rotating block row: `xf`, `xg`, `yf`, `yg` are rows `F_k`,
/// `G_k` at the run's `F_l` columns (forward) and `G_l` columns
/// (backward), and `params` the run's `(cos, sin, live)`. Pair `k`'s
/// rotation `(ck, sk)` applies first, then each live pair `l`'s.
fn rotate_run(
    xf: &mut [f64],
    xg: &mut [f64],
    yf: &mut [f64],
    yg: &mut [f64],
    (cos, sin, live): (&[f64], &[f64], &[bool]),
    ck: f64,
    sk: f64,
) {
    let len = xf.len();
    let (xg, yf, yg) = (&mut xg[..len], &mut yf[..len], &mut yg[..len]);
    let (cos, sin, live) = (&cos[..len], &sin[..len], &live[..len]);
    for t in 0..len {
        let u = len - 1 - t;
        let (a, b) = (xf[t] * ck - yf[t] * sk, xf[t] * sk + yf[t] * ck);
        let (c, d) = (xg[u] * ck - yg[u] * sk, xg[u] * sk + yg[u] * ck);
        let (cl, sl) = (cos[t], sin[t]);
        let m = live[t];
        xf[t] = if m { a * cl - c * sl } else { a };
        xg[u] = if m { a * sl + c * cl } else { c };
        yf[t] = if m { b * cl - d * sl } else { b };
        yg[u] = if m { b * sl + d * cl } else { d };
    }
}

/// Rotation parameters for the **same** pair `(i, j)` across a whole batch
/// of interleaved problems.
///
/// `norms_i`, `norms_j`, `covs` hold one lane per problem (`(D_ii, D_jj,
/// D_ij)` of problem `p` in lane `p`); `active` masks lanes that still
/// participate (converged/faulted problems and padding lanes carry 0).
/// Each lane makes the same *decision* chain as the scalar sweep loop:
///
/// * inactive lane → identity parameters (`cos = 1, sin = 0, t = 0`),
///   `applied[p] = 0`;
/// * pair already orthogonal under the Drmač guard
///   (`cov² ≤ tol²·D_ii·D_jj`, the [`crate::rotation::pair_converged`]
///   test the scalar engines use, evaluated with the exact same
///   expression) → identity, `applied[p] = 0`;
/// * otherwise the [`crate::rotation::textbook_params`] `ρ → t → cos → sin`
///   chain, `applied[p] = 1`.
///
/// # Throughput formulation (the one deliberate deviation)
///
/// This is the only kernel exempt from the module's bit-compat policy.
/// The scalar chain branches per pair and calls `f64::hypot` twice — an
/// opaque libm call per lane that serializes the whole loop. Here the
/// chain is straight-line (branches become selects) and the two hypots
/// become `sqrt(1 + x²)`, which LLVM vectorizes lanes-wide:
///
/// * `cos` uses `1/√(1 + t²)` directly — safe because `|t| ≤ 1` always;
/// * `t` uses `sign/(|ζ| + √(1 + ζ²))` while `|ζ| ≤ 1e150` (no overflow
///   possible) and the asymptotic `sign/(2|ζ|)` beyond it, whose relative
///   distance to the exact value is below `1/(4ζ²) < 1e-300`.
///
/// The results agree with `textbook_params` to ~1 ulp per parameter, which
/// the batch engine's pinned `1e-12·σ_max` accuracy envelope absorbs; the
/// *skip decision* (`applied`) is still bit-exact against the scalar guard.
/// Dead lanes fall out of the arithmetic itself: `t = 0` forces
/// `cos = 1/√1 = 1` and `sin = 1·0 = 0` with no extra masking.
///
/// Lanes never read each other, so a NaN-poisoned problem computes NaN
/// parameters for *its own lane only* — the per-problem fault isolation the
/// batch driver builds on.
///
/// Returns `true` when at least one lane applies a rotation. The decision
/// pass (compares and multiplies only) runs first; the expensive
/// `div`/`sqrt` chain runs only when some lane is live, so pairs that the
/// whole batch has orthogonalized — the common case in late sweeps — cost
/// a mask scan and nothing else. **When it returns `false`, `cos`/`sin`/`t`
/// are unspecified** (every `applied` lane is 0, so there is no rotation to
/// read them). When fewer than one lane in eight is live, only the *live*
/// lanes' outputs are specified — the matching sparse walk in
/// [`rotate_packed_soa`] (same threshold) reads no others.
///
/// # Panics
/// Panics in debug builds if the slices disagree on length.
// Inlined because the batch engine calls it once per (block, pair): at
// block width 16 the fixed call cost would rival the lane arithmetic.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn batch_params_soa(
    norms_i: &[f64],
    norms_j: &[f64],
    covs: &[f64],
    active: &[u8],
    tol: f64,
    cos: &mut [f64],
    sin: &mut [f64],
    t: &mut [f64],
    applied: &mut [u8],
) -> bool {
    let lanes = norms_i.len();
    debug_assert!(
        norms_j.len() == lanes
            && covs.len() == lanes
            && active.len() == lanes
            && cos.len() == lanes
            && sin.len() == lanes
            && t.len() == lanes
            && applied.len() == lanes,
        "batch_params_soa: SoA lanes disagree on length"
    );
    // Re-slice to a proven common length so the loop bodies carry no
    // per-element bounds checks — one check per slice here, then the lane
    // loops auto-vectorize (including the div/sqrt chain).
    let (norms_j, covs, active) = (&norms_j[..lanes], &covs[..lanes], &active[..lanes]);
    let (cos, sin, t, applied) =
        (&mut cos[..lanes], &mut sin[..lanes], &mut t[..lanes], &mut applied[..lanes]);
    // Decision pass: the same guard expression as the scalar sweep loop,
    // computed as a mask so the loop stays branch-free — and with no
    // divider-unit work, so it is cheap enough to run unconditionally.
    let mut live_lanes = 0usize;
    for p in 0..lanes {
        let live = (active[p] != 0)
            & !crate::rotation::pair_converged(norms_i[p], norms_j[p], covs[p], tol);
        applied[p] = u8::from(live);
        live_lanes += usize::from(live);
    }
    if live_lanes == 0 {
        return false;
    }
    // Sparse path: with only straggler lanes live, the lanes-wide div/sqrt
    // chain (divider-throughput-bound, so its cost scales with the full
    // width) wastes most of its work on dead lanes. Compute just the live
    // lanes with the exact same expressions — bit-identical outputs for
    // them; dead lanes' outputs stay unspecified, which is fine because
    // `rotate_packed_soa`'s sparse walk (same threshold) never reads them.
    if sparse_lanes(live_lanes, lanes) {
        for p in 0..lanes {
            if applied[p] == 0 {
                continue;
            }
            let (ni, nj, cov) = (norms_i[p], norms_j[p], covs[p]);
            let zeta = (nj - ni) / (2.0 * cov);
            let azeta = zeta.abs();
            let sign = if zeta >= 0.0 { 1.0 } else { -1.0 };
            let root = (1.0 + zeta * zeta).sqrt();
            let tp_near = sign / (azeta + root);
            let tp_far = sign / (2.0 * azeta);
            let tp = if azeta <= 1e150 { tp_near } else { tp_far };
            let cp = 1.0 / (1.0 + tp * tp).sqrt();
            cos[p] = cp;
            sin[p] = cp * tp;
            t[p] = tp;
        }
        return true;
    }
    for p in 0..lanes {
        let (ni, nj, cov) = (norms_i[p], norms_j[p], covs[p]);
        let live = applied[p] != 0;
        // Unconditional textbook chain. Dead lanes may produce inf/NaN
        // intermediates here (e.g. cov = 0 → ζ = ±inf); the `live` select
        // on `t` discards them before they reach any output.
        let zeta = (nj - ni) / (2.0 * cov);
        let azeta = zeta.abs();
        let sign = if zeta >= 0.0 { 1.0 } else { -1.0 };
        let root = (1.0 + zeta * zeta).sqrt();
        let tp_near = sign / (azeta + root);
        let tp_far = sign / (2.0 * azeta);
        let tp_live = if azeta <= 1e150 { tp_near } else { tp_far };
        let tp = if live { tp_live } else { 0.0 };
        let cp = 1.0 / (1.0 + tp * tp).sqrt();
        cos[p] = cp;
        sin[p] = cp * tp;
        t[p] = tp;
    }
    true
}

/// Apply per-lane plane rotations of pair `(i, j)`, `i < j`, to a batch of
/// interleaved packed triangles — the cross-problem SoA counterpart of
/// [`rotate_packed`].
///
/// `d` holds the `n(n+1)/2` packed-triangle entries of every problem with
/// the problem index fastest-moving: entry `(r, c)` of problem `p` lives at
/// `(row_offset(r) + c − r) · lanes + p` (see [`hj_matrix::soa`]). The
/// per-lane parameters come straight from [`batch_params_soa`]: non-applied
/// lanes carry the identity `(cos, sin) = (1, 0)`, under which the lanes-wide
/// off-diagonal update `x' = x·1 − y·0` reproduces `x` exactly for every
/// non-zero value (only a `−0.0` can flip sign — invisible to the
/// diagonal-derived spectrum and to every magnitude-based metric). The
/// diagonal and annihilated-covariance updates are masked explicitly, so
/// skipped lanes keep their `D_ii`, `D_jj`, `D_ij` bit-for-bit.
///
/// Where the AoS [`rotate_packed`] splits the `k ≠ i, j` loop into three
/// memory regions (two of them strided), the SoA layout has no strided
/// region at all: every `(k, i)`/`(k, j)` entry is a contiguous `lanes`-wide
/// slice, so the whole update is one straight-line vectorizable loop — the
/// point of batching across problems.
///
/// When fewer than one lane in eight applies the rotation, the kernel
/// switches to a sparse per-lane walk that touches only the live lanes'
/// strided entries (same expressions, hence bit-identical output) instead
/// of streaming the full batch — the late-sweep straggler case.
///
/// On targets with a hardware FMA unit the off-diagonal updates contract to
/// fused multiply-adds (both paths, so path choice never changes a bit) —
/// the module-level bit-compat exemption. Each affected entry stays within
/// 1 ulp of the plain expression; identity lanes still reproduce their
/// values exactly (`fma(x, 1, −0·s) = x`), and the diagonal/covariance
/// updates above are uncontracted everywhere.
///
/// # Panics
/// Panics in debug builds on slice-length mismatches; release builds panic
/// on the underlying slice indexing.
// Inlined for the same per-(block, pair) call cadence as
// `batch_params_soa`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn rotate_packed_soa(
    d: &mut [f64],
    n: usize,
    lanes: usize,
    i: usize,
    j: usize,
    cos: &[f64],
    sin: &[f64],
    t: &[f64],
    applied: &[u8],
) {
    debug_assert!(i < j && j < n, "rotate_packed_soa: bad pair ({i}, {j}) for n={n}");
    debug_assert_eq!(d.len(), n * (n + 1) / 2 * lanes);
    debug_assert!(
        cos.len() == lanes && sin.len() == lanes && t.len() == lanes && applied.len() == lanes
    );
    // Re-slice to a proven common length so the lane loops carry no
    // per-element bounds checks and auto-vectorize.
    let (cos, sin, t, applied) = (&cos[..lanes], &sin[..lanes], &t[..lanes], &applied[..lanes]);
    // Packed-triangle offset of entry (r, c) with r ≤ c, in logical units.
    let off = |r: usize, c: usize| r * (2 * n - r + 1) / 2 + (c - r);
    // Diagonal + annihilated covariance (the rotate_norms expressions),
    // selected per lane so skipped problems are untouched bit-for-bit.
    let (oi, oj, oc) = (off(i, i) * lanes, off(j, j) * lanes, off(i, j) * lanes);
    // Sparse path: when only a handful of lanes still rotate this pair
    // (stragglers in late sweeps), streaming every lane wastes the whole
    // batch's bandwidth on identity updates. Walking just the live lanes'
    // strided entries costs ~2n scalar rotations per lane, which beats the
    // lanes-wide stream once live lanes drop under ~1/8 of the batch. The
    // per-entry expressions are the exact ones below, so the result is
    // bit-identical to the dense path for every lane (untouched lanes keep
    // even the −0.0s the dense identity update would normalize).
    let live: usize = applied.iter().map(|&a| usize::from(a)).sum();
    if sparse_lanes(live, lanes) {
        for p in 0..lanes {
            if applied[p] == 0 {
                continue;
            }
            let (cp, sp, tp) = (cos[p], sin[p], t[p]);
            let cov = d[oc + p];
            let ni = d[oi + p] - tp * cov;
            let nj = d[oj + p] + tp * cov;
            d[oi + p] = ni;
            d[oj + p] = nj;
            d[oc + p] = 0.0;
            for k in 0..n {
                if k == i || k == j {
                    continue;
                }
                let a = off(k.min(i), k.max(i)) * lanes + p;
                let b = off(k.min(j), k.max(j)) * lanes + p;
                let x = d[a];
                let y = d[b];
                // Same (cfg-gated) expressions as the dense loop below, so
                // path selection never changes a bit.
                if cfg!(target_feature = "fma") {
                    d[a] = x.mul_add(cp, -(y * sp));
                    d[b] = x.mul_add(sp, y * cp);
                } else {
                    d[a] = x * cp - y * sp;
                    d[b] = x * sp + y * cp;
                }
            }
        }
        return;
    }
    for p in 0..lanes {
        let m = applied[p] != 0;
        let cov = d[oc + p];
        let ni = d[oi + p] - t[p] * cov;
        let nj = d[oj + p] + t[p] * cov;
        d[oi + p] = if m { ni } else { d[oi + p] };
        d[oj + p] = if m { nj } else { d[oj + p] };
        d[oc + p] = if m { 0.0 } else { cov };
    }
    // All k ≠ i, j: rotate the lanes-wide entry pairs ((k,i),(k,j)) /
    // ((i,k),(k,j)) / ((i,k),(j,k)). The i-side offset is always the
    // smaller one (its row index is min(k,i) ≤ min(k,j)), so one
    // split_at_mut yields the two disjoint slices.
    for k in 0..n {
        if k == i || k == j {
            continue;
        }
        let a = off(k.min(i), k.max(i)) * lanes;
        let b = off(k.min(j), k.max(j)) * lanes;
        let (head, tail) = d.split_at_mut(b);
        let xs = &mut head[a..a + lanes];
        let ys = &mut tail[..lanes];
        if cfg!(target_feature = "fma") {
            // Fused form: 4 FP ops per entry pair instead of 6 on hardware
            // with an FMA unit — the off-diagonal exemption documented
            // above. Never taken on targets without the unit, where
            // `mul_add` would fall back to (slow, but still correct)
            // software fma.
            for p in 0..lanes {
                let x = xs[p];
                let y = ys[p];
                xs[p] = x.mul_add(cos[p], -(y * sin[p]));
                ys[p] = x.mul_add(sin[p], y * cos[p]);
            }
        } else {
            for p in 0..lanes {
                let x = xs[p];
                let y = ys[p];
                xs[p] = x * cos[p] - y * sin[p];
                ys[p] = x * sin[p] + y * cos[p];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation::textbook_params;
    use hj_matrix::gen;

    fn packed_from_seed(n: usize, seed: u64) -> PackedSymmetric {
        let a = gen::uniform(2 * n + 3, n, seed);
        a.gram()
    }

    /// The scalar reference: the pre-kernel get/set loop, verbatim.
    fn rotate_reference(d: &mut PackedSymmetric, i: usize, j: usize, rot: &Rotation) {
        let n = d.dim();
        let (cos, sin) = (rot.cos, rot.sin);
        let cov = d.get(i, j);
        let (ni, nj, _) = rotate_norms(d.get(i, i), d.get(j, j), cov, rot);
        d.set(i, i, ni);
        d.set(j, j, nj);
        d.set(i, j, 0.0);
        for k in 0..n {
            if k == i || k == j {
                continue;
            }
            let dki = d.get(k, i);
            let dkj = d.get(k, j);
            d.set(k, i, dki * cos - dkj * sin);
            d.set(k, j, dki * sin + dkj * cos);
        }
    }

    #[test]
    fn rotate_packed_is_bit_identical_to_scalar_reference() {
        for n in [2usize, 3, 5, 8, 13, 17] {
            let base = packed_from_seed(n, 7 + n as u64);
            for i in 0..n {
                for j in (i + 1)..n {
                    let rot = {
                        let g = &base;
                        textbook_params(g.get(i, i), g.get(j, j), g.get(i, j))
                    };
                    let mut fast = base.clone();
                    let mut refr = base.clone();
                    rotate_packed(&mut fast, i, j, &rot);
                    rotate_reference(&mut refr, i, j, &rot);
                    assert_eq!(fast.as_slice(), refr.as_slice(), "n={n} pair ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn round_buffer_stores_the_triangle_it_loaded() {
        for n in 1..20 {
            let d = packed_from_seed(n, 50 + n as u64);
            let mut round = RoundBuffer::new(n);
            round.load(&d);
            let mut back = PackedSymmetric::zeros(n);
            round.store(&mut back);
            assert_eq!(back.as_slice(), d.as_slice(), "n={n}");
        }
    }

    #[test]
    fn round_sweeps_match_rotate_packed_on_signed_zeros() {
        // Whole sweeps of chosen rotations, a third of the pairs holding
        // still, over a `D` sprinkled with ±0.0: the round kernel must give
        // `rotate_packed`'s bits pair by pair in plan order. A still pair
        // multiplied by the identity instead of left out flips a −0.0.
        let rots = [(1.0, 0.0), (0.8, 0.6), (0.6, -0.8), (1.0, -0.0), (0.28, 0.96)]
            .map(|(cos, sin)| Rotation { cos, sin, t: sin / cos });
        // Each n runs once with a third of its pairs still, and even n ≥ 4
        // once more with only round 0's pair (0, n−1) turning.
        let cases = (2..30).map(|n| (n, false)).chain((4..12).step_by(2).map(|n| (n, true)));
        for (n, lone) in cases {
            let mut d = packed_from_seed(n, 90 + n as u64);
            for i in 0..n {
                for j in i + 1..n {
                    match (3 * i + 5 * j) % 7 {
                        0 | 3 => d.set(i, j, -0.0),
                        5 => d.set(i, j, 0.0),
                        _ => {}
                    }
                }
            }
            if lone {
                // Round 0 turns pair (0, n−1) by (1, 0) next to the still
                // pair (1, n−2), and nothing turns after it: D_01 = −0.0
                // must survive, where the identity would give
                // −0.0 − (−1.0·0.0) = +0.0.
                d.set(0, 1, -0.0);
                d.set(1, n - 1, 1.0);
                d.set(0, n - 2, -1.0);
                d.set(n - 2, n - 1, 1.0);
            }
            let mut want = d.clone();
            let mut round = RoundBuffer::new(n);
            round.load(&d);
            for r in 0..round.rounds() {
                round.start_round(r);
                for k in 0..round.pair_count() {
                    let (f, g) = round.pair(k);
                    let turns = if lone { r == 0 && k == 0 } else { (r + k) % 3 != 1 };
                    if f < n && g < n && turns {
                        let rot = rots[(r + 2 * k) % rots.len()];
                        round.rotate_pair(k, &rot);
                        rotate_packed(&mut want, f.min(g), f.max(g), &rot);
                    }
                }
                round.finish_round();
            }
            let mut got = PackedSymmetric::zeros(n);
            round.store(&mut got);
            let bits =
                |p: &PackedSymmetric| p.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n={n} lone={lone}");
        }
    }

    #[test]
    fn turns_keep_every_entry_in_its_owners_row() {
        // Entry {x, y} must sit in the row of the column with the lower
        // pair index (F before G within a pair) at every round. Mark each
        // owner's copy, poison the other, and turn through a whole sweep.
        for n in 2..40 {
            let mut round = RoundBuffer::new(n);
            let s = round.slots;
            let owner_row = |round: &RoundBuffer, x: usize, y: usize| {
                let rank = |c: usize| {
                    let k = (0..s / 2).find(|&k| round.f[k] == c || round.g[k] == c).unwrap();
                    2 * k + usize::from(round.g[k] == c)
                };
                if rank(x) < rank(y) {
                    x
                } else {
                    y
                }
            };
            round.start_round(0);
            for x in 0..s {
                for y in (0..s).filter(|&y| y != x) {
                    let o = owner_row(&round, x, y);
                    let id = (x.min(y) * s + x.max(y)) as f64;
                    round.m[x * s + y] = if o == x { id } else { f64::NAN };
                }
            }
            for r in 0..s - 1 {
                round.turn();
                round.start_round((r + 1) % (s - 1));
                for x in 0..s {
                    for y in (x + 1)..s {
                        let o = owner_row(&round, x, y);
                        let other = x + y - o;
                        let id = (x * s + y) as f64;
                        assert_eq!(
                            round.m[o * s + other],
                            id,
                            "n={n} round {} {{{x}, {y}}}",
                            r + 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rotate_packed_accepts_swapped_pair_order() {
        let base = packed_from_seed(6, 3);
        let rot = textbook_params(base.get(1, 1), base.get(4, 4), base.get(1, 4));
        let mut a = base.clone();
        let mut b = base;
        rotate_packed(&mut a, 1, 4, &rot);
        rotate_packed(&mut b, 4, 1, &rot);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn batch_params_soa_masks_inactive_and_converged_lanes() {
        use crate::engine::PAIR_TOL;
        let ni = [4.0, 9.0, 1.0, 16.0];
        let nj = [2.0, 3.0, 1.0, 8.0];
        // Lane 2's covariance sits under the Drmač guard; lane 3 is inactive.
        let cv = [1.5, -2.0, 1e-18, 5.0];
        let active = [1u8, 1, 1, 0];
        let (mut c, mut s, mut t) = ([0.0; 4], [0.0; 4], [0.0; 4]);
        let mut applied = [9u8; 4];
        batch_params_soa(&ni, &nj, &cv, &active, PAIR_TOL, &mut c, &mut s, &mut t, &mut applied);
        for p in [0usize, 1] {
            // Live lanes: the sqrt-based chain tracks the hypot-based scalar
            // one to a few ulps (documented deviation), and the skip
            // decision is exact.
            let r = textbook_params(ni[p], nj[p], cv[p]);
            assert_eq!(applied[p], 1, "lane {p}");
            assert!(
                (c[p] - r.cos).abs() <= 4.0 * f64::EPSILON,
                "lane {p} cos {} vs {}",
                c[p],
                r.cos
            );
            assert!(
                (s[p] - r.sin).abs() <= 4.0 * f64::EPSILON,
                "lane {p} sin {} vs {}",
                s[p],
                r.sin
            );
            assert!((t[p] - r.t).abs() <= 4.0 * f64::EPSILON, "lane {p} t {} vs {}", t[p], r.t);
        }
        for p in [2usize, 3] {
            // Masked lanes are exact identity — no tolerance.
            assert_eq!((c[p], s[p], t[p], applied[p]), (1.0, 0.0, 0.0, 0), "lane {p}");
        }
    }

    /// Compare a deinterleaved SoA lane against its scalar reference: exact
    /// on non-FMA targets; on FMA hardware the off-diagonal contraction may
    /// move each rotated entry by ≤ 1 ulp, bounded here by a few ulps of
    /// the triangle's magnitude (cancellation makes a relative per-entry
    /// bound meaningless near zero).
    fn assert_lane_matches(got: &[f64], want: &[f64], ctx: &str) {
        if cfg!(target_feature = "fma") {
            let scale = want.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
            for (k, (a, b)) in got.iter().zip(want).enumerate() {
                assert!((a - b).abs() <= 4.0 * f64::EPSILON * scale, "{ctx} entry {k}: {a} vs {b}");
            }
        } else {
            assert_eq!(got, want, "{ctx}");
        }
    }

    #[test]
    fn rotate_packed_soa_sparse_path_is_bit_identical_too() {
        use hj_matrix::soa;
        // 32 problems with only 2 live lanes trips the sparse (< 1/8) walk;
        // its output must match the per-problem scalar reference bit-for-bit
        // and leave every dead lane untouched.
        let n = 9usize;
        let problems: Vec<PackedSymmetric> =
            (0..32).map(|p| packed_from_seed(n, 300 + p as u64)).collect();
        let lanes = soa::lane_padded(problems.len());
        let tri = n * (n + 1) / 2;
        let mut d = vec![0.0; tri * lanes];
        for (p, g) in problems.iter().enumerate() {
            soa::interleave(g.as_slice(), p, lanes, &mut d);
        }
        let (i, j) = (2usize, 6usize);
        let (mut c, mut s, mut t) = (vec![1.0; lanes], vec![0.0; lanes], vec![0.0; lanes]);
        let mut applied = vec![0u8; lanes];
        for p in [5usize, 20] {
            let g = &problems[p];
            let r = textbook_params(g.get(i, i), g.get(j, j), g.get(i, j));
            c[p] = r.cos;
            s[p] = r.sin;
            t[p] = r.t;
            applied[p] = 1;
        }
        let before = d.clone();
        rotate_packed_soa(&mut d, n, lanes, i, j, &c, &s, &t, &applied);
        for (p, g) in problems.iter().enumerate() {
            let mut back = vec![0.0; tri];
            soa::deinterleave(&d, p, lanes, &mut back);
            if applied[p] != 0 {
                let r = textbook_params(g.get(i, i), g.get(j, j), g.get(i, j));
                let mut reference = g.clone();
                rotate_packed(&mut reference, i, j, &r);
                assert_lane_matches(&back, reference.as_slice(), &format!("live lane {p}"));
            } else {
                let mut untouched = vec![0.0; tri];
                soa::deinterleave(&before, p, lanes, &mut untouched);
                assert_eq!(back, untouched, "dead lane {p} must keep its bits");
            }
        }
    }

    #[test]
    fn rotate_packed_soa_matches_per_problem_rotate_packed() {
        use hj_matrix::soa;
        // Four problems interleaved; lane 3 skipped (identity params) must
        // keep its triangle bit-for-bit on the diagonal/cov and up to
        // -0.0 → +0.0 flips elsewhere (none arise from random data here).
        for n in [2usize, 3, 5, 8, 13] {
            let problems: Vec<PackedSymmetric> =
                (0..4).map(|p| packed_from_seed(n, 40 + p + n as u64)).collect();
            let lanes = soa::lane_padded(problems.len());
            let tri = n * (n + 1) / 2;
            let mut d = vec![0.0; tri * lanes];
            for (p, g) in problems.iter().enumerate() {
                soa::interleave(g.as_slice(), p, lanes, &mut d);
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    let (mut c, mut s, mut t) =
                        (vec![1.0; lanes], vec![0.0; lanes], vec![0.0; lanes]);
                    let mut applied = vec![0u8; lanes];
                    for (p, g) in problems.iter().enumerate().take(3) {
                        let r = textbook_params(g.get(i, i), g.get(j, j), g.get(i, j));
                        c[p] = r.cos;
                        s[p] = r.sin;
                        t[p] = r.t;
                        applied[p] = 1;
                    }
                    let mut batch = d.clone();
                    rotate_packed_soa(&mut batch, n, lanes, i, j, &c, &s, &t, &applied);
                    for (p, g) in problems.iter().enumerate() {
                        let mut back = vec![0.0; tri];
                        soa::deinterleave(&batch, p, lanes, &mut back);
                        let mut reference = g.clone();
                        if p < 3 {
                            let r = textbook_params(g.get(i, i), g.get(j, j), g.get(i, j));
                            rotate_packed(&mut reference, i, j, &r);
                            assert_lane_matches(
                                &back,
                                reference.as_slice(),
                                &format!("n={n} pair ({i},{j}) problem {p}"),
                            );
                        } else {
                            // Skipped lanes keep their bits on every target.
                            assert_eq!(
                                back,
                                reference.as_slice(),
                                "n={n} pair ({i},{j}) skipped problem {p}"
                            );
                        }
                    }
                }
            }
        }
    }
}
