//! Vector primitives shared by the sweep kernels and the baselines.
//!
//! These are the scalar building blocks that map one-to-one onto the paper's
//! hardware operators: `dot` is what a column of the Hestenes preprocessor's
//! multiplier array computes, [`gram_packed`] is the whole preprocessor
//! (every column pair, with operand reuse), `axpy` is the body of a
//! Householder update.

/// Partial sums per dot product: row `k` of a 16-row block feeds partial
/// sum `k mod 16`.
const DOT_LANES: usize = 16;

/// Dot product `x·y`. Panics in debug builds on length mismatch.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // Sixteen partial sums as four independent 4-wide chains: each chain
    // mirrors the 4-layer multiplier-array of the paper's preprocessor, and
    // running four of them side by side hides the FP add latency that a
    // single chain serializes on (one 4-wide vector add per ~4 cycles), so
    // long dots run at multiplier throughput instead.
    let wide = x.len() - x.len() % DOT_LANES;
    let mut acc = [0.0f64; DOT_LANES];
    dot_accumulate(&mut acc, &x[..wide], &y[..wide]);
    dot_finish(acc, &x[wide..], &y[wide..])
}

/// Add the products of whole 16-row blocks into the partial sums:
/// `acc[l] += x[k]·y[k]` for every `k ≡ l (mod 16)`, in increasing `k`.
/// `x.len()` must be a multiple of 16.
#[inline(always)]
fn dot_accumulate(acc: &mut [f64; DOT_LANES], x: &[f64], y: &[f64]) {
    for (x16, y16) in x.chunks_exact(DOT_LANES).zip(y.chunks_exact(DOT_LANES)) {
        for l in 0..DOT_LANES {
            acc[l] += x16[l] * y16[l];
        }
    }
}

/// Fold the last `x.len() < 16` rows into the partial sums and reduce them:
/// whole 4-row chunks go to the first chain, the rest to a scalar tail, then
/// the four chains are added lane by lane and the lanes left to right. Every
/// `dot` ends here, so every caller that hands it the same partial sums gets
/// the same bits.
#[inline(always)]
fn dot_finish(acc: [f64; DOT_LANES], x: &[f64], y: &[f64]) -> f64 {
    debug_assert!(x.len() < DOT_LANES && x.len() == y.len());
    let mut a0 = [acc[0], acc[1], acc[2], acc[3]];
    let quads = x.len() - x.len() % 4;
    for (x4, y4) in x[..quads].chunks_exact(4).zip(y[..quads].chunks_exact(4)) {
        for u in 0..4 {
            a0[u] += x4[u] * y4[u];
        }
    }
    let mut tail = 0.0;
    for (a, b) in x[quads..].iter().zip(&y[quads..]) {
        tail += a * b;
    }
    let lane = |u: usize| a0[u] + acc[4 + u] + acc[8 + u] + acc[12 + u];
    lane(0) + lane(1) + lane(2) + lane(3) + tail
}

/// Columns per tile of [`gram_packed`]: a tile pair's 16×16 entries of
/// sixteen partial sums each are the kernel's whole scratch (32 KiB).
const GRAM_TILE: usize = 16;

/// Rows per panel of [`gram_packed`] (a multiple of 16). A tile pair's
/// panel, 32 column segments of 4 KiB, stays in L2 while every register
/// block of the pair streams it.
const GRAM_PANEL: usize = 512;

/// Partial sums of a 2×2 block of Gram entries, `[2u + v]` for `(u, v)`.
type BlockSums = [[f64; DOT_LANES]; 4];

/// The Gram matrix `AᵀA` of a column-major `rows × cols` matrix, written as
/// its packed upper triangle: entry `e` of the row-within-triangle order
/// (the [`crate::PackedSymmetric`] layout) goes to `out[e · stride]`, so the
/// same kernel fills a plain triangle (`stride = 1`) or one lane of an
/// interleaved batch of triangles.
///
/// Each entry is **bit-identical** to `dot(col_i, col_j)`: it keeps `dot`'s
/// sixteen partial sums, adds the products of each 16-row block in
/// increasing row order and ends in the same reduction. Only the traversal
/// across entries and rows changes: columns are taken in tiles of 16, the
/// rows in panels of 512, and within a panel every 2×2 block of entries of
/// a tile pair runs in registers, so each loaded column segment feeds two
/// entries instead of one and a tile pair's panel is read from cache rather
/// than memory. `A` is streamed once per tile pair instead of once per
/// entry. Scratch is one fixed 32 KiB tile of partial sums on the stack,
/// carried between panels (shapes with one panel skip it), whatever `n`.
///
/// # Panics
/// Panics if `data.len() != rows · cols` or `out` is too short for the
/// last entry.
pub fn gram_packed(data: &[f64], rows: usize, cols: usize, out: &mut [f64], stride: usize) {
    assert_eq!(data.len(), rows * cols, "gram_packed: data is not rows × cols");
    let entries = cols * (cols + 1) / 2;
    assert!(entries == 0 || out.len() > (entries - 1) * stride, "gram_packed: output too short");
    let col = |c: usize| &data[c * rows..(c + 1) * rows];
    let wide = rows - rows % DOT_LANES;
    // Rows past the last whole 16-row block join in `dot_finish`; a matrix
    // with fewer than 16 rows still runs one (empty) panel to get there.
    let panels = wide.div_ceil(GRAM_PANEL).max(1);
    // Partial sums carried from one panel to the next, one 2×2 block of
    // entries per slot; a single-panel shape never touches (or zeroes) it.
    let mut carry_storage;
    let carry: &mut [BlockSums] = if panels > 1 {
        carry_storage = [[[0.0; DOT_LANES]; 4]; (GRAM_TILE / 2) * (GRAM_TILE / 2)];
        &mut carry_storage
    } else {
        &mut []
    };
    let mut single = [[0.0; DOT_LANES]; 4];
    for i0 in (0..cols).step_by(GRAM_TILE) {
        let iw = GRAM_TILE.min(cols - i0);
        for j0 in (i0..cols).step_by(GRAM_TILE) {
            let jw = GRAM_TILE.min(cols - j0);
            let diagonal = i0 == j0;
            for panel in 0..panels {
                let rows = panel * GRAM_PANEL..((panel + 1) * GRAM_PANEL).min(wide);
                for bi in (0..iw).step_by(2) {
                    // On the diagonal tile only blocks on or above the
                    // diagonal are computed.
                    for bj in (if diagonal { bi } else { 0 }..jw).step_by(2) {
                        // A ragged last block row (column) repeats its one
                        // column: the copy computes the same bits for the
                        // same entry.
                        let r = [bi, (bi + 1).min(iw - 1)];
                        let c = [bj, (bj + 1).min(jw - 1)];
                        let acc = if panels > 1 {
                            &mut carry[bi / 2 * (GRAM_TILE / 2) + bj / 2]
                        } else {
                            &mut single
                        };
                        if panel == 0 {
                            *acc = [[0.0; DOT_LANES]; 4];
                        }
                        if wide > 0 {
                            let x = r.map(|u| &col(i0 + u)[rows.clone()]);
                            let y = c.map(|v| &col(j0 + v)[rows.clone()]);
                            block_accumulate(x, y, acc);
                        }
                        if panel + 1 < panels {
                            continue;
                        }
                        for (k, &sums) in acc.iter().enumerate() {
                            let (i, j) = (i0 + r[k / 2], j0 + c[k % 2]);
                            if i <= j {
                                // Packed offset of (i, j), i ≤ j.
                                let e = i * (2 * cols - i + 1) / 2 + (j - i);
                                out[e * stride] =
                                    dot_finish(sums, &col(i)[wide..], &col(j)[wide..]);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// [`dot_accumulate`] for a 2×2 block of entries at once: `acc[2u + v]`
/// takes `x[u]·y[v]`, so each 16-row block of a column is loaded once and
/// feeds two entries. Kept out of line: inlined into the tile loops, LLVM's
/// SLP vectorizer leaves the partial sums scalar.
#[inline(never)]
fn block_accumulate(x: [&[f64]; 2], y: [&[f64]; 2], acc: &mut BlockSums) {
    let [mut a00, mut a01, mut a10, mut a11] = *acc;
    let blocks = x[0]
        .chunks_exact(DOT_LANES)
        .zip(x[1].chunks_exact(DOT_LANES))
        .zip(y[0].chunks_exact(DOT_LANES).zip(y[1].chunks_exact(DOT_LANES)));
    for ((x0, x1), (y0, y1)) in blocks {
        for l in 0..DOT_LANES {
            a00[l] += x0[l] * y0[l];
            a01[l] += x0[l] * y1[l];
            a10[l] += x1[l] * y0[l];
            a11[l] += x1[l] * y1[l];
        }
    }
    *acc = [a00, a01, a10, a11];
}

/// Scan `x` once: `Some(max |xₖ|)` (0 for an empty slice) when every
/// element is finite, `None` when any is NaN or ±∞.
///
/// A non-negative double's bit pattern orders like its value, so one
/// unsigned max over the sign-cleared bits yields both answers: the largest
/// magnitude, and whether any exponent field is all ones (±∞ is the
/// smallest such pattern, every NaN lies above it). Integer max is
/// associative, so the fold vectorizes lanes-wide and branch-free. The four
/// quarters of `x` are scanned side by side: four sequential streams keep
/// more memory requests in flight than one, and a large input's scan waits
/// on memory, not arithmetic.
pub fn finite_max_abs(x: &[f64]) -> Option<f64> {
    const MAGNITUDE: u64 = !(1 << 63);
    let bits = |v: &f64| v.to_bits() & MAGNITUDE;
    let q = x.len() / 4;
    let (a, rest) = x.split_at(q);
    let (b, rest) = rest.split_at(q);
    let (c, d) = rest.split_at(q);
    let top =
        a.iter().zip(b).zip(c.iter().zip(d)).fold(0, |top, ((a, b), (c, d))| {
            top.max(bits(a)).max(bits(b)).max(bits(c)).max(bits(d))
        });
    let top = d[q..].iter().fold(top, |top, v| top.max(bits(v)));
    (top < f64::INFINITY.to_bits()).then(|| f64::from_bits(top))
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean norm `‖x‖`.
#[inline]
pub fn norm(x: &[f64]) -> f64 {
    norm_sq(x).sqrt()
}

/// `y ← y + a·x`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Scale `x` in place by `a`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for v in x {
        *v *= a;
    }
}

/// Numerically-robust 2-norm using the scaled-sum-of-squares trick
/// (LAPACK `dnrm2` style), immune to overflow/underflow of intermediate
/// squares. The Householder baseline uses this for its reflector norms.
pub fn robust_norm(x: &[f64]) -> f64 {
    let mut scale_v = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
        if v != 0.0 {
            let a = v.abs();
            if scale_v < a {
                let r = scale_v / a;
                ssq = 1.0 + ssq * r * r;
                scale_v = a;
            } else {
                let r = a / scale_v;
                ssq += r * r;
            }
        }
    }
    scale_v * ssq.sqrt()
}

/// Relative difference `|a − b| / max(|a|, |b|, 1)` — the comparison metric
/// used by the cross-validation tests between SVD implementations.
#[inline]
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Lane width of [`rotate_pair`]'s unrolled body. Four doubles fill one
/// AVX2 register (or two NEON registers); the paper's update kernel likewise
/// processes a fixed-width slab of column elements per cycle.
pub const ROTATE_LANES: usize = 4;

/// Apply the plane rotation `[c, s; −s, c]` to two equal-length column
/// slices in place (the paper's eqs. (11)–(12)):
///
/// ```text
/// x' = x·cos − y·sin
/// y' = x·sin + y·cos
/// ```
///
/// The body runs in [`ROTATE_LANES`]-wide chunks with a scalar tail so LLVM
/// reliably autovectorizes it; each element's arithmetic is exactly the
/// two-multiply-one-add/sub expression of the scalar loop, so the result is
/// **bit-identical** to rotating the elements one at a time (no
/// re-association, no FMA contraction — the kernel-compat tests pin this).
///
/// Panics in debug builds on a length mismatch.
#[inline]
pub fn rotate_pair(x: &mut [f64], y: &mut [f64], cos: f64, sin: f64) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let split = n - n % ROTATE_LANES;
    let (xh, xt) = x[..n].split_at_mut(split);
    let (yh, yt) = y[..n].split_at_mut(split);
    for (xs, ys) in xh.chunks_exact_mut(ROTATE_LANES).zip(yh.chunks_exact_mut(ROTATE_LANES)) {
        for l in 0..ROTATE_LANES {
            let a = xs[l];
            let b = ys[l];
            xs[l] = a * cos - b * sin;
            ys[l] = a * sin + b * cos;
        }
    }
    for (a, b) in xt.iter_mut().zip(yt.iter_mut()) {
        let xi = *a;
        let yj = *b;
        *a = xi * cos - yj * sin;
        *b = xi * sin + yj * cos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_short_vectors() {
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn robust_norm_handles_extremes() {
        // Plain sum of squares would overflow f64 here.
        let big = [1e200, 1e200];
        assert!((robust_norm(&big) - 1e200 * 2.0f64.sqrt()).abs() / 1e200 < 1e-12);
        // ... and underflow here.
        let small = [1e-200, 1e-200];
        assert!((robust_norm(&small) - 1e-200 * 2.0f64.sqrt()).abs() / 1e-200 < 1e-12);
        assert_eq!(robust_norm(&[]), 0.0);
        assert_eq!(robust_norm(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn robust_norm_matches_plain_in_normal_range() {
        let x = [3.0, -4.0, 12.0];
        assert!((robust_norm(&x) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn rotate_pair_matches_scalar_loop_bitwise() {
        // Lengths straddling the lane width, including 0 and odd tails.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 13, 64, 65] {
            let mut x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
            let mut y: Vec<f64> = (0..len).map(|i| (i as f64 * 0.11).cos() - 0.4).collect();
            let (mut xs, mut ys) = (x.clone(), y.clone());
            let theta: f64 = 0.71;
            let (c, s) = (theta.cos(), theta.sin());
            rotate_pair(&mut x, &mut y, c, s);
            for (a, b) in xs.iter_mut().zip(ys.iter_mut()) {
                let xi = *a;
                let yj = *b;
                *a = xi * c - yj * s;
                *b = xi * s + yj * c;
            }
            assert_eq!(x, xs, "len {len}");
            assert_eq!(y, ys, "len {len}");
        }
    }

    #[test]
    fn finite_max_abs_finds_extreme_or_rejects() {
        assert_eq!(finite_max_abs(&[1.0, -7.5, 3.0, 2.0, -0.0]), Some(7.5));
        assert_eq!(finite_max_abs(&[]), Some(0.0));
        assert_eq!(finite_max_abs(&[f64::MAX, -f64::MIN_POSITIVE]), Some(f64::MAX));
        assert_eq!(finite_max_abs(&[5e-324, -0.0]), Some(5e-324));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..9 {
                let mut x = [1.0; 9];
                x[at] = bad;
                assert_eq!(finite_max_abs(&x), None, "{bad} at {at}");
            }
        }
    }

    #[test]
    fn rel_diff_behaviour() {
        assert_eq!(rel_diff(1.0, 1.0), 0.0);
        assert!((rel_diff(100.0, 101.0) - 1.0 / 101.0).abs() < 1e-15);
        // Small absolute values are compared absolutely (denominator clamps at 1).
        assert_eq!(rel_diff(0.0, 1e-3), 1e-3);
    }
}
