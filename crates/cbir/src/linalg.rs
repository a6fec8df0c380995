//! Dense linear algebra for the CBIR kernels.
//!
//! Row-major `f32` matrices, a blocked GEMM, squared Euclidean distances and
//! the decomposed-distance identity (Equation 1 of the paper):
//!
//! ```text
//! ||q - c||^2 = ||q||^2 + ||c||^2 - 2 <q, c>
//! ```
//!
//! which turns short-list retrieval into one matrix-matrix product plus a
//! broadcast addition — the shape the GeMM accelerator template runs.

use std::ops::Add;

/// A row-major `f32` matrix. Zero-dimension matrices are legal (an empty
/// query batch or candidate list is a normal runtime input, not a bug) —
/// they simply have no rows to borrow.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix. Zero dimensions produce an empty matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix: shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "Matrix::row: {i} out of {}", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "Matrix::row_mut: {i} out of {}", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The backing slice (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// `C = A x B^T` — blocked for cache reuse and parallelized over row
/// chunks. `A` is `m x k`, `B` is `n x k` (both row-major), result is
/// `m x n`. Taking `B` row-major with rows as the *right* operand's columns
/// is an explicitly transposed layout, which matches how the centroid
/// matrix is stored "in columnar fashion" in the paper; the kernel packs
/// it once per call into 8-column panels that every row of `A` streams
/// through.
///
/// Large products fan out across threads in fixed 64-row chunks (see
/// [`crate::par`]); every output element is accumulated in the same
/// `t`-ordered lane model on either path, so the result is
/// byte-identical at any worker count and on any host.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    gemm_nt_jobs(a, b, gemm_fanout_jobs(a.rows, b.rows, a.cols))
}

/// Worker count for an `m x k` by `n x k` product: fan out only when the
/// product is worth a thread spawn and there is more than one chunk of
/// output rows to hand out. The FLOP estimate saturates — adversarial
/// huge-dimension [`Matrix`] shapes (degenerate zero-column matrices can
/// carry arbitrarily large row counts) must not overflow the gate.
#[doc(hidden)]
#[must_use]
pub fn gemm_fanout_jobs(m: usize, n: usize, k: usize) -> usize {
    let flops = m.saturating_mul(n).saturating_mul(k);
    if m > crate::par::CHUNK_ROWS && flops >= 1 << 20 {
        crate::par::kernel_jobs()
    } else {
        1
    }
}

/// [`gemm_nt`] with an explicit worker count, bypassing the size gate.
/// Exposed (hidden) so the determinism suite can prove the parallel and
/// sequential paths produce bit-identical output.
#[doc(hidden)]
#[must_use]
pub fn gemm_nt_jobs(a: &Matrix, b: &Matrix, jobs: usize) -> Matrix {
    assert_eq!(
        a.cols, b.cols,
        "gemm_nt: inner dimensions {} vs {}",
        a.cols, b.cols
    );
    let mut c = Matrix::zeros(a.rows, b.rows);
    let n = b.rows;
    if a.rows == 0 || n == 0 {
        return c;
    }
    let panels = Panels::pack(b);
    let chunks: Vec<(usize, &mut [f32])> = c
        .data
        .chunks_mut(crate::par::CHUNK_ROWS * n)
        .enumerate()
        .map(|(ch, slice)| (ch * crate::par::CHUNK_ROWS, slice))
        .collect();
    crate::par::run_items(chunks, jobs, |(row0, out)| {
        gemm_nt_rows(a, &panels, row0, out);
    });
    c
}

/// Lane count of the register-blocked kernels. The kernels keep eight
/// independent `f32` accumulators so the compiler can auto-vectorize them;
/// the lane model (not the instruction set) fixes the output bits.
const LANES: usize = 8;

/// Output columns per packed panel of `B^T`.
pub(crate) const PANEL: usize = 8;

/// Panels the sequential kernels fold at once, so that the independent
/// add chains of neighbouring panels overlap.
const FOLD_BLOCK: usize = 4;

/// Folds an 8-lane accumulator with a fixed reduction tree. Every kernel
/// in this module reduces through this one function, so any two paths
/// that accumulate the same lanes agree bit-for-bit. It is generic so the
/// column-panel kernel folds eight columns' lanes at once ([`Columns`])
/// through the very same tree.
#[inline(always)]
fn reduce<T: Copy + Add<Output = T>>(acc: [T; LANES]) -> T {
    let q = [
        acc[0] + acc[4],
        acc[1] + acc[5],
        acc[2] + acc[6],
        acc[3] + acc[7],
    ];
    (q[0] + q[2]) + (q[1] + q[3])
}

/// Eight-lane register-blocked dot product: lane `l` accumulates the
/// products at indices `t ≡ l (mod 8)` in increasing `t` order, then the
/// lanes fold through [`reduce`]. The tail (`len % 8`) lands in lanes
/// `0..len%8`; since a lane holding `+0.0` can never turn into `-0.0` by
/// adding products, this is bitwise identical to zero-padding the inputs
/// to a multiple of eight.
///
/// This is *the* accumulation order of the crate: the column-panel GEMM
/// kernel, [`norm_sq`] and the k-means assignment all follow it, which is
/// what makes decomposed distances of a vector to itself exactly zero.
#[inline]
pub(crate) fn dot8(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let main = a.len() / LANES * LANES;
    let (ah, at) = a.split_at(main);
    let (bh, bt) = b.split_at(main);
    for (av, bv) in ah.chunks_exact(LANES).zip(bh.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += av[l] * bv[l];
        }
    }
    for (l, (x, y)) in at.iter().zip(bt).enumerate() {
        acc[l] += x * y;
    }
    reduce(acc)
}

/// The right operand of `A x B^T`, packed once for the column-panel
/// kernel: `B^T` cut into [`PANEL`]-column panels, each stored `t`-major
/// (the eight `B` rows' values at index `t` are contiguous), the last
/// panel zero-padded. A whole panel is one contiguous `8 x k` block that
/// every `A` row streams through.
///
/// Every codec scan runs on this one layout: the GEMM and the k-means
/// assignment (decomposed distances in [`dot8`] order), and the k-means++
/// seeding, product-quantizer encode and binary encode (the sequential
/// kernels [`dists`](Self::dists) and [`seq_dots`](Self::seq_dots)). Each
/// computes a panel's eight outputs side by side while every output keeps
/// its own scalar operation order, so the outputs are those of the scalar
/// routine, bit for bit, and the eight-wide loop vectorizes.
#[derive(Clone, Debug)]
pub(crate) struct Panels {
    n: usize,
    k: usize,
    data: Vec<f32>,
}

impl Panels {
    /// Packs the rows of `b` (the output columns) into panels.
    pub(crate) fn pack(b: &Matrix) -> Self {
        let k = b.cols;
        let mut data = vec![0.0f32; b.rows.div_ceil(PANEL) * PANEL * k];
        for j in 0..b.rows {
            let (p, c) = (j / PANEL, j % PANEL);
            let panel = &mut data[p * PANEL * k..(p + 1) * PANEL * k];
            for (t, &x) in b.row(j).iter().enumerate() {
                panel[t * PANEL + c] = x;
            }
        }
        Panels { n: b.rows, k, data }
    }

    /// Number of packed columns (the rows of the packed matrix).
    pub(crate) fn columns(&self) -> usize {
        self.n
    }

    /// Length of each packed column (the columns of the packed matrix).
    pub(crate) fn depth(&self) -> usize {
        self.k
    }

    /// For each panel in order, `sink(p, sums)` with the eight sums over
    /// `t` of `term(B_j[t], y[t])`, each added in increasing `t` from
    /// `+0.0` (padding columns included). Per column that is a sequential
    /// scalar fold; the eight folds of a panel run side by side, and
    /// [`FOLD_BLOCK`] panels run interleaved so that their add chains
    /// overlap.
    #[inline(always)]
    fn fold_seq(
        &self,
        y: &[f32],
        term: impl Fn(f32, f32) -> f32,
        mut sink: impl FnMut(usize, [f32; PANEL]),
    ) {
        assert_eq!(y.len(), self.k, "Panels: inner dimension mismatch");
        let panels = self.n.div_ceil(PANEL);
        let blocked = panels / FOLD_BLOCK * FOLD_BLOCK;
        for p0 in (0..blocked).step_by(FOLD_BLOCK) {
            let sums = self.fold_block::<FOLD_BLOCK>(p0, y, &term);
            for (g, sums) in sums.into_iter().enumerate() {
                sink(p0 + g, sums);
            }
        }
        for p in blocked..panels {
            let [sums] = self.fold_block::<1>(p, y, &term);
            sink(p, sums);
        }
    }

    /// [`fold_seq`](Self::fold_seq) of panels `p0..p0 + G`.
    #[inline(always)]
    fn fold_block<const G: usize>(
        &self,
        p0: usize,
        y: &[f32],
        term: &impl Fn(f32, f32) -> f32,
    ) -> [[f32; PANEL]; G] {
        let len = PANEL * self.k;
        let panels: [&[f32]; G] =
            std::array::from_fn(|g| &self.data[(p0 + g) * len..(p0 + g + 1) * len]);
        let mut acc = [[0.0f32; PANEL]; G];
        // `take` tells the optimizer `t < k`: no bounds checks in the loop.
        for (t, &yt) in y.iter().enumerate().take(self.k) {
            for (acc, panel) in acc.iter_mut().zip(panels) {
                let col = &panel[t * PANEL..(t + 1) * PANEL];
                for (sum, &x) in acc.iter_mut().zip(col) {
                    *sum += term(x, yt);
                }
            }
        }
        acc
    }

    /// [`dist_sq`]`(B_j, y)` of every column, handed to `sink` one panel
    /// at a time, in order.
    ///
    /// Bitwise `dist_sq` for `k >= 1`: both add the squares in increasing
    /// `t`, and every square is `+0.0` or more (or NaN), so starting from
    /// `+0.0` rather than `Sum`'s `-0.0` changes no bit. Callers that want
    /// `dist_sq(y, B_j)` get the same bits too: IEEE negation is exact and
    /// the square drops the sign; only a NaN-against-NaN payload could tell
    /// the two apart, and no caller reads a NaN's payload.
    #[inline]
    pub(crate) fn dists(&self, y: &[f32], sink: impl FnMut(usize, [f32; PANEL])) {
        self.fold_seq(
            y,
            |x, y| {
                let d = x - y;
                d * d
            },
            sink,
        );
    }

    /// `sum_t B_j[t] * y[t]` of every column, added in increasing `t`,
    /// handed to `sink` one panel at a time, in order: the scalar `.sum()`
    /// of the products, up to the sign of a zero result (`Sum` starts from
    /// `-0.0`, this from `+0.0`), which the `>= 0.0` sign test of a binary
    /// code cannot see.
    #[inline]
    pub(crate) fn seq_dots(&self, y: &[f32], sink: impl FnMut(usize, [f32; PANEL])) {
        self.fold_seq(y, |x, y| x * y, sink);
    }

    /// The first column index of the smallest [`dists`](Self::dists)
    /// entry, by the strict-`<` scan from `(0, +inf)`: NaN never wins, and
    /// a column set with nothing below `+inf` gives `0`. Padding columns
    /// are masked to NaN, so they never win either.
    pub(crate) fn nearest(&self, y: &[f32]) -> usize {
        let mut argmin = ArgMin::new();
        self.dists(y, |p, mut d| {
            for pad in d.iter_mut().skip(self.n - p * PANEL) {
                *pad = f32::NAN;
            }
            argmin = argmin.push(d);
        });
        argmin.finish().0
    }

    /// `<x, B_j>` of every column when `k = D <= 8`, one panel at a time,
    /// in [`dot8`]'s order: lane `t` holds the one product
    /// `+0.0 + x[t] * B_j[t]`, the other lanes `+0.0`, and the lanes fold
    /// through [`reduce`]'s tree. For `D <= 4` lanes `4..8` are all
    /// `+0.0`, and adding `+0.0` to a lane that starts at `+0.0` (so is
    /// never `-0.0`) returns that lane unchanged, so the tree's first level
    /// is skipped. Bitwise [`row_dots`](Self::row_dots), with the dimension
    /// a constant and each column's tree written out, which is the shape
    /// the compiler vectorizes across the eight columns.
    #[inline(always)]
    pub(crate) fn small_dots<'a, const D: usize>(
        &'a self,
        x: &'a [f32; D],
    ) -> impl Iterator<Item = [f32; PANEL]> + 'a {
        const { assert!(D >= 1 && D <= LANES, "small_dots: one product per lane") };
        assert_eq!(self.k, D, "Panels::small_dots: inner dimension mismatch");
        self.data.chunks_exact(PANEL * D).map(move |panel| {
            let mut dots = [0.0f32; PANEL];
            for (c, dot) in dots.iter_mut().enumerate() {
                let lane = |t: usize| {
                    if t < D {
                        0.0 + x[t] * panel[t * PANEL + c]
                    } else {
                        0.0
                    }
                };
                *dot = if D <= LANES / 2 {
                    (lane(0) + lane(2)) + (lane(1) + lane(3))
                } else {
                    reduce(std::array::from_fn(lane))
                };
            }
            dots
        })
    }

    /// `<a, B_j>` for every column `j` of every panel, into `out`
    /// (eight per panel; padding columns get `+0.0`).
    ///
    /// The column-panel kernel: for each panel, lane `l` sums the
    /// products at `t ≡ l (mod 8)` in increasing `t` for all eight
    /// columns at once, then [`reduce`] folds the lanes of all eight
    /// columns together. Per output that is exactly [`dot8`]'s order,
    /// whatever the column's position in its panel. Storing the folded
    /// columns to `out` (rather than returning them) is what lets the
    /// compiler vectorize the fold across columns.
    #[inline]
    pub(crate) fn row_dots(&self, a: &[f32], out: &mut [f32]) {
        let k = self.k;
        assert_eq!(a.len(), k, "Panels::row_dots: inner dimension mismatch");
        assert_eq!(
            out.len(),
            self.n.div_ceil(PANEL) * PANEL,
            "Panels::row_dots: output size"
        );
        // Whole 8-wide blocks of `t`, then the tail in lanes `0..k % 8`.
        let main = k / LANES * LANES;
        let panel_len = PANEL * k;
        for (p, out) in out.chunks_exact_mut(PANEL).enumerate() {
            let panel = &self.data[p * panel_len..(p + 1) * panel_len];
            let col = |t: usize| -> &[f32; PANEL] {
                panel[t * PANEL..(t + 1) * PANEL]
                    .try_into()
                    .expect("whole panel row")
            };
            let mut acc = [Columns([0.0; PANEL]); LANES];
            for t0 in (0..main).step_by(LANES) {
                for l in 0..LANES {
                    acc[l] = acc[l].add_scaled(a[t0 + l], col(t0 + l));
                }
            }
            for l in 0..LANES {
                if main + l < k {
                    acc[l] = acc[l].add_scaled(a[main + l], col(main + l));
                }
            }
            out.copy_from_slice(&reduce(acc).0);
        }
    }
}

/// One lane's sums for the eight columns of a panel, added column by
/// column.
#[derive(Clone, Copy)]
struct Columns([f32; PANEL]);

impl Columns {
    /// `self + x * col`, column by column.
    #[inline(always)]
    fn add_scaled(mut self, x: f32, col: &[f32; PANEL]) -> Columns {
        for (sum, &y) in self.0.iter_mut().zip(col) {
            *sum += x * y;
        }
        self
    }
}

impl Add for Columns {
    type Output = Columns;

    #[inline(always)]
    fn add(mut self, other: Columns) -> Columns {
        for (x, y) in self.0.iter_mut().zip(other.0) {
            *x += y;
        }
        self
    }
}

/// Computes rows `row0 ..` of `C = A x B^T` into `out` (a contiguous
/// row-major slice of whole rows), `B` packed as `panels`. Padding
/// columns of the last panel are computed and dropped.
pub(crate) fn gemm_nt_rows(a: &Matrix, panels: &Panels, row0: usize, out: &mut [f32]) {
    let n = panels.n;
    let mut dots = vec![0.0f32; n.div_ceil(PANEL) * PANEL];
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        panels.row_dots(a.row(row0 + i), &mut dots);
        out_row.copy_from_slice(&dots[..n]);
    }
}

/// Running 8-lane argmin over a row scanned one [`PANEL`] at a time:
/// lane `c` keeps the first index of its minimum among columns
/// `j ≡ c (mod 8)` under a strict `<`, and [`finish`](Self::finish) takes
/// the smallest value, the lowest index among equal values. That is
/// exactly the sequential strict-`<` scan from `(0, +inf)`: the first
/// index of the minimum wins (`-0.0` and `+0.0` tie), NaN never wins, and
/// a row with nothing below `+inf` returns `(0, +inf)`.
#[derive(Clone, Copy)]
pub(crate) struct ArgMin {
    best: [f32; PANEL],
    index: [u32; PANEL],
    /// Column indices of the next panel.
    next: [u32; PANEL],
}

impl ArgMin {
    pub(crate) fn new() -> Self {
        ArgMin {
            best: [f32::INFINITY; PANEL],
            index: [0; PANEL],
            next: [0, 1, 2, 3, 4, 5, 6, 7],
        }
    }

    /// Offers the next panel's eight values. Branch-free, so the lanes
    /// update as one vector select.
    #[inline(always)]
    #[must_use]
    #[allow(clippy::needless_range_loop)] // four lane arrays walked in lockstep
    pub(crate) fn push(self, d: [f32; PANEL]) -> Self {
        let mut out = self;
        for c in 0..PANEL {
            let less = d[c] < self.best[c];
            out.best[c] = if less { d[c] } else { self.best[c] };
            out.index[c] = if less { self.next[c] } else { self.index[c] };
            out.next[c] = self.next[c].wrapping_add(PANEL as u32);
        }
        out
    }

    /// The `(index, value)` of the row's first minimum.
    pub(crate) fn finish(&self) -> (usize, f32) {
        let (mut index, mut best) = (self.index[0], self.best[0]);
        for c in 1..PANEL {
            let (i, v) = (self.index[c], self.best[c]);
            if v < best || (v == best && i < index) {
                (index, best) = (i, v);
            }
        }
        (index as usize, best)
    }
}

/// Squared L2 norm of a vector, accumulated in `dot8` order so that
/// `norm_sq(v)` is bitwise the kernel's `<v, v>` — the identity
/// `||p||^2 + ||p||^2 - 2<p, p> = 0` then holds *exactly* in `f32`.
#[must_use]
pub fn norm_sq(v: &[f32]) -> f32 {
    dot8(v, v)
}

/// Direct squared Euclidean distance (Equation 2 of the paper).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn dist_sq(p: &[f32], q: &[f32]) -> f32 {
    assert_eq!(p.len(), q.len(), "dist_sq: length mismatch");
    p.iter()
        .zip(q)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum()
}

/// Decomposed squared distances of a query batch against a point set
/// (Equation 1): one GEMM plus broadcast additions of precomputed norms.
/// Returns the `queries.rows x points.rows` distance matrix.
///
/// # Panics
///
/// Panics if dimensions disagree.
#[must_use]
#[allow(clippy::needless_range_loop)] // rows of three matrices walked in lockstep
pub fn batch_dist_sq(queries: &Matrix, points: &Matrix) -> Matrix {
    let dots = gemm_nt(queries, points);
    let q_norms: Vec<f32> = (0..queries.rows())
        .map(|i| norm_sq(queries.row(i)))
        .collect();
    // ||c||^2 is precomputed once and reused for every query, exactly as the
    // paper stores it alongside the centroids.
    let p_norms: Vec<f32> = (0..points.rows()).map(|j| norm_sq(points.row(j))).collect();
    let mut out = Matrix::zeros(queries.rows(), points.rows());
    for i in 0..queries.rows() {
        let row = out.row_mut(i);
        let dot_row = dots.row(i);
        for j in 0..points.rows() {
            row[j] = q_norms[i] + p_norms[j] - 2.0 * dot_row[j];
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gemm_small_known_answer() {
        // A = [[1,2],[3,4]], B rows are the columns of the right operand:
        // B = [[5,6],[7,8]] -> C = A x B^T = [[17,23],[39,53]].
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = gemm_nt(&a, &b);
        assert_eq!(c.as_slice(), &[17.0, 23.0, 39.0, 53.0]);
    }

    #[test]
    fn gemm_blocks_match_naive_on_odd_sizes() {
        // 37 x 19 x 41: sizes that divide neither the 8-column panel nor
        // the 8-lane accumulator. Every element is checked — a broken
        // interior panel or mis-handled padding column cannot hide.
        let a = Matrix::from_vec(37, 19, (0..37 * 19).map(|i| (i % 7) as f32 - 3.0).collect());
        let b = Matrix::from_vec(41, 19, (0..41 * 19).map(|i| (i % 5) as f32 - 2.0).collect());
        let c = gemm_nt(&a, &b);
        for i in 0..37 {
            for j in 0..41 {
                let naive: f32 = (0..19).map(|t| a.row(i)[t] * b.row(j)[t]).sum();
                assert!(
                    (c.row(i)[j] - naive).abs() < 1e-3,
                    "mismatch at ({i}, {j}): {} vs naive {naive}",
                    c.row(i)[j]
                );
            }
        }
    }

    #[test]
    fn gemm_column_position_does_not_change_bits() {
        // The same B rows reached at every position of a full panel and
        // of a zero-padded one (as columns of a 13-column B) and as the
        // only column of a padded panel must produce identical bits.
        let k = 19;
        let a = Matrix::from_vec(3, k, (0..3 * k).map(|i| (i as f32).sin()).collect());
        let b13 = Matrix::from_vec(13, k, (0..13 * k).map(|i| (i as f32).cos()).collect());
        let wide = gemm_nt(&a, &b13);
        for j in 0..13 {
            let b1 = Matrix::from_vec(1, k, b13.row(j).to_vec());
            let narrow = gemm_nt(&a, &b1);
            for i in 0..3 {
                assert_eq!(wide.row(i)[j].to_bits(), narrow.row(i)[0].to_bits());
            }
        }
    }

    #[test]
    fn empty_inputs_yield_empty_results() {
        // A rerank over an empty candidate list is a normal runtime input.
        let q = Matrix::from_vec(3, 4, vec![1.0; 12]);
        let none = Matrix::zeros(0, 4);
        let d = batch_dist_sq(&q, &none);
        assert_eq!((d.rows(), d.cols()), (3, 0));
        let d = batch_dist_sq(&none, &q);
        assert_eq!((d.rows(), d.cols()), (0, 3));
        assert!(d.as_slice().is_empty());
        let c = gemm_nt(&none, &none);
        assert_eq!((c.rows(), c.cols()), (0, 0));
        assert_eq!(norm_sq(&[]), 0.0);
    }

    #[test]
    fn self_distance_is_exactly_zero_in_decomposed_form() {
        // norm_sq and the GEMM kernel share one accumulation order, so
        // ||p||^2 + ||p||^2 - 2<p,p> cancels exactly — no epsilon.
        let p = Matrix::from_vec(1, 19, (0..19).map(|i| (i as f32).sin() * 3.7).collect());
        let d = batch_dist_sq(&p, &p);
        assert_eq!(d.row(0)[0], 0.0);
    }

    #[test]
    fn dist_identities() {
        let p = [1.0, 2.0, 3.0];
        let q = [4.0, 6.0, 3.0];
        assert_eq!(dist_sq(&p, &q), 25.0);
        assert_eq!(dist_sq(&p, &p), 0.0);
        assert_eq!(norm_sq(&p), 14.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_rejected() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn fanout_gate_survives_adversarial_shapes() {
        // Regression: the FLOP estimate used to be `m * n * k`, which
        // overflows (debug panic, release wrap) on degenerate shapes like
        // zero-column matrices with astronomically many rows — legal
        // `Matrix` values, since `rows * cols` still equals `data.len()`.
        let jobs = gemm_fanout_jobs(usize::MAX, usize::MAX, usize::MAX);
        assert!(jobs >= 1, "saturated estimate must still pick a job count");
        // A zero-FLOP product never fans out, no matter the row counts...
        assert_eq!(gemm_fanout_jobs(usize::MAX, usize::MAX, 0), 1);
        // ...and neither does a single-row output, however wide.
        assert_eq!(gemm_fanout_jobs(1, usize::MAX, usize::MAX), 1);
    }

    /// The quiet NaN this architecture's invalid operations (0·∞, ∞−∞)
    /// produce. Using it as the payload pool's *only* NaN keeps every NaN
    /// in flight bit-identical: when two NaNs with different payloads meet,
    /// hardware keeps the first source operand's payload, and the compiler
    /// commutes float ops freely, so that order is not ours to pin.
    pub(crate) fn canonical_nan() -> f32 {
        #[cfg(target_arch = "x86_64")]
        return f32::from_bits(0xffc0_0000); // x86 "real indefinite"
        #[cfg(not(target_arch = "x86_64"))]
        return f32::from_bits(0x7fc0_0000); // ARM/RISC-V default NaN
    }

    /// Adversarial payloads: ordinary values, signed zeros, the largest
    /// and smallest normals, subnormals (Rust never enables FTZ/DAZ),
    /// infinities and the canonical quiet NaN.
    fn payload_pool() -> [f32; 12] {
        [
            0.0,
            -0.0,
            1.0,
            -3.5,
            1.0e-3,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 4.0,
            f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            canonical_nan(),
        ]
    }

    /// Cycles the payload pool with a salted stride so NaNs and
    /// infinities land against every value class.
    pub(crate) fn adversarial(len: usize, salt: usize) -> Vec<f32> {
        let pool = payload_pool();
        (0..len)
            .map(|i| pool[i.wrapping_mul(7).wrapping_add(salt) % pool.len()])
            .collect()
    }

    /// Reference model of the lane contract, written independently of the
    /// kernels: zero-pad both operands to a multiple of eight, let lane
    /// `l` sum the products at `t ≡ l (mod 8)` in increasing `t`, then
    /// fold the lanes pairwise.
    fn lane_model(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        for t in 0..a.len().div_ceil(LANES) * LANES {
            let x = a.get(t).copied().unwrap_or(0.0);
            let y = b.get(t).copied().unwrap_or(0.0);
            lanes[t % LANES] += x * y;
        }
        let q = [
            lanes[0] + lanes[4],
            lanes[1] + lanes[5],
            lanes[2] + lanes[6],
            lanes[3] + lanes[7],
        ];
        (q[0] + q[2]) + (q[1] + q[3])
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dot8_of_empty_inputs_is_positive_zero() {
        assert_eq!(dot8(&[], &[]).to_bits(), 0.0f32.to_bits());
        assert_eq!(norm_sq(&[]).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn dot8_matches_lane_model_on_every_tail_residue() {
        // Lengths 1..=24 cover every `len % 8` residue with zero, one and
        // two full 8-lane blocks in front of the tail.
        for len in 1..=24 {
            let a = adversarial(len, 0);
            let b = adversarial(len, 3);
            assert_eq!(
                dot8(&a, &b).to_bits(),
                lane_model(&a, &b).to_bits(),
                "dot8 len {len}"
            );
        }
    }

    #[test]
    fn dot8_tail_is_bitwise_zero_padding() {
        // The documented tail contract: short lanes behave exactly as if
        // the inputs were padded with zeros to a multiple of eight, signed
        // zeros and negative products included.
        for len in 1usize..=23 {
            let a: Vec<f32> = (0..len)
                .map(|i| {
                    if i % 3 == 0 {
                        -0.0
                    } else {
                        0.75 - i as f32 * 0.5
                    }
                })
                .collect();
            let b: Vec<f32> = (0..len).map(|i| 1.25 * (i as f32) - 4.0).collect();
            let padded = len.div_ceil(LANES) * LANES;
            let mut ap = a.clone();
            let mut bp = b.clone();
            ap.resize(padded, 0.0);
            bp.resize(padded, 0.0);
            assert_eq!(
                dot8(&a, &b).to_bits(),
                dot8(&ap, &bp).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn negative_zero_products_sum_to_positive_zero() {
        // Lanes start at +0.0 and +0.0 + -0.0 is +0.0, so no accumulation
        // of signed-zero products can surface a -0.0.
        let neg = vec![-0.0f32; 11];
        let one = vec![1.0f32; 11];
        assert_eq!(dot8(&neg, &one).to_bits(), 0.0f32.to_bits());
        assert_eq!(dot8(&[0.0], &[-1.0]).to_bits(), 0.0f32.to_bits());
        assert_eq!(norm_sq(&neg).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn subnormal_products_are_not_flushed() {
        // Nine subnormal products (lane 0 takes two) sum exactly to a
        // value that is itself subnormal: gradual underflow, no FTZ.
        let tiny = f32::MIN_POSITIVE / 16.0;
        let a = vec![tiny; 9];
        let got = dot8(&a, &[1.0; 9]);
        assert!(got.is_subnormal(), "{got:e} should stay subnormal");
        assert_eq!(got.to_bits(), (tiny * 9.0).to_bits());
    }

    #[test]
    fn infinities_propagate_and_opposing_infinities_cancel_to_nan() {
        assert_eq!(dot8(&[f32::INFINITY, 1.0], &[1.0, 1.0]), f32::INFINITY);
        assert_eq!(norm_sq(&[f32::NEG_INFINITY, 2.0]), f32::INFINITY);
        // +inf in lane 0 and -inf in lane 1 only meet in the fold.
        assert!(dot8(&[f32::INFINITY, f32::NEG_INFINITY], &[1.0, 1.0]).is_nan());
        assert!(dot8(&[f32::INFINITY], &[0.0]).is_nan());
    }

    #[test]
    fn all_nan_operands_yield_the_canonical_nan() {
        // Every multiply and every add is a NaN-on-NaN meet; with
        // same-bits NaNs the result is that NaN, whatever the order.
        let nan = vec![canonical_nan(); 11];
        assert_eq!(dot8(&nan, &nan).to_bits(), canonical_nan().to_bits());
        assert_eq!(norm_sq(&nan).to_bits(), canonical_nan().to_bits());
    }

    #[test]
    fn lone_nan_payload_survives_bitwise() {
        // One distinct-payload quiet NaN among finite values rides through
        // the multiply, its lane and the fold untouched.
        let payload = f32::from_bits(0x7fc0_1234);
        for len in [1usize, 7, 8, 9, 23] {
            for pos in [0, len / 2, len - 1] {
                let mut a: Vec<f32> = (0..len).map(|i| 0.25 * (i as f32 + 1.0)).collect();
                a[pos] = payload;
                let b: Vec<f32> = (0..len).map(|i| 1.5 - (i as f32) * 0.125).collect();
                assert_eq!(
                    dot8(&a, &b).to_bits(),
                    payload.to_bits(),
                    "lone NaN at {pos}/{len}"
                );
            }
        }
    }

    #[test]
    fn reduce_uses_the_fixed_pairwise_tree() {
        // 1e8 + 1 rounds back to 1e8 in f32, so a left-to-right fold
        // loses both ones while the pairwise tree cancels the large
        // lanes first and keeps them.
        let acc = [1.0e8, 1.0, -1.0e8, 1.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(reduce(acc), 2.0);
        assert_eq!(acc.iter().fold(0.0f32, |s, x| s + x), 1.0);
    }

    #[test]
    fn gemm_nt_rows_fills_a_row_offset_window() {
        // A chunk starting at row 4 must hold exactly rows 4..7 of the
        // whole product, across a full panel and a padded one.
        let k = 13;
        let a = Matrix::from_vec(9, k, (0..9 * k).map(|i| (i as f32 * 0.37).sin()).collect());
        let b = Matrix::from_vec(
            11,
            k,
            (0..11 * k).map(|i| (i as f32 * 0.11).cos()).collect(),
        );
        let full = gemm_nt_jobs(&a, &b, 1);
        let mut window = vec![0.0f32; 3 * 11];
        gemm_nt_rows(&a, &Panels::pack(&b), 4, &mut window);
        assert_eq!(bits(&window), bits(&full.as_slice()[4 * 11..7 * 11]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// dot8 against the lane model over random lengths (every tail
        /// and the empty input) drawn from the adversarial pool. Drawn as
        /// index pairs so both operands share a length but not payloads.
        #[test]
        fn dot8_matches_lane_model_bitwise(
            pairs in proptest::collection::vec((0usize..1000, 0usize..1000), 0..64)
        ) {
            let pool = payload_pool();
            let a: Vec<f32> = pairs.iter().map(|&(i, _)| pool[i % pool.len()]).collect();
            let b: Vec<f32> = pairs.iter().map(|&(_, j)| pool[j % pool.len()]).collect();
            prop_assert_eq!(dot8(&a, &b).to_bits(), lane_model(&a, &b).to_bits());
        }

        /// norm_sq is the lane model's self-product, bit for bit.
        #[test]
        fn norm_sq_is_bitwise_self_dot(
            picks in proptest::collection::vec(0usize..1000, 0..64)
        ) {
            let pool = payload_pool();
            let v: Vec<f32> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
            prop_assert_eq!(norm_sq(&v).to_bits(), lane_model(&v, &v).to_bits());
        }

        /// The whole column-panel kernel (full and zero-padded panels,
        /// every k-tail including k = 0) over odd shapes and adversarial
        /// payloads.
        #[test]
        fn gemm_nt_rows_matches_lane_model_bitwise(
            m in 1usize..24,
            n in 1usize..20,
            k in 0usize..40,
            salt in 0usize..1000,
        ) {
            let a = Matrix::from_vec(m, k, adversarial(m * k, salt));
            let b = Matrix::from_vec(n, k, adversarial(n * k, salt + 1));
            let mut got = vec![0.0f32; m * n];
            gemm_nt_rows(&a, &Panels::pack(&b), 0, &mut got);
            let want: Vec<f32> = (0..m)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .map(|(i, j)| lane_model(a.row(i), b.row(j)))
                .collect();
            prop_assert_eq!(bits(&got), bits(&want), "gemm {}x{}x{}", m, n, k);
        }

        /// A sum of squares of finite values is never negative (it may
        /// overflow to +inf, never to NaN or below zero).
        #[test]
        fn norm_sq_of_finite_input_is_never_negative(
            v in proptest::collection::vec(-1.0e20f32..1.0e20, 0..40)
        ) {
            let n = norm_sq(&v);
            prop_assert!(n >= 0.0, "norm_sq = {}", n);
        }
    }

    proptest! {
        /// Equation 1 == Equation 2: the decomposition is exact (up to f32
        /// rounding) for every input — the identity the short-list
        /// accelerator relies on.
        #[test]
        fn decomposed_distance_matches_direct(
            qs in proptest::collection::vec(-10.0f32..10.0, 8 * 4),
            ps in proptest::collection::vec(-10.0f32..10.0, 8 * 6),
        ) {
            let queries = Matrix::from_vec(4, 8, qs);
            let points = Matrix::from_vec(6, 8, ps);
            let d = batch_dist_sq(&queries, &points);
            for i in 0..4 {
                for j in 0..6 {
                    let direct = dist_sq(queries.row(i), points.row(j));
                    let scale = direct.abs().max(1.0);
                    prop_assert!((d.row(i)[j] - direct).abs() / scale < 1e-3,
                        "i={i} j={j}: {} vs {direct}", d.row(i)[j]);
                }
            }
        }

        /// GEMM distributes over scalar multiplication of an operand.
        #[test]
        fn gemm_scales_linearly(
            xs in proptest::collection::vec(-4.0f32..4.0, 6 * 5),
            k in -3.0f32..3.0,
        ) {
            let a = Matrix::from_vec(6, 5, xs.clone());
            let b = Matrix::from_vec(3, 5, xs[..15].to_vec());
            let scaled = Matrix::from_vec(6, 5, xs.iter().map(|x| x * k).collect());
            let c1 = gemm_nt(&scaled, &b);
            let c0 = gemm_nt(&a, &b);
            for i in 0..6 {
                for j in 0..3 {
                    let want = c0.row(i)[j] * k;
                    prop_assert!((c1.row(i)[j] - want).abs() < 1e-2 * want.abs().max(1.0));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The sequential panel kernels against their scalar routines, bit
        /// for bit, on every panel position (full and padded panels, and
        /// panels inside and after the interleaved blocks) and every `k`
        /// from 1, over adversarial payloads and over finite values whose
        /// rounding depends on the order of the adds: `dists` is `dist_sq`
        /// in either operand order, and `seq_dots` is the scalar `.sum()`
        /// of the products up to the sign of a zero.
        #[test]
        fn sequential_panel_kernels_match_scalar_bitwise(
            n in 1usize..60,
            k in 1usize..40,
            salt in 0usize..1000,
            finite in any::<bool>(),
        ) {
            let values = |len: usize, salt: usize| -> Vec<f32> {
                if finite {
                    let mut rng = reach_sim::rng::seeded(salt as u64);
                    (0..len).map(|_| rand::Rng::gen_range(&mut rng, -100.0f32..100.0)).collect()
                } else {
                    adversarial(len, salt)
                }
            };
            let b = Matrix::from_vec(n, k, values(n * k, salt));
            let y = values(k, salt + 5);
            let panels = Panels::pack(&b);
            let (mut dists, mut dots) = (Vec::new(), Vec::new());
            panels.dists(&y, |p, d| {
                assert_eq!(p * PANEL, dists.len());
                dists.extend(d);
            });
            panels.seq_dots(&y, |_, d| dots.extend(d));
            prop_assert_eq!(dists.len(), n.div_ceil(PANEL) * PANEL);
            for j in 0..n {
                let want = dist_sq(b.row(j), &y);
                prop_assert_eq!(dists[j].to_bits(), want.to_bits(), "dists col {}", j);
                prop_assert_eq!(dist_sq(&y, b.row(j)).to_bits(), want.to_bits());
                let sum: f32 = b.row(j).iter().zip(&y).map(|(p, v)| p * v).sum();
                let same = dots[j].to_bits() == sum.to_bits()
                    || (dots[j] == 0.0 && sum == 0.0);
                prop_assert!(same, "seq_dots col {}: {} vs {}", j, dots[j], sum);
            }
        }
    }

    #[test]
    fn nearest_never_picks_a_padding_column() {
        // Three codewords far from the origin: the zero padding columns of
        // their panel sit at distance 0 from a zero query and must lose.
        let b = Matrix::from_vec(3, 2, vec![5.0, 5.0, -4.0, 3.0, 9.0, 0.0]);
        let panels = Panels::pack(&b);
        assert_eq!(panels.nearest(&[0.0, 0.0]), 1);
        // Nothing below +inf: index 0, as the scalar scan.
        let nan = Matrix::from_vec(3, 2, vec![f32::NAN; 6]);
        assert_eq!(Panels::pack(&nan).nearest(&[0.0, 0.0]), 0);
    }

    /// The sequential scan [`ArgMin`] must reproduce: strict `<` from
    /// `(0, +inf)`, columns in index order.
    fn scan_argmin(row: &[f32]) -> (usize, f32) {
        let (mut best, mut best_d) = (0usize, f32::INFINITY);
        for (j, &d) in row.iter().enumerate() {
            if d < best_d {
                best = j;
                best_d = d;
            }
        }
        (best, best_d)
    }

    /// [`ArgMin`] over `row`, the last panel padded with NaN the way the
    /// k-means assignment pads it.
    fn lane_argmin(row: &[f32]) -> (usize, f32) {
        let mut am = ArgMin::new();
        for chunk in row.chunks(PANEL) {
            let mut d = [f32::NAN; PANEL];
            d[..chunk.len()].copy_from_slice(chunk);
            am = am.push(d);
        }
        am.finish()
    }

    #[test]
    fn argmin_of_rows_with_nothing_below_infinity_is_zero_infinity() {
        for k in 1..=70 {
            for fill in [f32::NAN, canonical_nan(), f32::INFINITY] {
                let (j, d) = lane_argmin(&vec![fill; k]);
                assert_eq!((j, d.to_bits()), (0, f32::INFINITY.to_bits()), "k {k}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The 8-lane argmin equals the strict-`<` scan, index and value
        /// bits, on rows of 1 to 70 columns drawn from NaN, signed zeros,
        /// repeated values and infinities.
        #[test]
        fn argmin_matches_sequential_scan_bitwise(
            picks in proptest::collection::vec(0usize..1000, 1..71)
        ) {
            let pool = [
                f32::NAN, -0.0, 0.0, 1.0, 1.0, -2.0, -2.0, f32::INFINITY,
                f32::NEG_INFINITY, 3.5, f32::MAX, f32::from_bits(1),
            ];
            let row: Vec<f32> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
            let (want_j, want_d) = scan_argmin(&row);
            let (got_j, got_d) = lane_argmin(&row);
            prop_assert_eq!((got_j, got_d.to_bits()), (want_j, want_d.to_bits()));
        }
    }
}
