//! K-means clustering (k-means++ initialization + Lloyd iterations).
//!
//! The paper preprocesses the database "with k-means to obtain 1000 cluster
//! centroids" during the offline stage; this is that stage.

use crate::linalg::{dist_sq, norm_sq, ArgMin, Matrix, Panels, PANEL};
use rand::Rng;

/// Result of a clustering run.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// `k x d` centroid matrix.
    pub centroids: Matrix,
    /// Cluster index of each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids after the last
    /// iteration.
    pub inertia: f64,
    /// Lloyd iterations actually executed.
    pub iterations: usize,
}

/// Runs k-means++ then Lloyd's algorithm until convergence or `max_iters`.
///
/// # Example
///
/// ```
/// use reach_cbir::linalg::Matrix;
/// use reach_cbir::kmeans::kmeans;
///
/// // Two obvious groups on a line.
/// let pts = Matrix::from_vec(4, 1, vec![0.0, 0.1, 10.0, 10.1]);
/// let c = kmeans(&pts, 2, 10, &mut reach_sim::rng::seeded(1));
/// assert_eq!(c.assignments[0], c.assignments[1]);
/// assert_ne!(c.assignments[0], c.assignments[2]);
/// ```
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of points.
#[must_use]
pub fn kmeans(points: &Matrix, k: usize, max_iters: usize, rng: &mut impl Rng) -> Clustering {
    let seeds = seed(points, k, rng);
    lloyd(points, seeds, max_iters)
}

/// [`kmeans`] of every point set in `sets`, each into `k` clusters, with
/// an explicit worker count. Every set is seeded first, in order, from
/// `rng` (seeding is the only part that draws from it, so the draws are
/// exactly those of calling [`kmeans`] on each set in turn); then each
/// set's Lloyd loop runs as one work item of [`crate::par::run_items`].
/// A Lloyd loop is a pure function of its set and seeds, so the result is
/// bit-identical at any worker count. Exposed (hidden) so the determinism
/// suite can prove it.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of points of a set.
#[doc(hidden)]
#[must_use]
pub fn kmeans_each_jobs(
    sets: &[Matrix],
    k: usize,
    max_iters: usize,
    rng: &mut impl Rng,
    jobs: usize,
) -> Vec<Clustering> {
    let seeds: Vec<Matrix> = sets.iter().map(|points| seed(points, k, rng)).collect();
    let mut out: Vec<Option<Clustering>> = vec![None; sets.len()];
    let items: Vec<_> = out.iter_mut().zip(sets).zip(seeds).collect();
    crate::par::run_items(items, jobs, |((slot, points), seeds)| {
        *slot = Some(lloyd(points, seeds, max_iters));
    });
    out.into_iter()
        .map(|c| c.expect("every set clustered"))
        .collect()
}

/// k-means++ seeding: the `k x d` initial centroids.
///
/// The points are packed once into [`Panels`], and each new centroid's
/// squared distances come from [`Panels::dists`], eight points side by
/// side, each bitwise the scalar `dist_sq(point, centroid)`.
fn seed(points: &Matrix, k: usize, rng: &mut impl Rng) -> Matrix {
    let n = points.rows();
    let d = points.cols();
    assert!(k > 0 && k <= n, "kmeans: k={k} out of range for {n} points");
    let panels = Panels::pack(points);
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(points.row(first));
    // Padded to whole panels; the padding entries are never read.
    let mut d2 = vec![0.0f32; n.div_ceil(PANEL) * PANEL];
    panels.dists(points.row(first), |p, d| {
        d2[p * PANEL..(p + 1) * PANEL].copy_from_slice(&d);
    });
    for c in 1..k {
        let total: f64 = d2[..n].iter().map(|&x| f64::from(x)).sum();
        let chosen = if total <= f64::EPSILON {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = n - 1;
            for (i, &x) in d2[..n].iter().enumerate() {
                target -= f64::from(x);
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        let chosen = points.row(chosen);
        centroids.row_mut(c).copy_from_slice(chosen);
        panels.dists(chosen, |p, nd| {
            for (best, nd) in d2[p * PANEL..(p + 1) * PANEL].iter_mut().zip(nd) {
                *best = if nd < *best { nd } else { *best };
            }
        });
    }
    centroids
}

/// Decomposed distances `||p||^2 + ||c||^2 - 2<p, c>` of one point to a
/// panel of centroids. Padding columns carry a NaN norm, so their
/// distance is NaN and never wins the argmin.
#[inline(always)]
fn decomposed(p_norm: f32, c_norms: &[f32], dots: [f32; PANEL]) -> [f32; PANEL] {
    let mut d = [0.0f32; PANEL];
    for ((d, &cn), dot) in d.iter_mut().zip(c_norms).zip(dots) {
        *d = p_norm + cn - 2.0 * dot;
    }
    d
}

/// The nearest centroid of every point and its decomposed distance.
/// Points of up to eight dimensions run the fused [`assign_small`];
/// wider ones the general [`assign_general`]. Both produce the same
/// bits for the same inputs.
fn assign(
    points: &Matrix,
    p_norms: &[f32],
    panels: &Panels,
    c_norms: &[f32],
    assignments: &mut [usize],
    best_dists: &mut [f32],
) {
    let kernel = match points.cols() {
        1 => assign_small::<1>,
        2 => assign_small::<2>,
        3 => assign_small::<3>,
        4 => assign_small::<4>,
        5 => assign_small::<5>,
        6 => assign_small::<6>,
        7 => assign_small::<7>,
        8 => assign_small::<8>,
        _ => assign_general,
    };
    kernel(points, p_norms, panels, c_norms, assignments, best_dists);
}

/// [`assign`] for `D`-dimensional points, `D <= 8`: each centroid panel's
/// dots ([`Panels::small_dots`]), the decomposed distances and the running
/// argmin stay in registers, with no dots buffer in between.
fn assign_small<const D: usize>(
    points: &Matrix,
    p_norms: &[f32],
    panels: &Panels,
    c_norms: &[f32],
    assignments: &mut [usize],
    best_dists: &mut [f32],
) {
    for (i, (slot, dist)) in assignments
        .iter_mut()
        .zip(best_dists.iter_mut())
        .enumerate()
    {
        let x: &[f32; D] = points.row(i).try_into().expect("a D-column row");
        let p_norm = p_norms[i];
        let mut argmin = ArgMin::new();
        for (cn, dots) in c_norms.chunks_exact(PANEL).zip(panels.small_dots(x)) {
            argmin = argmin.push(decomposed(p_norm, cn, dots));
        }
        (*slot, *dist) = argmin.finish();
    }
}

/// [`assign`] for points of any dimension, one point at a time through
/// every centroid panel of [`Panels::row_dots`].
fn assign_general(
    points: &Matrix,
    p_norms: &[f32],
    panels: &Panels,
    c_norms: &[f32],
    assignments: &mut [usize],
    best_dists: &mut [f32],
) {
    let mut dots = vec![0.0f32; c_norms.len()];
    for (i, (slot, dist)) in assignments
        .iter_mut()
        .zip(best_dists.iter_mut())
        .enumerate()
    {
        panels.row_dots(points.row(i), &mut dots);
        let p_norm = p_norms[i];
        let mut argmin = ArgMin::new();
        for (dots, cn) in dots.chunks_exact(PANEL).zip(c_norms.chunks_exact(PANEL)) {
            let dots = dots.try_into().expect("whole panel");
            argmin = argmin.push(decomposed(p_norm, cn, dots));
        }
        (*slot, *dist) = argmin.finish();
    }
}

/// Lloyd's iterations from `centroids` until convergence or `max_iters`.
/// Draws nothing from an RNG.
///
/// The assignment is the decomposed distance (Equation 1) fused with the
/// column-panel GEMM kernel: point norms are computed once, the centroids
/// are packed once per iteration, and each point streams through the
/// panels keeping an 8-lane running argmin. Every dot and norm uses the
/// kernel's single accumulation order and the argmin is the strict-`<`
/// scan in centroid order, so the clustering is a pure function of the
/// inputs.
#[allow(clippy::needless_range_loop)] // parallel-indexed arrays; enumerate obscures
fn lloyd(points: &Matrix, mut centroids: Matrix, max_iters: usize) -> Clustering {
    let n = points.rows();
    let d = points.cols();
    let k = centroids.rows();
    assert!(
        u32::try_from(k).is_ok(),
        "kmeans: k={k} overflows the argmin's u32 column indices"
    );
    let p_norms: Vec<f32> = (0..n).map(|i| norm_sq(points.row(i))).collect();
    let mut assignments = vec![0usize; n];
    let mut best_dists = vec![0.0f32; n];
    // Padding columns of the last panel get a NaN norm: their distance is
    // NaN, which never wins the strict `<`.
    let mut c_norms = vec![f32::NAN; k.div_ceil(PANEL) * PANEL];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    for it in 0..max_iters {
        iterations = it + 1;
        // Assign.
        let panels = Panels::pack(&centroids);
        for c in 0..k {
            c_norms[c] = norm_sq(centroids.row(c));
        }
        assign(
            points,
            &p_norms,
            &panels,
            &c_norms,
            &mut assignments,
            &mut best_dists,
        );
        // Reduce in point order.
        let mut new_inertia = 0.0f64;
        for &bd in &best_dists {
            new_inertia += f64::from(bd);
        }
        // Update.
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0usize; k];
        for i in 0..n {
            let c = assignments[i];
            counts[c] += 1;
            for (s, &x) in sums[c * d..(c + 1) * d].iter_mut().zip(points.row(i)) {
                *s += f64::from(x);
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster on the farthest point (the last
                // one on ties), measured against the centroids as updated
                // so far.
                let (far, _) = (0..n)
                    .map(|i| (i, dist_sq(points.row(i), centroids.row(assignments[i]))))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN distances"))
                    .expect("non-empty dataset");
                centroids.row_mut(c).copy_from_slice(points.row(far));
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            for (dst, s) in centroids
                .row_mut(c)
                .iter_mut()
                .zip(&sums[c * d..(c + 1) * d])
            {
                *dst = (s * inv) as f32;
            }
        }
        // Converged?
        if (inertia - new_inertia).abs() <= 1e-6 * new_inertia.max(1.0) {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }

    Clustering {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::tests::{adversarial, bits};
    use proptest::prelude::*;
    use rand::RngCore;
    use reach_sim::rng::seeded;

    /// The scalar k-means++ seeding the panel version replaced: one
    /// `dist_sq` per point and centroid.
    fn seed_scalar(points: &Matrix, k: usize, rng: &mut impl Rng) -> Matrix {
        let n = points.rows();
        let mut centroids = Matrix::zeros(k, points.cols());
        let first = rng.gen_range(0..n);
        centroids.row_mut(0).copy_from_slice(points.row(first));
        let mut d2: Vec<f32> = (0..n)
            .map(|i| dist_sq(points.row(i), centroids.row(0)))
            .collect();
        for c in 1..k {
            let total: f64 = d2.iter().map(|&x| f64::from(x)).sum();
            let chosen = if total <= f64::EPSILON {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut pick = n - 1;
                for (i, &x) in d2.iter().enumerate() {
                    target -= f64::from(x);
                    if target <= 0.0 {
                        pick = i;
                        break;
                    }
                }
                pick
            };
            let chosen = points.row(chosen);
            centroids.row_mut(c).copy_from_slice(chosen);
            for (i, best) in d2.iter_mut().enumerate() {
                let nd = dist_sq(points.row(i), chosen);
                *best = if nd < *best { nd } else { *best };
            }
        }
        centroids
    }

    /// `n x d` seeding inputs of one of four shapes: continuous values,
    /// a coarse grid (duplicate rows and tied distances), one point
    /// repeated (every distance zero, so every draw after the first takes
    /// the `total <= EPSILON` branch), and three distinct rows repeated
    /// (the branch fires once they are all chosen).
    fn seeding_points(n: usize, d: usize, shape: usize, salt: u64) -> Matrix {
        let mut rng = seeded(salt);
        let distinct: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..d).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        let data = (0..n)
            .flat_map(|i| match shape {
                0 => (0..d).map(|_| rng.gen_range(-5.0f32..5.0)).collect(),
                1 => (0..d)
                    .map(|_| f32::from(rng.gen_range(0u8..3)) - 1.0)
                    .collect(),
                2 => distinct[0].clone(),
                _ => distinct[i % 3].clone(),
            })
            .collect();
        Matrix::from_vec(n, d, data)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Panel seeding against the scalar seeding: the same centroid
        /// bits, and the same random stream left behind (the next draw).
        #[test]
        fn seeding_matches_scalar_seeding_bitwise(
            d in 1usize..41,
            k in 1usize..71,
            extra in 0usize..40,
            shape in 0usize..4,
            salt in 0u64..1000,
        ) {
            let points = seeding_points(k + extra, d, shape, salt);
            let (mut fast_rng, mut scalar_rng) = (seeded(salt + 1), seeded(salt + 1));
            let fast = seed(&points, k, &mut fast_rng);
            let scalar = seed_scalar(&points, k, &mut scalar_rng);
            prop_assert_eq!(bits(fast.as_slice()), bits(scalar.as_slice()));
            prop_assert_eq!(fast_rng.next_u64(), scalar_rng.next_u64());
        }

        /// The dispatched assignment (the fused small-`d` kernel for
        /// `d <= 8`) against the general `row_dots` path, assignment and
        /// distance bits, for `d` from 1 to 9 over NaN, signed zeros, ties
        /// and infinities, and full and padded centroid panels.
        #[test]
        fn assignment_matches_the_general_path_bitwise(
            d in 1usize..10,
            k in 1usize..70,
            n in 1usize..40,
            salt in 0usize..1000,
        ) {
            let points = Matrix::from_vec(n, d, adversarial(n * d, salt));
            let centroids = Matrix::from_vec(k, d, adversarial(k * d, salt + 3));
            let p_norms: Vec<f32> = (0..n).map(|i| norm_sq(points.row(i))).collect();
            let mut c_norms = vec![f32::NAN; k.div_ceil(PANEL) * PANEL];
            for (c, cn) in c_norms.iter_mut().take(k).enumerate() {
                *cn = norm_sq(centroids.row(c));
            }
            let panels = Panels::pack(&centroids);
            let (mut got, mut got_d) = (vec![0; n], vec![0.0; n]);
            assign(&points, &p_norms, &panels, &c_norms, &mut got, &mut got_d);
            let (mut want, mut want_d) = (vec![0; n], vec![0.0; n]);
            assign_general(&points, &p_norms, &panels, &c_norms, &mut want, &mut want_d);
            prop_assert_eq!(got, want);
            prop_assert_eq!(bits(&got_d), bits(&want_d));
        }
    }

    #[test]
    fn assignment_of_tied_centroids_takes_the_first() {
        // Duplicate centroids in different panels and lanes: every point
        // is equally near each copy, and the lowest index wins on both
        // paths.
        for d in 1..=9 {
            let row: Vec<f32> = (0..d).map(|t| t as f32 - 1.5).collect();
            let centroids = Matrix::from_vec(20, d, row.repeat(20));
            let points = Matrix::from_vec(2, d, [row.clone(), vec![0.25; d]].concat());
            let p_norms: Vec<f32> = (0..2).map(|i| norm_sq(points.row(i))).collect();
            let mut c_norms = vec![f32::NAN; 24];
            c_norms[..20].fill(norm_sq(&row));
            let panels = Panels::pack(&centroids);
            let (mut got, mut got_d) = (vec![9; 2], vec![0.0; 2]);
            assign(&points, &p_norms, &panels, &c_norms, &mut got, &mut got_d);
            assert_eq!(got, [0, 0], "d {d}");
            assert_eq!(got_d[0], 0.0, "d {d}: self distance");
        }
    }

    /// Three well-separated blobs in 2D.
    fn blobs() -> Matrix {
        let centers = [(-10.0f32, -10.0), (0.0, 10.0), (10.0, -5.0)];
        let mut rng = seeded(7);
        let mut data = Vec::new();
        for &(cx, cy) in &centers {
            for _ in 0..50 {
                data.push(cx + rng.gen_range(-0.5..0.5));
                data.push(cy + rng.gen_range(-0.5..0.5));
            }
        }
        Matrix::from_vec(150, 2, data)
    }

    #[test]
    fn recovers_separated_blobs() {
        let pts = blobs();
        let mut rng = seeded(1);
        let c = kmeans(&pts, 3, 50, &mut rng);
        // All points of one blob share one assignment.
        for blob in 0..3 {
            let first = c.assignments[blob * 50];
            for i in 0..50 {
                assert_eq!(c.assignments[blob * 50 + i], first, "blob {blob} split");
            }
        }
        // Tight inertia: every point within 1.0 of its centroid.
        assert!(c.inertia / 150.0 < 1.0, "inertia {}", c.inertia);
        assert!(c.iterations >= 1);
    }

    #[test]
    fn inertia_never_increases_with_more_clusters() {
        let pts = blobs();
        let i2 = kmeans(&pts, 2, 50, &mut seeded(3)).inertia;
        let i3 = kmeans(&pts, 3, 50, &mut seeded(3)).inertia;
        let i8 = kmeans(&pts, 8, 50, &mut seeded(3)).inertia;
        assert!(i3 <= i2 * 1.01, "i3 {i3} vs i2 {i2}");
        assert!(i8 <= i3 * 1.01, "i8 {i8} vs i3 {i3}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = blobs();
        let a = kmeans(&pts, 3, 20, &mut seeded(9));
        let b = kmeans(&pts, 3, 20, &mut seeded(9));
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids.as_slice(), b.centroids.as_slice());
    }

    #[test]
    fn k_equals_n_zero_inertia() {
        let pts = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 5.0, 5.0]);
        let c = kmeans(&pts, 4, 10, &mut seeded(2));
        assert!(c.inertia < 1e-9, "inertia {}", c.inertia);
    }

    #[test]
    fn empty_clusters_reseed_on_the_last_farthest_point() {
        // Seven centroids over five distinct points (14 points in all):
        // k-means++ must repeat a point, the repeated centroid loses
        // every tie, and its empty cluster re-seeds on the farthest
        // point — all distances are zero, so the last one. The bits are
        // pinned from the implementation before the Lloyd split.
        let base = [
            (0.0f32, 0.0f32),
            (1.0, 0.0),
            (0.0, 1.0),
            (5.0, 5.0),
            (5.0, 6.5),
        ];
        let mut data = Vec::new();
        for rep in 0..3 {
            for (i, &(x, y)) in base.iter().enumerate() {
                if !(rep == 2 && i == 1) {
                    data.extend([x, y]);
                }
            }
        }
        let pts = Matrix::from_vec(14, 2, data);
        let pinned: [(u64, [u32; 14], [usize; 14]); 3] = [
            (
                1,
                [
                    1084227584, 1084227584, 1065353216, 0, 0, 0, 0, 1065353216, 1084227584,
                    1087373312, 1084227584, 1087373312, 1084227584, 1087373312,
                ],
                [2, 1, 3, 0, 4, 2, 1, 3, 0, 4, 2, 3, 0, 4],
            ),
            (
                2,
                [
                    1084227584, 1087373312, 1065353216, 0, 0, 1065353216, 0, 0, 1084227584,
                    1084227584, 1084227584, 1087373312, 1084227584, 1087373312,
                ],
                [3, 1, 2, 4, 0, 3, 1, 2, 4, 0, 3, 2, 4, 0],
            ),
            (
                3,
                [
                    1065353216, 0, 1084227584, 1087373312, 1084227584, 1084227584, 0, 0, 0,
                    1065353216, 1084227584, 1087373312, 1084227584, 1087373312,
                ],
                [3, 0, 4, 2, 1, 3, 0, 4, 2, 1, 3, 4, 2, 1],
            ),
        ];
        for (seed, centroid_bits, assignments) in pinned {
            let c = kmeans(&pts, 7, 10, &mut seeded(seed));
            let bits: Vec<u32> = c.centroids.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, centroid_bits, "seed {seed}");
            assert_eq!(c.assignments, assignments, "seed {seed}");
            assert_eq!(c.inertia.to_bits(), 0, "seed {seed}");
            assert_eq!(c.iterations, 2, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_larger_than_n_rejected() {
        let pts = Matrix::zeros(3, 2);
        let _ = kmeans(&pts, 4, 10, &mut seeded(0));
    }
}
