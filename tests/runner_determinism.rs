//! The runner-layer contract, end to end: fanning scenarios across threads
//! must be unobservable in the results. A mixed batch of figure-8,
//! figure-13 and ablation scenarios is executed sequentially, with one
//! worker, and with four workers — every report must come back in
//! submission order and render byte-identically.

use reach::{MachineBlueprint, Scenario, ScenarioExecutor, SequentialExecutor, SimDuration};
use reach_bench::ScenarioRunner;
use reach_cbir::{blueprint_with, CbirMapping, CbirPipeline, CbirScenario, CbirWorkload};

/// The mixed batch: fig8's on-chip energy point, fig13's four end-to-end
/// mappings, and a poll-interval ablation point on a modified machine.
fn mixed_batch() -> Vec<Box<dyn Scenario>> {
    let w = CbirWorkload::paper_setup();
    let mut batch: Vec<Box<dyn Scenario>> = vec![Box::new(CbirScenario::full(
        "fig8/on-chip",
        blueprint_with(4, 4),
        CbirPipeline::new(w, CbirMapping::AllOnChip),
        1,
    ))];
    for mapping in CbirMapping::ALL {
        batch.push(Box::new(CbirScenario::full(
            format!("fig13/{}", mapping.name()),
            blueprint_with(4, 4),
            CbirPipeline::new(w, mapping),
            8,
        )));
    }
    let coarse_poll = MachineBlueprint::paper()
        .map_config(|cfg| cfg.gam.min_poll_interval = SimDuration::from_ms(5));
    batch.push(Box::new(CbirScenario::full(
        "ablation/poll-5ms",
        coarse_poll,
        CbirPipeline::new(w, CbirMapping::Proper),
        4,
    )));
    batch
}

fn rendered(results: &[reach::ScenarioResult]) -> Vec<(String, String)> {
    results
        .iter()
        .map(|r| (r.label.clone(), r.report.to_string()))
        .collect()
}

#[test]
fn parallel_runner_is_byte_identical_to_sequential() {
    let reference = rendered(&SequentialExecutor.run_all(mixed_batch()));
    let one_worker = rendered(&ScenarioRunner::new(1).run_all(mixed_batch()));
    let four_workers = rendered(&ScenarioRunner::new(4).run_all(mixed_batch()));

    assert_eq!(reference.len(), mixed_batch().len());
    assert_eq!(reference, one_worker, "one worker diverged from sequential");
    assert_eq!(
        reference, four_workers,
        "four workers diverged from sequential"
    );
}

#[test]
fn repeated_parallel_runs_replay_bit_for_bit() {
    let first = rendered(&ScenarioRunner::new(4).run_all(mixed_batch()));
    let second = rendered(&ScenarioRunner::new(4).run_all(mixed_batch()));
    assert_eq!(first, second);
}

#[test]
fn rendered_figures_match_across_job_counts() {
    let seq = SequentialExecutor;
    let par = ScenarioRunner::new(4);
    for (name, render) in [
        (
            "fig8",
            reach_bench::render_fig8 as fn(&dyn ScenarioExecutor) -> String,
        ),
        ("fig13", reach_bench::render_fig13),
        ("ablation-poll", reach_bench::render_ablation_poll),
        ("extension-corun", reach_bench::render_extension_corun),
    ] {
        assert_eq!(
            render(&seq),
            render(&par),
            "{name} differs across job counts"
        );
    }
}

#[test]
fn graph_suites_render_byte_identically_across_jobs_and_cache_modes() {
    // The in-process form of CI's graph determinism step: the placement
    // sweep and the co-run contention suite must render the same bytes
    // sequentially, at 1/4/8 workers, with the result cache disabled, and
    // on a warm cache replay.
    for (name, render) in [
        (
            "extension-graph",
            reach_bench::render_extension_graph as fn(&dyn ScenarioExecutor) -> String,
        ),
        (
            "extension-graph-corun",
            reach_bench::render_extension_graph_corun,
        ),
    ] {
        let reference = render(&SequentialExecutor);
        assert!(!reference.is_empty());
        for jobs in [1, 4, 8] {
            assert_eq!(
                reference,
                render(&ScenarioRunner::new(jobs)),
                "{name} diverged at {jobs} jobs"
            );
            assert_eq!(
                reference,
                render(&ScenarioRunner::without_cache(jobs)),
                "{name} diverged with the cache off at {jobs} jobs"
            );
        }
        let runner = ScenarioRunner::new(4);
        let cold = render(&runner);
        let warm = render(&runner);
        assert_eq!(cold, warm, "{name} warm cache replay diverged");
        assert_eq!(reference, warm, "{name} cached pass diverged");
    }
}

/// Every renderer's output, concatenated in registration order — the exact
/// stdout the `experiments` binary produces for a full run.
fn full_suite_stdout(executor: &dyn ScenarioExecutor) -> String {
    let mut out = String::new();
    for (i, (_, render)) in reach_bench::renderers().iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render(executor));
    }
    out
}

#[test]
fn full_suite_stdout_is_byte_identical_at_jobs_1_4_8() {
    // The whole experiments suite — every registered renderer, including
    // the graph and co-run extensions — diffed across --jobs levels. Any
    // scheduling leak anywhere in the engine, the runner or the kernels
    // shows up here.
    let reference = full_suite_stdout(&SequentialExecutor);
    assert!(!reference.is_empty());
    for jobs in [4, 8] {
        let parallel = full_suite_stdout(&ScenarioRunner::new(jobs));
        assert_eq!(reference, parallel, "full suite diverged at {jobs} jobs");
    }
}

#[test]
fn full_suite_stdout_is_byte_identical_with_and_without_result_cache() {
    // The result-cache contract, end to end: replaying stored reports —
    // across figures sharing configurations, and across whole repeated
    // passes — must be unobservable in stdout at any job count, and the
    // hit/miss accounting must not depend on worker scheduling either.
    let reference = full_suite_stdout(&ScenarioRunner::without_cache(4));
    assert!(!reference.is_empty());
    let mut stats = Vec::new();
    for jobs in [1, 4, 8] {
        let cached = ScenarioRunner::new(jobs);
        let cold = full_suite_stdout(&cached);
        assert_eq!(
            reference, cold,
            "cache-on cold pass diverged at {jobs} jobs"
        );
        let warm = full_suite_stdout(&cached);
        assert_eq!(reference, warm, "cache replay diverged at {jobs} jobs");
        stats.push(cached.cache_stats());
    }
    assert_eq!(stats[0], stats[1], "hit/miss counts depend on job count");
    assert_eq!(stats[1], stats[2], "hit/miss counts depend on job count");
    assert!(stats[0].misses > 0, "first pass must simulate");
    assert!(
        stats[0].hits > stats[0].misses,
        "the warm pass plus in-suite repeats should replay more than they simulate \
         (got {} hits / {} misses)",
        stats[0].hits,
        stats[0].misses
    );
}

mod kernel_chunking {
    //! Parallel kernels must be *bit-for-bit* equal to their sequential
    //! form at any worker count — the engine-level determinism contract
    //! rests on it.

    use proptest::prelude::*;
    use reach_cbir::kmeans::kmeans_each_jobs;
    use reach_cbir::linalg::{gemm_nt_jobs, Matrix};
    use reach_sim::rng::seeded;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// GEMM row-chunking: sequential vs many workers, exact equality
        /// on shapes that straddle chunk boundaries.
        #[test]
        fn gemm_parallel_matches_sequential_bitwise(
            m in 1usize..200,
            n in 1usize..40,
            k in 1usize..24,
            jobs in 2usize..9,
            seedling in 0u64..1000,
        ) {
            let fill = |len: usize, salt: u64| -> Vec<f32> {
                (0..len)
                    .map(|i| {
                        let x = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt * 7919);
                        ((x % 2003) as f32 - 1001.0) / 97.0
                    })
                    .collect()
            };
            let a = Matrix::from_vec(m, k, fill(m * k, seedling));
            let b = Matrix::from_vec(n, k, fill(n * k, seedling + 1));
            let seq = gemm_nt_jobs(&a, &b, 1);
            let par = gemm_nt_jobs(&a, &b, jobs);
            prop_assert_eq!(
                seq.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }

        /// Per-set Lloyd loops across workers: every clustering
        /// (assignments, centroids, inertia, iterations) of a batch of
        /// point sets is identical at any worker count.
        #[test]
        fn kmeans_parallel_matches_sequential_bitwise(
            n in 8usize..300,
            d in 1usize..8,
            k_frac in 1usize..8,
            sets in 1usize..6,
            jobs in 2usize..9,
            seedling in 0u64..1000,
        ) {
            let k = (n / k_frac).max(1);
            let point_sets: Vec<Matrix> = (0..sets as u64)
                .map(|s| {
                    Matrix::from_vec(
                        n,
                        d,
                        (0..n * d)
                            .map(|i| {
                                let x = (i as u64)
                                    .wrapping_mul(0x9E37_79B9)
                                    .wrapping_add(seedling + s * 7919);
                                ((x % 4001) as f32 - 2000.0) / 131.0
                            })
                            .collect(),
                    )
                })
                .collect();
            let seq = kmeans_each_jobs(&point_sets, k, 10, &mut seeded(seedling), 1);
            let par = kmeans_each_jobs(&point_sets, k, 10, &mut seeded(seedling), jobs);
            prop_assert_eq!(seq.len(), sets);
            for (seq, par) in seq.iter().zip(&par) {
                prop_assert_eq!(&seq.assignments, &par.assignments);
                prop_assert_eq!(
                    seq.centroids.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    par.centroids.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
                prop_assert_eq!(seq.inertia.to_bits(), par.inertia.to_bits());
                prop_assert_eq!(seq.iterations, par.iterations);
            }
        }

        /// The column-panel kernel agrees bit-for-bit with a scalar model
        /// of its accumulation contract: lane `l` of an 8-lane
        /// accumulator sums products at `t ≡ l (mod 8)` in order, then
        /// the lanes fold pairwise. Full and zero-padded 8-column panels
        /// and every chunking must all match it.
        #[test]
        fn micro_kernel_matches_lane_model_bitwise(
            m in 1usize..40,
            n in 1usize..24,
            k in 1usize..40,
            jobs in 1usize..9,
            seedling in 0u64..1000,
        ) {
            let fill = |len: usize, salt: u64| -> Vec<f32> {
                (0..len)
                    .map(|i| {
                        let x = (i as u64).wrapping_mul(0xDEAD_BEEF).wrapping_add(salt);
                        ((x % 509) as f32 - 254.0) / 31.0
                    })
                    .collect()
            };
            let a = Matrix::from_vec(m, k, fill(m * k, seedling));
            let b = Matrix::from_vec(n, k, fill(n * k, seedling + 1));
            let got = gemm_nt_jobs(&a, &b, jobs);
            for i in 0..m {
                for j in 0..n {
                    let mut lanes = [0.0f32; 8];
                    for (t, (x, y)) in a.row(i).iter().zip(b.row(j)).enumerate() {
                        lanes[t % 8] += x * y;
                    }
                    let q = [
                        lanes[0] + lanes[4],
                        lanes[1] + lanes[5],
                        lanes[2] + lanes[6],
                        lanes[3] + lanes[7],
                    ];
                    let want = (q[0] + q[2]) + (q[1] + q[3]);
                    prop_assert_eq!(got.row(i)[j].to_bits(), want.to_bits(),
                        "({}, {}): {} vs {}", i, j, got.row(i)[j], want);
                }
            }
        }

        /// Row-chunking stays bit-exact on non-finite and subnormal
        /// payloads too: row counts straddle the 64-row chunk boundary
        /// and operands cycle through signed zeros, subnormals,
        /// infinities and one quiet NaN, so NaNs and infinities cross
        /// every chunk edge. Only the NaN that 0·∞ and ∞−∞ produce on
        /// this architecture is used, so every NaN in flight has the
        /// same bits and no result depends on operand order.
        #[test]
        fn gemm_chunking_is_bitwise_on_non_finite_payloads(
            m in 1usize..150,
            n in 1usize..14,
            k in 1usize..24,
            jobs in 2usize..9,
            salt in 0usize..1000,
        ) {
            #[cfg(target_arch = "x86_64")]
            let nan = f32::from_bits(0xffc0_0000);
            #[cfg(not(target_arch = "x86_64"))]
            let nan = f32::from_bits(0x7fc0_0000);
            let pool = [
                0.0, -0.0, 1.0, -3.5, 1.0e-3, f32::MAX, f32::MIN_POSITIVE,
                f32::MIN_POSITIVE / 4.0, f32::INFINITY, f32::NEG_INFINITY, nan,
            ];
            let fill = |len: usize, salt: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| pool[i.wrapping_mul(7).wrapping_add(salt) % pool.len()])
                    .collect()
            };
            let a = Matrix::from_vec(m, k, fill(m * k, salt));
            let b = Matrix::from_vec(n, k, fill(n * k, salt + 1));
            let seq = gemm_nt_jobs(&a, &b, 1);
            let par = gemm_nt_jobs(&a, &b, jobs);
            prop_assert_eq!(
                seq.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }

        /// Decomposed batch distances (GEMM + broadcast norms) are
        /// bit-identical at any worker count — the short-list stage's
        /// output cannot depend on REACH_KERNEL_JOBS.
        #[test]
        fn batch_dist_parallel_matches_sequential_bitwise(
            nq in 1usize..150,
            np in 1usize..40,
            d in 1usize..24,
            seedling in 0u64..1000,
        ) {
            let fill = |len: usize, salt: u64| -> Vec<f32> {
                (0..len)
                    .map(|i| {
                        let x = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt);
                        ((x % 2003) as f32 - 1001.0) / 97.0
                    })
                    .collect()
            };
            let q = Matrix::from_vec(nq, d, fill(nq * d, seedling));
            let p = Matrix::from_vec(np, d, fill(np * d, seedling + 1));
            // batch_dist_sq reads REACH_KERNEL_JOBS via gemm_nt; emulate
            // both paths through the explicit-jobs entry point instead of
            // mutating the environment.
            let dots_seq = gemm_nt_jobs(&q, &p, 1);
            let dots_par = gemm_nt_jobs(&q, &p, 7);
            prop_assert_eq!(
                dots_seq.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                dots_par.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let direct = reach_cbir::linalg::batch_dist_sq(&q, &p);
            prop_assert_eq!((direct.rows(), direct.cols()), (nq, np));
        }
    }
}
