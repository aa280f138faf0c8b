//! Algorithm 1: the bubble-free pipeline planner.
//!
//! Model (Fig. 9 of the paper): a denoising step runs `N` transformer
//! blocks in order on the *compute stream* while cached activations
//! move host→HBM on the *copy stream*. For each block the planner
//! chooses:
//!
//! - **use cache**: pay `load` on the copy stream (loads serialize and
//!   can be issued eagerly, ahead of the compute stream) and
//!   `compute_cached` on the compute stream, which may stall until the
//!   block's load completes; or
//! - **skip cache**: pay `compute_full` on the compute stream with no
//!   load at all.
//!
//! The objective is the compute stream's finish time. When per-block
//! costs are uniform (the common case: every block of a model has the
//! same shape) the optimum has a closed form: compute the first `N − j`
//! blocks in full and cache the last `j`, for the best `j` — an O(N)
//! scan ([`plan_uniform`]), the paper's O(N) planner. For heterogeneous
//! costs a Pareto-frontier DP over `(compute_finish, load_finish)`
//! states is used.

use fps_simtime::SimDuration;

use crate::error::CacheError;
use crate::Result;

/// Per-block latencies the planner chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCosts {
    /// Compute latency when consuming cached activations (masked tokens
    /// only) — `C_w^m` in Algorithm 1.
    pub compute_cached: SimDuration,
    /// Compute latency without cache (all tokens) — `C_w/o`.
    pub compute_full: SimDuration,
    /// Host→HBM load latency of the block's cached activations — `L^m`.
    pub load: SimDuration,
}

/// The planner's output: per-block decisions and the resulting pipeline
/// latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinePlan {
    /// `true` → the block consumes cached activations.
    pub use_cache: Vec<bool>,
    /// End-to-end latency of the compute stream under this plan.
    pub latency: SimDuration,
}

/// Algorithm 1's plan under uniform per-block costs: the first `full`
/// blocks compute without cache and the last `cached` consume cached
/// activations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailPlan {
    /// Leading blocks computed without cache.
    pub full: usize,
    /// Trailing blocks that consume cached activations.
    pub cached: usize,
    /// End-to-end latency of the compute stream under this plan.
    pub latency: SimDuration,
}

impl TailPlan {
    /// Number of blocks the plan covers.
    pub fn blocks(&self) -> usize {
        self.full + self.cached
    }

    /// The per-block decisions (`true` → the block consumes cached
    /// activations), for callers that apply the plan block by block.
    pub fn use_cache(&self) -> Vec<bool> {
        let mut decisions = vec![false; self.full];
        decisions.resize(self.blocks(), true);
        decisions
    }
}

/// Compute-stream finish time of blocks run in order with the given
/// decisions. Loads are issued eagerly in block order on the copy
/// stream; block `i`'s compute starts at `max(compute_finish, its
/// load's finish)`.
fn walk<'a>(blocks: impl Iterator<Item = (&'a BlockCosts, bool)>) -> SimDuration {
    let mut compute_finish = SimDuration::ZERO;
    let mut load_finish = SimDuration::ZERO;
    for (c, cached) in blocks {
        if cached {
            load_finish += c.load;
            let start = compute_finish.max(load_finish);
            compute_finish = start + c.compute_cached;
        } else {
            compute_finish += c.compute_full;
        }
    }
    compute_finish
}

/// Evaluates the pipeline latency of a given plan.
///
/// Loads are issued eagerly in block order on the copy stream; block
/// `i`'s compute starts at `max(compute_finish, its load's finish)`.
///
/// # Errors
///
/// Returns [`CacheError::InvalidInput`] when lengths differ.
pub fn simulate_plan(costs: &[BlockCosts], use_cache: &[bool]) -> Result<SimDuration> {
    if costs.len() != use_cache.len() {
        return Err(CacheError::InvalidInput {
            reason: format!(
                "{} cost entries but {} decisions",
                costs.len(),
                use_cache.len()
            ),
        });
    }
    Ok(walk(costs.iter().zip(use_cache.iter().copied())))
}

/// Naive sequential schedule (Fig. 9-top): load *all* cached
/// activations first, then compute every block in cached mode.
pub fn naive_sequential_latency(costs: &[BlockCosts]) -> SimDuration {
    let total_load = costs.iter().fold(SimDuration::ZERO, |acc, c| acc + c.load);
    let total_compute = costs
        .iter()
        .fold(SimDuration::ZERO, |acc, c| acc + c.compute_cached);
    total_load + total_compute
}

/// Strawman pipeline (Fig. 9-middle): every block uses cache, loads
/// overlapped block-wise — bubbles appear when loads outpace compute.
pub fn strawman_pipeline_latency(costs: &[BlockCosts]) -> SimDuration {
    walk(costs.iter().map(|c| (c, true)))
}

/// Ideal latency (Fig. 4-left "ideal"): cached compute with load
/// overhead magically eliminated.
pub fn ideal_latency(costs: &[BlockCosts]) -> SimDuration {
    costs
        .iter()
        .fold(SimDuration::ZERO, |acc, c| acc + c.compute_cached)
}

/// Algorithm 1 for uniform per-block costs, in closed form: an O(N)
/// scan that allocates nothing.
///
/// With `C_f = compute_full`, `C_c = compute_cached` and `L = load`,
/// computing the first `N − j` blocks in full and caching the last `j`
/// finishes at
///
/// ```text
/// finish(0) = N·C_f
/// finish(j) = max((N − j)·C_f + j·C_c,  j·L + C_c,  L + j·C_c)
/// ```
///
/// The first term is compute-bound; the other two bound the stall
/// behind the `k`-th load (ready at `k·L`, followed by `j − k + 1`
/// cached blocks) at its extremes `k = j` and `k = 1`. A cached tail is
/// optimal: in the exact DP over (block `i`, `j` cached so far), with
/// `A = (i − j)·C_f + j·C_c`, `B_0 = 0` and
/// `B_j = max(j·L + C_c, L + j·C_c)`,
/// 1. the best `i`-block prefix with `j` cached finishes at
///    `max(A, B_j)`, by induction on `i`;
/// 2. reaching `(i + 1, j)` by a full block costs `max(A', B_j + C_f)`
///    and by a cached one `max(A', B_j)`, where `A' = A + C_f`;
/// 3. so the last block of any optimal prefix with `j ≥ 1` is cached,
///    and the cached blocks form the tail.
///
/// Ties go to the smallest `j`. Products saturate, and
/// `latency == simulate_plan(.., &plan.use_cache())` for every input.
pub fn plan_uniform(n_blocks: usize, costs: BlockCosts) -> TailPlan {
    let load = costs.load.as_nanos();
    let cc = costs.compute_cached.as_nanos();
    let cf = costs.compute_full.as_nanos();
    let n = n_blocks as u64;
    let (mut cached, mut latency) = (0, n.saturating_mul(cf));
    for j in 1..=n_blocks {
        let jn = j as u64;
        let compute = (n - jn)
            .saturating_mul(cf)
            .saturating_add(jn.saturating_mul(cc));
        let last_load = jn.saturating_mul(load).saturating_add(cc);
        let first_load = load.saturating_add(jn.saturating_mul(cc));
        let finish = compute.max(last_load).max(first_load);
        if finish < latency {
            (cached, latency) = (j, finish);
        }
    }
    TailPlan {
        full: n_blocks - cached,
        cached,
        latency: SimDuration::from_nanos(latency),
    }
}

#[derive(Debug, Clone)]
struct FrontierState {
    compute_finish: u64,
    load_finish: u64,
    decisions: Vec<bool>,
}

/// Algorithm 1 for heterogeneous per-block costs: a Pareto-frontier DP
/// over `(compute_finish, load_finish)` states with dominance pruning.
///
/// Exact for any cost vector; the frontier stays small in practice
/// because most states dominate each other.
pub fn plan_general(costs: &[BlockCosts]) -> PipelinePlan {
    let mut frontier = vec![FrontierState {
        compute_finish: 0,
        load_finish: 0,
        decisions: Vec::new(),
    }];
    for c in costs {
        let mut next: Vec<FrontierState> = Vec::with_capacity(frontier.len() * 2);
        for s in &frontier {
            // Skip cache.
            let mut d = s.decisions.clone();
            d.push(false);
            next.push(FrontierState {
                compute_finish: s.compute_finish + c.compute_full.as_nanos(),
                load_finish: s.load_finish,
                decisions: d,
            });
            // Use cache.
            let lf = s.load_finish + c.load.as_nanos();
            let start = s.compute_finish.max(lf);
            let mut d = s.decisions.clone();
            d.push(true);
            next.push(FrontierState {
                compute_finish: start + c.compute_cached.as_nanos(),
                load_finish: lf,
                decisions: d,
            });
        }
        // Dominance pruning: keep states minimal in (compute, load).
        next.sort_by_key(|s| (s.compute_finish, s.load_finish));
        let mut pruned: Vec<FrontierState> = Vec::with_capacity(next.len());
        let mut best_load = u64::MAX;
        for s in next {
            if s.load_finish < best_load {
                best_load = s.load_finish;
                pruned.push(s);
            }
        }
        frontier = pruned;
    }
    // Pruning keeps the least-load state and skipping adds no load, so
    // the frontier is never empty.
    let best = frontier
        .into_iter()
        .min_by_key(|s| s.compute_finish)
        .expect("frontier never empty");
    PipelinePlan {
        latency: SimDuration::from_nanos(best.compute_finish),
        use_cache: best.decisions,
    }
}

/// Exhaustive reference planner for tests and the Fig. 9 bench; `N`
/// must stay small (2^N plans).
pub fn plan_brute_force(costs: &[BlockCosts]) -> PipelinePlan {
    let n = costs.len();
    assert!(n <= 20, "brute force is exponential; use plan_general");
    let decisions = |bits: u32| (0..n).map(move |i| bits >> i & 1 == 1);
    let mut best = PipelinePlan {
        use_cache: vec![false; n],
        latency: walk(costs.iter().zip(decisions(0))),
    };
    for bits in 0u32..(1u32 << n) {
        let lat = walk(costs.iter().zip(decisions(bits)));
        if lat < best.latency {
            best = PipelinePlan {
                use_cache: decisions(bits).collect(),
                latency: lat,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    fn costs(cached: u64, full: u64, load: u64) -> BlockCosts {
        BlockCosts {
            compute_cached: ns(cached),
            compute_full: ns(full),
            load: ns(load),
        }
    }

    /// The O(N²) DP over `(block index, number of cached blocks so far)`
    /// that `plan_uniform` replaced, kept as its differential reference.
    ///
    /// Exactness: with uniform costs, the copy stream finishes the `j`-th
    /// issued load at `j · load`, so a cached block's ready time depends
    /// only on its rank among cached blocks — captured by the DP state.
    fn plan_uniform_dp(n_blocks: usize, costs: BlockCosts) -> PipelinePlan {
        if n_blocks == 0 {
            return PipelinePlan {
                use_cache: Vec::new(),
                latency: SimDuration::ZERO,
            };
        }
        let load = costs.load.as_nanos();
        let cc = costs.compute_cached.as_nanos();
        let cf = costs.compute_full.as_nanos();
        const INF: u64 = u64::MAX / 4;
        // dp[j] = minimal compute-finish after the current prefix with j
        // cached blocks; parent[i][j] = whether block i-1 was cached on the
        // optimal path reaching (i, j).
        let mut dp = vec![INF; n_blocks + 1];
        dp[0] = 0;
        let mut parent = vec![vec![false; n_blocks + 1]; n_blocks + 1];
        for i in 0..n_blocks {
            let mut next = vec![INF; n_blocks + 1];
            let mut choice = vec![false; n_blocks + 1];
            for j in 0..=i {
                let cur = dp[j];
                if cur >= INF {
                    continue;
                }
                // Skip cache.
                let skip = cur + cf;
                if skip < next[j] {
                    next[j] = skip;
                    choice[j] = false;
                }
                // Use cache: this is the (j+1)-th load, ready at (j+1)·load.
                let ready = (j as u64 + 1) * load;
                let use_c = cur.max(ready) + cc;
                if use_c < next[j + 1] {
                    next[j + 1] = use_c;
                    choice[j + 1] = true;
                }
            }
            dp = next;
            parent[i + 1] = choice;
        }
        // Best final state.
        let (best_j, &best) = dp
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| v)
            .expect("dp is non-empty");
        // Backtrack decisions.
        let mut use_cache = vec![false; n_blocks];
        let mut j = best_j;
        for i in (0..n_blocks).rev() {
            let cached = parent[i + 1][j];
            use_cache[i] = cached;
            if cached {
                j -= 1;
            }
        }
        // Recompute exactly through the simulator to keep the invariant
        // latency == simulate_plan(plan).
        let costs_vec = vec![costs; n_blocks];
        let latency = simulate_plan(&costs_vec, &use_cache).expect("lengths match");
        debug_assert_eq!(latency.as_nanos(), best);
        PipelinePlan { use_cache, latency }
    }

    /// `plan_uniform` against the DP, `simulate_plan` and (for small
    /// `n`) brute force: the plan vector and latency bit for bit.
    fn assert_matches_references(n: usize, c: BlockCosts) {
        let plan = plan_uniform(n, c);
        let use_cache = plan.use_cache();
        let dp = plan_uniform_dp(n, c);
        assert_eq!(use_cache, dp.use_cache, "n={n} {c:?}: plan vector");
        assert_eq!(plan.latency, dp.latency, "n={n} {c:?}: latency");
        assert_eq!(
            simulate_plan(&vec![c; n], &use_cache).unwrap(),
            plan.latency,
            "n={n} {c:?}: simulated latency"
        );
        if n <= 12 {
            assert_eq!(
                plan_brute_force(&vec![c; n]).latency,
                plan.latency,
                "n={n} {c:?}: brute force"
            );
        }
    }

    /// One cost triple from a regime the closed form must get right:
    /// nanosecond ties, costs up to 1 s, zero loads, `C_cached =
    /// C_full`, `C_cached > C_full`, loads ≫ compute, and constructed
    /// exact ties between caching every block and all but the first.
    fn regime_costs(regime: u8, tiny: (u64, u64, u64), wide: (u64, u64, u64)) -> BlockCosts {
        let (ta, tb, tc) = tiny;
        let (wa, wb, wc) = wide;
        match regime {
            0 => costs(ta, tb, tc),
            1 => costs(wa, wb, wc),
            2 => costs(wa.min(wb), wa.max(wb), 0),
            3 => costs(wa, wa, wc),
            4 => costs(wa.max(wb), wa.min(wb), wc),
            5 => costs(ta, ta + tb, wc),
            // finish(N) = L + N·C_c = C_f + (N − 1)·C_c = finish(N − 1).
            _ => costs(wa.max(wb), wa.max(wb) + wa.min(wb), wa.min(wb)),
        }
    }

    #[test]
    fn compute_bound_case_caches_everything() {
        // Loads are cheap: caching every block is optimal and the
        // pipeline hides all but the first load.
        let c = costs(10, 100, 2);
        let plan = plan_uniform(8, c);
        assert_eq!((plan.full, plan.cached), (0, 8));
        // First block waits for its load (2), then compute dominates.
        assert_eq!(plan.latency, ns(2 + 8 * 10));
    }

    #[test]
    fn load_bound_case_skips_some_blocks() {
        // Loads are expensive relative to cached compute: the strawman
        // pipeline bubbles, and the DP must beat it by computing some
        // blocks in full.
        let c = costs(10, 25, 40);
        let n = 8;
        let plan = plan_uniform(n, c);
        let strawman = strawman_pipeline_latency(&vec![c; n]);
        assert!(
            plan.latency < strawman,
            "DP {:?} must beat strawman {:?}",
            plan.latency,
            strawman
        );
        assert!(plan.full > 0, "some blocks skip cache");
        assert!(plan.cached > 0, "some blocks still cache");
    }

    #[test]
    fn expensive_loads_still_help_late_blocks() {
        // Loads cost more than the full-vs-cached compute saving, so a
        // naive analysis would skip caching entirely (6 × 60 = 360).
        // But loads are prefetched eagerly: a late block's load is
        // hidden behind earlier compute, so caching the tail is free
        // compute savings. Block 5 cached: load done at 100 ≤ 5 × 60,
        // so it starts at 300 and finishes at 350 < 360.
        let c = costs(50, 60, 100);
        let plan = plan_uniform(6, c);
        assert!(plan.latency < ns(6 * 60));
        assert!(plan.cached > 0);
        assert_eq!(plan.latency, plan_brute_force(&[c; 6]).latency);
    }

    #[test]
    fn zero_blocks() {
        let plan = plan_uniform(0, costs(1, 2, 3));
        assert!(plan.use_cache().is_empty());
        assert_eq!(plan.latency, SimDuration::ZERO);
    }

    #[test]
    fn reference_schedules_ordering() {
        // naive ≥ strawman ≥ DP ≥ ideal, the ordering behind Fig. 4-left.
        let c = costs(10, 30, 15);
        let n = 10;
        let v = vec![c; n];
        let naive = naive_sequential_latency(&v);
        let strawman = strawman_pipeline_latency(&v);
        let dp = plan_uniform(n, c).latency;
        let ideal = ideal_latency(&v);
        assert!(naive >= strawman, "naive {naive} < strawman {strawman}");
        assert!(strawman >= dp);
        assert!(dp >= ideal);
        // The paper reports ~102% overhead for naive loading; with these
        // costs naive is 2.5× ideal while the DP sits close to ideal.
        assert!(naive.as_nanos() as f64 / ideal.as_nanos() as f64 > 1.5);
    }

    #[test]
    fn uniform_matches_brute_force() {
        // Brute force for n ≤ 12, and the DP's plan vector and latency
        // at every n.
        for (cc, cf, ld) in [
            (10, 100, 2),
            (10, 25, 40),
            (50, 60, 100),
            (7, 13, 11),
            (1, 2, 3),
            (20, 21, 1),
            (50, 60, 10),
            (0, 0, 0),
            (5, 5, 5),
            (7, 3, 1),
            (1, 1, 0),
            (0, 1, 1_000_000_000),
        ] {
            for n in [0usize, 1, 2, 3, 5, 8, 12, 57, 128] {
                assert_matches_references(n, costs(cc, cf, ld));
            }
        }
    }

    #[test]
    fn general_matches_brute_force_on_heterogeneous_costs() {
        let cases: Vec<Vec<BlockCosts>> = vec![
            vec![costs(5, 20, 9), costs(10, 12, 30), costs(3, 40, 2)],
            vec![
                costs(10, 25, 40),
                costs(10, 25, 4),
                costs(1, 100, 50),
                costs(30, 31, 30),
                costs(2, 90, 7),
            ],
            vec![costs(1, 1, 1)],
        ];
        for case in cases {
            let dp = plan_general(&case);
            let bf = plan_brute_force(&case);
            assert_eq!(dp.latency, bf.latency, "case {case:?}");
            // The plan must actually achieve its claimed latency.
            assert_eq!(simulate_plan(&case, &dp.use_cache).unwrap(), dp.latency);
        }
    }

    #[test]
    fn simulate_plan_validates_lengths() {
        let c = vec![costs(1, 2, 3)];
        assert!(simulate_plan(&c, &[true, false]).is_err());
    }

    #[test]
    fn large_mask_ratio_keeps_caching_despite_copy_bubbles() {
        // §4.2: when compute latency with cache exceeds load latency,
        // bubbles sit on the *copy* stream and the DP still caches all
        // blocks (compute is the bottleneck either way).
        let c = costs(50, 60, 10);
        let plan = plan_uniform(6, c);
        // Fully cached: first load (10) then compute-bound, 10 + 6·50.
        // Computing the first block in full instead ties at 60 + 5·50;
        // ties go to the fewest cached blocks, as in the DP.
        assert_eq!(plan.latency, ns(10 + 6 * 50));
        assert_eq!((plan.full, plan.cached), (1, 5));
        assert_matches_references(6, c);
    }

    #[test]
    fn extreme_costs_saturate_without_panicking() {
        let max = SimDuration::from_nanos(u64::MAX);
        for c in [
            BlockCosts {
                compute_cached: max,
                compute_full: max,
                load: max,
            },
            costs(u64::MAX / 3, u64::MAX / 2, 1),
            costs(1, u64::MAX / 2, u64::MAX / 3),
        ] {
            for n in [1usize, 57, 1000] {
                let plan = plan_uniform(n, c);
                assert_eq!(plan.blocks(), n);
                assert_eq!(
                    simulate_plan(&vec![c; n], &plan.use_cache()).unwrap(),
                    plan.latency
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_uniform_matches_dp(
            regime in 0u8..7,
            tiny in (0u64..10, 0u64..10, 0u64..10),
            wide in (0u64..1_000_000_000, 0u64..1_000_000_000, 0u64..1_000_000_000),
            n in 0usize..=128,
        ) {
            let c = regime_costs(regime, tiny, wide);
            assert_matches_references(n, c);
            assert_matches_references(n % 13, c);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_uniform_dp_is_optimal(
            cc in 1u64..50,
            extra in 1u64..100,
            ld in 1u64..80,
            n in 1usize..10,
        ) {
            // compute_full > compute_cached always (fewer tokens is
            // never slower in this model).
            let c = costs(cc, cc + extra, ld);
            let dp = plan_uniform(n, c);
            let bf = plan_brute_force(&vec![c; n]);
            prop_assert_eq!(dp.latency, bf.latency);
        }

        #[test]
        fn prop_general_dp_is_optimal(
            params in proptest::collection::vec((1u64..40, 1u64..60, 1u64..60), 1..9),
        ) {
            let case: Vec<BlockCosts> = params
                .iter()
                .map(|&(cc, extra, ld)| costs(cc, cc + extra, ld))
                .collect();
            let dp = plan_general(&case);
            let bf = plan_brute_force(&case);
            prop_assert_eq!(dp.latency, bf.latency);
        }

        #[test]
        fn prop_dp_never_worse_than_extremes(
            cc in 1u64..50,
            extra in 1u64..100,
            ld in 1u64..100,
            n in 1usize..16,
        ) {
            let c = costs(cc, cc + extra, ld);
            let plan = plan_uniform(n, c);
            let v = vec![c; n];
            let all_cached = strawman_pipeline_latency(&v);
            let all_full = simulate_plan(&v, &vec![false; n]).unwrap();
            prop_assert!(plan.latency <= all_cached);
            prop_assert!(plan.latency <= all_full);
            prop_assert!(plan.latency >= ideal_latency(&v).min(all_full));
        }
    }
}
