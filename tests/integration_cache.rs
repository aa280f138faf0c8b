//! Integration: the cache engine end-to-end — Algorithm 1 plans built
//! from real cost models, hierarchical storage under serving pressure,
//! and cache-consistency of the numeric substrate.

use flashps::{FlashPs, FlashPsConfig};
use fps_baselines::eval_setup;
use fps_diffusion::{Image, ModelConfig};
use fps_maskcache::pipeline::{plan_brute_force, plan_uniform, simulate_plan};
use fps_maskcache::store::{HierarchicalStore, StoreConfig, Tier};
use fps_serving::cost::BatchItem;
use fps_simtime::SimTime;

#[test]
fn dp_plans_from_real_cost_models_are_optimal() {
    // Algorithm 1 over per-block costs produced by the calibrated
    // cost models must match brute force wherever brute force is
    // feasible.
    for setup in eval_setup() {
        let cm = setup.cost_model();
        if cm.model.blocks > 20 {
            continue;
        }
        for m in [0.03, 0.11, 0.35] {
            for b in [1usize, 4, 8] {
                let batch = vec![BatchItem { mask_ratio: m }; b];
                let costs = cm.mask_aware_block_costs(&batch, false);
                let dp = plan_uniform(cm.model.blocks, costs);
                let bf = plan_brute_force(&vec![costs; cm.model.blocks]);
                assert_eq!(dp.latency, bf.latency, "{} m={m} b={b}", cm.model.name);
                assert_eq!(
                    simulate_plan(&vec![costs; cm.model.blocks], &dp.use_cache())
                        .expect("simulate"),
                    dp.latency
                );
            }
        }
    }
}

#[test]
fn small_masks_at_large_batches_skip_some_blocks() {
    // §4.2's interesting regime: small masks mean big caches and tiny
    // compute, so loads bound the pipeline and the DP computes some
    // blocks in full instead.
    let cm = eval_setup()[0].cost_model(); // SD2.1 on A10: slowest link.
    let batch = vec![BatchItem { mask_ratio: 0.02 }; 4];
    let costs = cm.mask_aware_block_costs(&batch, false);
    let plan = plan_uniform(cm.model.blocks, costs);
    // Regardless of the mix chosen, the plan must beat both extremes.
    let all_cached = simulate_plan(&vec![costs; cm.model.blocks], &vec![true; cm.model.blocks])
        .expect("simulate");
    let all_full = simulate_plan(&vec![costs; cm.model.blocks], &vec![false; cm.model.blocks])
        .expect("simulate");
    assert!(plan.latency <= all_cached);
    assert!(plan.latency <= all_full);
}

#[test]
fn store_under_serving_pressure_keeps_hot_templates_resident() {
    // Zipf-popular templates should stay in host memory while cold
    // ones cycle through disk.
    let per_template: u64 = 1 << 30;
    let mut store = HierarchicalStore::new(StoreConfig {
        host_capacity: 4 * per_template,
        disk_capacity: u64::MAX,
        disk_read_bw: 8.0 * (1u64 << 30) as f64,
    });
    for id in 0..10u64 {
        store
            .insert(id, per_template, SimTime::ZERO, None)
            .expect("insert");
    }
    // Access pattern: template 0 is hot, others occasional.
    let mut now = 1u64;
    for round in 0..50u64 {
        let _ = store.fetch(0, SimTime::from_nanos(now));
        now += 1;
        let cold = 1 + (round % 9);
        let _ = store.fetch(cold, SimTime::from_nanos(now));
        now += 1;
    }
    assert_eq!(store.locate(0), Some(Tier::Host), "hot template resident");
    let host_count = (0..10)
        .filter(|&id| store.locate(id) == Some(Tier::Host))
        .count();
    assert!(host_count <= 4, "host capacity respected");
    assert!(store.stats().evictions > 0);
    assert!(store.stats().disk_hits > 0);
}

#[test]
fn numeric_cache_bytes_match_analytic_sizing() {
    // The priming cache held by the FlashPS system must match the
    // Table 1 sizing formula at mask ratio 0 (all tokens cached): Y
    // once, or K and V (2×, as the paper and the cost model size the
    // Fig. 7 variant) with no Y beside them.
    let cfg = ModelConfig::sdxl_like();
    let expected = cfg.cache_bytes_total(0.0);
    for (capture_kv, factor) in [(false, 1), (true, 2)] {
        let mut config = FlashPsConfig::new(cfg.clone());
        config.capture_kv = capture_kv;
        let mut sys = FlashPs::new(config).expect("system");
        sys.register_template(3, &Image::template(cfg.pixel_h(), cfg.pixel_w(), 1))
            .expect("register");
        let actual = sys.template_cache_bytes(3).expect("registered");
        assert_eq!(actual, factor * expected, "capture_kv {capture_kv}");
        // What the host budget charges is what the template holds.
        assert_eq!(
            sys.cache_bytes_resident(),
            actual,
            "capture_kv {capture_kv}"
        );
    }
}

#[test]
fn cache_is_shared_across_prompts_and_seeds() {
    // One primed cache serves edits with any prompt/seed — the §2.2
    // template-reuse property.
    let cfg = ModelConfig::tiny();
    let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).expect("system");
    sys.register_template(0, &Image::template(cfg.pixel_h(), cfg.pixel_w(), 4))
        .expect("register");
    let masked = [1usize, 2, 5];
    for (prompt, seed) in [("red", 1u64), ("blue", 2), ("green", 3)] {
        let r = sys.edit_tokens(0, &masked, prompt, seed).expect("edit");
        assert!(r.output.image.data().iter().all(|v| v.is_finite()));
    }
    assert_eq!(sys.template_count(), 1, "still one cache");
}
