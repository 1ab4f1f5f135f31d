//! The chaos soak as an integration test: the full fixed seed matrix at
//! quick storm sizing. Each storm's fault injector rides on its own
//! daemon's engine config, so nothing it injects reaches other tests.
//!
//! ci.sh runs this as the robustness gate; the full-size storm behind
//! `BENCH_soak_chaos.json` runs through `run_all` / the `soak_chaos`
//! binary.

use fingers_bench::experiments::soak_chaos::{run_soak, SEEDS};

#[test]
fn seed_matrix_survives_verifies_and_drains() {
    let result = run_soak(true);
    assert_eq!(result.seeds.len(), SEEDS.len());
    assert!(
        result.mem_budget_typed,
        "the 1-byte budget probe must fail typed (`mem-budget`, exit 11)"
    );
    for s in &result.seeds {
        assert!(s.survived, "seed {}: daemon died during the storm", s.seed);
        assert!(s.ok > 0, "seed {}: no query survived chaos", s.seed);
        assert!(
            s.attempted >= s.ok,
            "seed {}: accounting is inconsistent",
            s.seed
        );
        assert_eq!(
            s.gauge_final_bytes, s.gauge_baseline_bytes,
            "seed {}: gauge leaked bytes past the drain",
            s.seed
        );
        // Counts were verified bit-identical against the serial baseline
        // inside every storm client; reaching here means none diverged.
    }
}
