//! Tier-1 audit gate: the workspace must stay lint-clean, invalid models
//! must surface exact `SNxxx` diagnostics *before* simulation starts, and
//! same-seed runs must be bit-identical.

use std::path::Path;

use starnuma_audit::{lint_workspace, render_human};
use starnuma_migration::PolicyConfig;
use starnuma_sim::{RunConfig, Runner};
use starnuma_topology::{Network, SystemParams};
use starnuma_trace::Workload;
use starnuma_types::{Nanos, Severity, StarNumaError};

/// The workspace must lint clean. The only accepted exceptions are the
/// checked-in `// audit:allow(SNxxx)` markers, each next to the line it
/// covers with the argument for why that line is safe.
#[test]
fn workspace_is_lint_clean_modulo_the_checked_in_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = lint_workspace(root).expect("workspace is readable");
    assert!(
        findings.is_empty(),
        "audit self-lint must stay clean:\n{}",
        render_human(&findings)
    );
}

fn invalid_model_codes(err: StarNumaError) -> Vec<&'static str> {
    match err {
        StarNumaError::InvalidModel(diags) => diags.iter().map(|d| d.code).collect(),
        other => panic!("expected InvalidModel, got {other}"),
    }
}

#[test]
fn negative_latency_is_rejected_with_sn101() {
    let mut config = RunConfig::default();
    config.params.mem_base = Nanos::new(-1.0);
    let err = Runner::try_new(Workload::Bfs.profile(), config).expect_err("invalid");
    assert_eq!(invalid_model_codes(err), ["SN101"]);
}

#[test]
fn out_of_range_pool_fraction_is_rejected_with_sn102() {
    let config = RunConfig {
        pool_capacity_frac: 1.5,
        ..RunConfig::default()
    };
    let err = Runner::try_new(Workload::Tpcc.profile(), config).expect_err("invalid");
    assert_eq!(invalid_model_codes(err), ["SN102"]);
}

#[test]
fn pool_below_hot_set_warns_sn102_but_still_runs() {
    let config = RunConfig {
        pool_capacity_frac: 0.01,
        ..RunConfig::default()
    };
    let profile = Workload::Bfs.profile();
    let diags = Runner::preflight(&profile, &config);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "SN102" && d.severity == Severity::Warning),
        "expected an SN102 capacity warning, got: {diags:?}"
    );
    assert!(
        Runner::try_new(profile, config).is_ok(),
        "warnings must not block the run"
    );
}

#[test]
fn non_monotone_thresholds_are_rejected_with_sn103() {
    let mut cfg = PolicyConfig::t16_scaled(100);
    cfg.hi_init = cfg.hi_max + 1;
    cfg.lo_init = cfg.lo_max + 1;
    let codes: Vec<&str> = cfg.diagnostics().iter().map(|d| d.code).collect();
    assert_eq!(codes, ["SN103", "SN103"]);
    assert!(PolicyConfig::t16_scaled(100).diagnostics().is_empty());
    assert!(PolicyConfig::t0(16).diagnostics().is_empty());
}

#[test]
fn disconnected_topology_is_rejected_with_sn104() {
    let mut params = SystemParams::scaled_baseline();
    params.numalinks_per_chassis_pair = 0;
    let err = Network::try_new(&params).expect_err("invalid");
    let StarNumaError::InvalidModel(diags) = err else {
        panic!("expected InvalidModel");
    };
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "SN104");
    assert!(diags[0].message.contains("disconnected"));
}

#[test]
fn diagnostics_accumulate_across_layers() {
    let mut config = RunConfig::default();
    config.params.upi_one_way = Nanos::new(0.0);
    config.params.numalinks_per_chassis_pair = 0;
    config.pool_capacity_frac = -0.5;
    let err = Runner::try_new(Workload::Cc.profile(), config).expect_err("invalid");
    assert_eq!(invalid_model_codes(err), ["SN101", "SN104", "SN102"]);
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let config = RunConfig {
        phases: 2,
        instructions_per_phase: 12_000,
        warmup_instructions: 2_000,
        ..RunConfig::default()
    };
    let a = Runner::new(Workload::Bfs.profile(), config.clone()).run();
    let b = Runner::new(Workload::Bfs.profile(), config).run();
    assert_eq!(a, b, "two same-seed runs must produce identical RunResults");
}
