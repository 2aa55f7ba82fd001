//! The lint passes.
//!
//! Three layers, in the order the driver runs them:
//!
//! * [`source`] — per-line token lints over one file (SN001–SN005, SN008,
//!   SN009, SN011).
//! * [`dataflow`] — the float-order lint (SN007) over one file's item
//!   facts.
//! * [`manifest`] — `Cargo.toml` drift checks (SN012).
//!
//! Crate-level scoping (which crates a rule applies to) lives here so the
//! driver and the tests agree on one source of truth.

pub mod dataflow;
pub mod manifest;
pub mod source;

/// Crate directory names exempt from SN002 (wall-clock): the benchmark
/// harness must measure real time; everything else simulates time.
pub fn wallclock_exempt() -> &'static [&'static str] {
    &["bench"]
}

/// Crate directory names exempt from SN005 (direct prints): the CLI and
/// the benchmark harness are operator-facing front ends, and the obs crate
/// owns structured rendering. Library crates must route operator-visible
/// output through the obs event journal instead of printing.
pub fn println_exempt() -> &'static [&'static str] {
    &["bench", "cli", "obs"]
}

/// Crate directory names exempt from SN008 (thread-topology reads): the
/// CLI and bench harness may size themselves to the host; simulation
/// libraries must not let worker counts reach simulated state.
pub fn thread_topology_exempt() -> &'static [&'static str] {
    &["bench", "cli"]
}

/// Crates where SN009 (narrowing `as` casts) applies: the simulation
/// kernel and the shared types, where a silent truncation corrupts
/// results instead of merely mis-rendering them.
pub fn truncation_scope() -> &'static [&'static str] {
    &["sim", "types"]
}

/// Applies the crate-level scoping rules to one file's source-pass
/// findings. `crate_name` is the crate directory name (empty for the root
/// package, which is treated as a front end).
pub fn scope_findings(findings: &mut Vec<starnuma_types::Diagnostic>, crate_name: &str) {
    let is_front_end = crate_name.is_empty();
    if wallclock_exempt().contains(&crate_name) {
        findings.retain(|d| d.code != "SN002");
    }
    if is_front_end || println_exempt().contains(&crate_name) {
        findings.retain(|d| d.code != "SN005");
    }
    if is_front_end || thread_topology_exempt().contains(&crate_name) {
        findings.retain(|d| d.code != "SN008");
    }
    if !truncation_scope().contains(&crate_name) {
        findings.retain(|d| d.code != "SN009");
    }
}
