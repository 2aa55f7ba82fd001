//! A deliberately dirty simulation crate for the audit integration tests.
//! Each of SN005, SN007–SN009 and SN011 fires exactly once here; clean
//! twins next to SN007, SN009 and SN011 must stay silent. Like the rest of
//! the fixture tree, cargo never compiles this file — the analyzer sees
//! it purely as text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// SN007: float accumulation in a loop without a canonical-order note.
pub fn mean(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for x in xs {
        total += x;
    }
    total
}

// Clean twin: the iteration order is stated within reach of the `+=`.
pub fn mean_noted(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    // canonical order: xs is slice-ordered by the caller.
    for x in xs {
        total += x;
    }
    total
}

// SN008: a thread-topology read inside a simulation crate.
pub fn worker_count() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

// SN009: a narrowing `as` cast in a truncation-scoped crate.
pub fn truncate(x: u64) -> u16 {
    x as u16
}

// Clean twins: a lossless conversion and an allow-marked bounded cast.
pub fn widen(x: u16) -> u64 {
    u64::from(x)
}

pub fn bounded(x: u64) -> u16 {
    // audit:allow(SN009) fixture: values are bounded below 2^16.
    x as u16
}

// SN011: a keyed unstable sort (ties reorder freely).
pub fn rank(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable_by_key(|e| e.0);
    v
}

// Clean twin: a stable sort on the same key.
pub fn rank_stable(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_by_key(|e| e.0);
    v
}

// SN005: a direct print from a library crate.
pub fn chatty() {
    println!("simulation crates must route output through the obs journal");
}
