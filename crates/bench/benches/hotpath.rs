//! Hot-path throughput baseline: the numbers `BENCH_hotpath.json` records
//! so later PRs have a trajectory to regress against.
//!
//! Two sections:
//!
//! 1. **Index microbenches** — `DetMap` vs the `BTreeMap` it replaced, fed
//!    bit-identical SimRng key streams shaped like each hot path
//!    (directory entry-or-default churn, TLB lookup/replace, in-flight
//!    insert/probe, replica-mask membership). These prove the PR-5 swap
//!    actually bought throughput.
//! 2. **Substrate benches** — accesses/sec through the real components:
//!    `Directory::access` (dense per-page chunks indexed by page frame
//!    number), `Tlb::record_llc_miss` (a `DetMap` annex index), LLC, DRAM.
//!
//! End-to-end simulator throughput is measured by the `e2e` benchmark in
//! `e2ebench/`, with repeated trials on four workloads.
//!
//! Wall clock is allowed here (bench crate; SN002 exempts it). Output goes
//! to `BENCH_hotpath.json` at the workspace root, or `$STARNUMA_BENCH_OUT`.
//! `STARNUMA_BENCH_SMOKE=1` shrinks iteration counts ~20× for CI.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use starnuma_cache::{CacheConfig, SetAssocCache, Tlb, TlbConfig};
use starnuma_coherence::Directory;
use starnuma_mem::{DramTimings, MemoryModule};
use starnuma_types::json::Json;
use starnuma_types::{BlockAddr, Cycles, DetMap, GbPerSec, Location, PageId, SimRng, SocketId};

/// Times `iters` calls of `f` (after a 1/10 warm-up) and returns ns/op.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn ops_per_sec(ns_per_op: f64) -> f64 {
    if ns_per_op > 0.0 {
        1e9 / ns_per_op
    } else {
        0.0
    }
}

fn substrate_entry(name: &str, iters: u64, ns_per_op: f64) -> (String, Json) {
    println!("{name:<34} {iters:>9} iters {ns_per_op:>10.1} ns/op");
    (
        name.to_string(),
        Json::Obj(vec![
            ("iters".to_string(), Json::Num(iters as f64)),
            ("ns_per_op".to_string(), Json::Num(ns_per_op)),
            ("ops_per_sec".to_string(), Json::Num(ops_per_sec(ns_per_op))),
        ]),
    )
}

/// One DetMap-vs-BTreeMap comparison: both maps replay the identical
/// RNG-driven op stream; the JSON records both sides and the speedup.
fn index_entry(name: &str, iters: u64, det_ns: f64, btree_ns: f64) -> (String, Json) {
    let speedup = if det_ns > 0.0 { btree_ns / det_ns } else { 0.0 };
    println!(
        "{name:<34} {iters:>9} iters {det_ns:>10.1} ns/op  (btreemap {btree_ns:.1}, {speedup:.2}x)"
    );
    (
        name.to_string(),
        Json::Obj(vec![
            ("iters".to_string(), Json::Num(iters as f64)),
            ("detmap_ns_per_op".to_string(), Json::Num(det_ns)),
            ("btreemap_ns_per_op".to_string(), Json::Num(btree_ns)),
            (
                "detmap_ops_per_sec".to_string(),
                Json::Num(ops_per_sec(det_ns)),
            ),
            ("speedup".to_string(), Json::Num(speedup)),
        ]),
    )
}

/// Directory-shaped stream: entry-or-default on a working set of blocks
/// with occasional eviction, like `Directory::access`/`evict`.
fn index_directory_pattern(iters: u64) -> (String, Json) {
    let det_ns = {
        let mut m: DetMap<BlockAddr, u32> = DetMap::new();
        let mut rng = SimRng::seed_from_u64(11);
        time_ns(iters, || {
            let b = BlockAddr::new(rng.gen_range(0u64..200_000));
            *m.entry_or_insert_with(b, || 0) += 1;
            if rng.gen_bool(0.05) {
                let victim = BlockAddr::new(rng.gen_range(0u64..200_000));
                black_box(m.remove(&victim));
            }
        })
    };
    let btree_ns = {
        let mut m: BTreeMap<BlockAddr, u32> = BTreeMap::new();
        let mut rng = SimRng::seed_from_u64(11);
        time_ns(iters, || {
            let b = BlockAddr::new(rng.gen_range(0u64..200_000));
            *m.entry(b).or_default() += 1;
            if rng.gen_bool(0.05) {
                let victim = BlockAddr::new(rng.gen_range(0u64..200_000));
                black_box(m.remove(&victim));
            }
        })
    };
    index_entry("index_directory_pattern", iters, det_ns, btree_ns)
}

/// TLB-shaped stream: hit-mostly lookups over a small resident set with
/// insert+remove on each miss, like `Tlb::record_llc_miss`.
fn index_tlb_pattern(iters: u64) -> (String, Json) {
    let det_ns = {
        let mut m: DetMap<PageId, usize> = DetMap::new();
        let mut rng = SimRng::seed_from_u64(12);
        time_ns(iters, || {
            let p = PageId::new(rng.gen_range(0u64..4_096));
            if !m.contains_key(&p) {
                let victim = PageId::new(rng.gen_range(0u64..4_096));
                black_box(m.remove(&victim));
                m.insert(p, p.pfn() as usize);
            }
        })
    };
    let btree_ns = {
        let mut m: BTreeMap<PageId, usize> = BTreeMap::new();
        let mut rng = SimRng::seed_from_u64(12);
        time_ns(iters, || {
            let p = PageId::new(rng.gen_range(0u64..4_096));
            if !m.contains_key(&p) {
                let victim = PageId::new(rng.gen_range(0u64..4_096));
                black_box(m.remove(&victim));
                m.insert(p, p.pfn() as usize);
            }
        })
    };
    index_entry("index_tlb_pattern", iters, det_ns, btree_ns)
}

/// In-flight-shaped stream: short-lived insert + repeated probe, like the
/// timing sim's migration window.
fn index_inflight_pattern(iters: u64) -> (String, Json) {
    let det_ns = {
        let mut m: DetMap<PageId, u64> = DetMap::new();
        let mut rng = SimRng::seed_from_u64(13);
        time_ns(iters, || {
            if rng.gen_bool(0.1) {
                m.insert(PageId::new(rng.gen_range(0u64..10_000)), 7);
                if m.len() > 512 {
                    m.clear();
                }
            }
            black_box(m.get(&PageId::new(rng.gen_range(0u64..10_000))));
        })
    };
    let btree_ns = {
        let mut m: BTreeMap<PageId, u64> = BTreeMap::new();
        let mut rng = SimRng::seed_from_u64(13);
        time_ns(iters, || {
            if rng.gen_bool(0.1) {
                m.insert(PageId::new(rng.gen_range(0u64..10_000)), 7);
                if m.len() > 512 {
                    m.clear();
                }
            }
            black_box(m.get(&PageId::new(rng.gen_range(0u64..10_000))));
        })
    };
    index_entry("index_inflight_pattern", iters, det_ns, btree_ns)
}

fn main() {
    let smoke = std::env::var("STARNUMA_BENCH_SMOKE").is_ok();
    let iters: u64 = if smoke { 10_000 } else { 200_000 };
    println!(
        "hot-path baseline ({} mode)\n",
        if smoke { "smoke" } else { "full" }
    );

    let index = vec![
        index_directory_pattern(iters),
        index_tlb_pattern(iters),
        index_inflight_pattern(iters),
    ];

    let mut substrates = Vec::new();
    {
        let mut dir = Directory::new(16);
        let mut rng = SimRng::seed_from_u64(3);
        let ns = time_ns(iters, || {
            let block = BlockAddr::new(rng.gen_range(0u64..1_000_000));
            let socket = SocketId::new(rng.gen_range(0u16..16));
            black_box(dir.access(block, socket, rng.gen_bool(0.3), Location::Pool));
        });
        substrates.push(substrate_entry("directory_access", iters, ns));
    }
    {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 64,
            counter_bits: 16,
        });
        let mut rng = SimRng::seed_from_u64(2);
        let ns = time_ns(iters, || {
            black_box(tlb.record_llc_miss(PageId::new(rng.gen_range(0u64..32_768))));
        });
        substrates.push(substrate_entry("tlb_record_llc_miss", iters, ns));
    }
    {
        let mut cache = SetAssocCache::new(CacheConfig::scaled_llc());
        let mut rng = SimRng::seed_from_u64(1);
        let ns = time_ns(iters, || {
            let block = BlockAddr::new(rng.gen_range(0u64..2_000_000));
            black_box(cache.access(block, rng.gen_bool(0.3)));
        });
        substrates.push(substrate_entry("llc_access", iters, ns));
    }
    {
        let mut mem = MemoryModule::new(2, GbPerSec::new(50.0), DramTimings::ddr5_4800());
        let mut rng = SimRng::seed_from_u64(4);
        let mut t = 0u64;
        let ns = time_ns(iters, || {
            t += 20;
            black_box(mem.access(
                Cycles::new(t),
                BlockAddr::new(rng.gen_range(0u64..2_000_000)),
            ));
        });
        substrates.push(substrate_entry("dram_module_access", iters, ns));
    }

    let doc = Json::Obj(vec![
        (
            "meta".to_string(),
            Json::Obj(vec![
                ("bench".to_string(), Json::Str("hotpath".to_string())),
                ("smoke".to_string(), Json::Bool(smoke)),
                (
                    "version".to_string(),
                    Json::Str(env!("CARGO_PKG_VERSION").to_string()),
                ),
            ]),
        ),
        ("index".to_string(), Json::Obj(index)),
        ("substrates".to_string(), Json::Obj(substrates)),
    ]);

    let out_path = std::env::var("STARNUMA_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_hotpath.json", env!("CARGO_MANIFEST_DIR")));
    match std::fs::write(&out_path, doc.render() + "\n") {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    // Trajectory: the same numbers, flattened to dotted keys, appended to
    // the schema-versioned history file that `starnuma bench-diff` reads.
    let mut flat = Vec::new();
    flatten("", &doc, &mut flat);
    flat.retain(|(k, _)| !k.starts_with("meta."));
    starnuma_bench::append_history("hotpath", smoke, &flat);
}

/// Flattens every numeric leaf of a JSON document into `prefix.key` pairs,
/// producing the flat shape bench history entries require.
fn flatten(prefix: &str, j: &Json, out: &mut Vec<(String, f64)>) {
    let join = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match j {
        Json::Num(n) => out.push((prefix.to_string(), *n)),
        Json::Obj(fields) => {
            for (k, v) in fields {
                flatten(&join(k), v, out);
            }
        }
        _ => {}
    }
}
