//! The benchmark's workload and metric tables. `BENCHMARK.json` at the
//! repository root mirrors them, and a unit test keeps the two in step.

use starnuma::{
    Experiment, MigrationMode, RunConfig, ScaleConfig, ScalePreset, SystemKind, Workload,
};

/// One benchmark workload: an experiment at a fixed run length.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub workload: Workload,
    pub system: SystemKind,
    pub phases: usize,
    pub instructions_per_phase: u64,
    pub warmup_instructions: u64,
    /// Worker threads for `JobPool::global()`; at most the 2 cores of the
    /// host the bounds were measured on.
    pub jobs: usize,
    /// `fnv1a_digest(format!("{result:?}"))` of `Experiment::run` at seed 42,
    /// the run ledger's `result_digest`.
    pub digest_seed42: u64,
    /// BENCHMARK.json's `why` line (read only by the test that compares).
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
}

/// The seed whose result digests are pinned in [`SPECS`].
pub const PINNED_SEED: u64 = 42;

/// Measuring time of one untraced run when `--seconds` is absent.
pub const RUN_SECONDS: u64 = 25;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "sssp-starnuma",
        workload: Workload::Sssp,
        system: SystemKind::StarNuma,
        phases: 5,
        instructions_per_phase: 100_000,
        warmup_instructions: 10_000,
        jobs: 1,
        digest_seed42: 0x8325_329e_8291_919c,
        why: "highest MPKI, heaviest queuing, most cache-to-cache and pool traffic: every substrate and the interconnect work hardest",
    },
    Spec {
        name: "poa-starnuma",
        workload: Workload::Poa,
        system: SystemKind::StarNuma,
        phases: 8,
        instructions_per_phase: 250_000,
        warmup_instructions: 25_000,
        jobs: 1,
        digest_seed42: 0x26f5_aa12_8dd1_d36d,
        why: "all-local, nothing migrates: LLC, directory, DRAM and TLB tracker work while network legs, links and the pool idle",
    },
    Spec {
        name: "bfs-baseline",
        workload: Workload::Bfs,
        system: SystemKind::Baseline,
        phases: 8,
        instructions_per_phase: 150_000,
        warmup_instructions: 15_000,
        jobs: 2,
        digest_seed42: 0xe8c2_0fbe_ae36_b361,
        why: "the parallel oracle/first-touch pair on the JobPool, oracle counting instead of the TLB tracker, no pool or CXL",
    },
    Spec {
        name: "tc-starnuma",
        workload: Workload::Tc,
        system: SystemKind::StarNuma,
        phases: 8,
        instructions_per_phase: 2_000_000,
        warmup_instructions: 25_000,
        jobs: 1,
        digest_seed42: 0x0a6e_a70e_d9f2_8d5b,
        why: "read-only 16-sharer pages at low MPKI and MLP 1: directory grows sharer sets, never invalidates, no cache-to-cache",
    },
];

impl Spec {
    /// Looks a workload up by its benchmark name.
    pub fn find(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The experiment this workload times, at `seed`.
    pub fn experiment(&self, seed: u64) -> Experiment {
        Experiment::new(
            self.workload,
            self.system,
            ScaleConfig {
                phases: self.phases,
                instructions_per_phase: self.instructions_per_phase,
                warmup_instructions: self.warmup_instructions,
                seed,
                preset: ScalePreset::Sc1,
            },
        )
    }
}

/// The runs `Experiment::run` makes for `system`: the §IV-C limit-tuned
/// baselines run an oracle-dynamic and a first-touch candidate and keep the
/// one with the higher IPC; every other system runs its own config once.
pub fn candidates(experiment: &Experiment, system: SystemKind) -> Vec<RunConfig> {
    let cfg = experiment.run_config();
    match system {
        SystemKind::Baseline | SystemKind::BaselineIsoBw | SystemKind::Baseline2xBw => {
            let mut dynamic = cfg.clone();
            dynamic.migration = MigrationMode::OracleDynamic;
            let mut zero = cfg;
            zero.migration = MigrationMode::FirstTouchOnly;
            vec![dynamic, zero]
        }
        _ => vec![cfg],
    }
}

/// Index of the candidate `Experiment::run` reports: the first-touch
/// candidate only when its IPC is strictly higher.
pub fn winner(ipcs: &[f64]) -> usize {
    match ipcs {
        [dynamic, zero] if zero > dynamic => 1,
        _ => 0,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric. `moves` names the end-to-end metric a per-layer
/// metric should move (empty for the end-to-end metrics themselves). The
/// binary prints only names and units; the rest is the record BENCHMARK.json
/// and README.md mirror, checked by the unit tests.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [Metric; 4] = [
    e2e("accesses_per_sec", "1/s", Higher, 0.25),
    e2e("minstr_per_sec", "Minstr/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

const APS: &str = "accesses_per_sec";
const SETUP: &str = "setup_s";

pub const PER_LAYER: [Metric; 25] = [
    layer("sim.replay_ns_per_access", "ns", Lower, APS),
    layer("sim.replay_share", "ratio", Lower, APS),
    layer("sim.event_loop_ns_per_access_est", "ns", Lower, APS),
    layer("cache.llc_ns_per_call", "ns", Lower, APS),
    layer("cache.llc_hit_ratio", "ratio", Higher, APS),
    layer("coherence.dir_ns_per_call", "ns", Lower, APS),
    layer("coherence.c2c_frac", "ratio", Lower, APS),
    layer("coherence.inval_per_miss", "count", Lower, APS),
    layer("topology.leg_ns_per_call", "ns", Lower, APS),
    layer("topology.links_per_miss", "count", Lower, APS),
    layer("mem.link_ns_per_call", "ns", Lower, APS),
    layer("mem.link_wait_cycles_per_call", "cycles", Lower, APS),
    layer("mem.dram_ns_per_call", "ns", Lower, APS),
    layer("cache.tlb_track_ns_per_access", "ns", Lower, APS),
    layer("migration.decide_ms_per_phase", "ms", Lower, APS),
    layer("migration.checkpoint_ms_per_phase", "ms", Lower, APS),
    layer("trace.gen_ns_per_access", "ns", Lower, APS),
    layer("trace.scout_ms", "ms", Lower, SETUP),
    layer("migration.placement_ms", "ms", Lower, SETUP),
    layer("sim.model_build_ms", "ms", Lower, SETUP),
    layer("sim.warmup_ms", "ms", Lower, SETUP),
    layer("core.pair_speedup", "ratio", Higher, APS),
    layer("probe.miss_ratio_vs_replay", "ratio", Higher, ""),
    layer("traced.coverage", "ratio", Higher, ""),
    layer("traced.overhead_frac", "ratio", Lower, ""),
];

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma_prof::json::{parse, JsonVal};

    fn field<'a>(v: &'a JsonVal, key: &str) -> &'a JsonVal {
        v.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing key '{key}'"))
    }

    fn text<'a>(v: &'a JsonVal, key: &str) -> &'a str {
        field(v, key)
            .as_str()
            .unwrap_or_else(|| panic!("'{key}' is not a string"))
    }

    fn check_metrics(json: &JsonVal, key: &str, table: &[Metric]) {
        let listed = field(json, key).as_array().expect("metric list");
        assert_eq!(listed.len(), table.len(), "{key}: metric count");
        for (entry, m) in listed.iter().zip(table) {
            assert_eq!(text(entry, "name"), m.name, "{key}");
            assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(text(entry, "better"), m.better.as_str(), "{}", m.name);
            let bound = entry
                .as_object()
                .and_then(|f| f.iter().find(|(k, _)| k == "bound"))
                .and_then(|(_, v)| v.as_num());
            assert_eq!(bound, m.bound, "{}: bound", m.name);
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text_ = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = parse(&text_).expect("BENCHMARK.json parses");
        let command: Vec<&str> = field(&json, "command")
            .as_array()
            .expect("command list")
            .iter()
            .filter_map(JsonVal::as_str)
            .collect();
        assert!(command.contains(&"e2ebench/Cargo.toml"), "{command:?}");
        assert_eq!(
            field(&json, "run_seconds").as_num(),
            Some(RUN_SECONDS as f64)
        );
        let workloads = field(&json, "workloads").as_array().expect("workload list");
        assert_eq!(workloads.len(), SPECS.len());
        for (entry, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(text(entry, "name"), spec.name);
            assert_eq!(text(entry, "why"), spec.why);
        }
        check_metrics(&json, "end_to_end", &END_TO_END);
        check_metrics(&json, "per_layer", &PER_LAYER);
    }

    #[test]
    fn tables_are_consistent() {
        let setup_bound = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .and_then(|m| m.bound);
        for m in &END_TO_END {
            assert!(
                m.bound
                    .is_some_and(|b| b > 0.0 && b <= setup_bound.unwrap_or(0.0)),
                "{}",
                m.name
            );
        }
        let e2e_names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        for m in &PER_LAYER {
            assert!(m.bound.is_none(), "{}", m.name);
            assert!(
                m.moves.is_empty() || e2e_names.contains(&m.moves),
                "{}",
                m.name
            );
        }
        for spec in &SPECS {
            assert!(
                (1..=2).contains(&spec.jobs),
                "{}: at most the host's 2 cores",
                spec.name
            );
            assert_ne!(spec.digest_seed42, 0, "{}: pinned digest", spec.name);
            assert_eq!(Spec::find(spec.name).map(|s| s.name), Some(spec.name));
        }
        assert_eq!(winner(&[1.0, 1.0]), 0, "ties keep the dynamic candidate");
        assert_eq!(winner(&[1.0, 1.5]), 1);
        assert_eq!(winner(&[1.5]), 0);
    }
}
