//! Implementation of the CLI commands.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use starnuma::obs::{
    parse_flat_object, trace_jsonl, try_percentile_from_counts, RunRecord, LEDGER_FILE,
    MAX_EXACT_INT,
};
use starnuma::prof;
use starnuma::{
    geomean, AccessClass, CxlLatencyBreakdown, Experiment, JobPool, LatencyModel, RunResult,
    ScaleConfig, SystemKind, Workload,
};
use starnuma_topology::SystemParams;
use starnuma_types::json::Json;
use starnuma_types::{digest_hex, Location, SocketId};

use crate::args::{ArgError, Args};

/// Resolves a workload name (`bfs`, `BFS`, ...).
pub fn parse_workload(name: &str) -> Result<Workload, ArgError> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            ArgError(format!(
                "unknown workload '{name}' (expected one of: {})",
                Workload::ALL.map(|w| w.name().to_lowercase()).join(", ")
            ))
        })
}

/// Resolves a system-kind name.
pub fn parse_system(name: &str) -> Result<SystemKind, ArgError> {
    let key = name.to_ascii_lowercase().replace(['-', '_'], "");
    let kind = match key.as_str() {
        "baseline" => SystemKind::Baseline,
        "baselinefirsttouch" | "firsttouch" => SystemKind::BaselineFirstTouch,
        "baselineisobw" | "isobw" => SystemKind::BaselineIsoBw,
        "baseline2xbw" | "2xbw" => SystemKind::Baseline2xBw,
        "baselinestatic" | "baselinestaticoracle" => SystemKind::BaselineStaticOracle,
        "starnuma" | "t16" => SystemKind::StarNuma,
        "starnumat0" | "t0" => SystemKind::StarNumaT0,
        "starnumahalfbw" | "halfbw" => SystemKind::StarNumaHalfBw,
        "starnumacxlswitch" | "cxlswitch" => SystemKind::StarNumaCxlSwitch,
        "starnumasmallpool" | "smallpool" => SystemKind::StarNumaSmallPool,
        "starnumastatic" | "starnumastaticoracle" => SystemKind::StarNumaStaticOracle,
        _ => {
            return Err(ArgError(format!(
                "unknown system '{name}' (try: baseline, starnuma, t0, isobw, \
                 2xbw, halfbw, cxlswitch, smallpool, baseline-static, \
                 starnuma-static, first-touch)"
            )))
        }
    };
    Ok(kind)
}

/// The flags `run`, `compare` and `sweep` each take besides [`SIM_FLAGS`].
pub const RUN_FLAGS: [&str; 3] = ["workload", "system", "replication"];
/// See [`RUN_FLAGS`].
pub const COMPARE_FLAGS: [&str; 2] = ["workload", "systems"];
/// See [`RUN_FLAGS`].
pub const SWEEP_FLAGS: [&str; 2] = ["system", "workloads"];

/// The flags `run`, `compare` and `sweep` share.
pub const SIM_FLAGS: [&str; 9] = [
    "scale",
    "phases",
    "instructions",
    "seed",
    "jobs",
    "json",
    "trace-out",
    "ledger",
    "progress",
];

/// The worker count for multi-run commands: `--jobs N` wins, else
/// `STARNUMA_JOBS` (validated here, at harness entry — a typo is an error,
/// not a silent fallback), else the host's available parallelism.
pub fn parse_jobs(args: &Args) -> Result<usize, ArgError> {
    match args.get("jobs") {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| ArgError(format!("--jobs expects a positive integer, got '{v}'"))),
        None => Ok(JobPool::from_env()
            .map_err(|e| ArgError(e.to_string()))?
            .workers()),
    }
}

/// Resolved ledger directory: `--ledger DIR` wins, else the
/// `STARNUMA_LEDGER` environment variable; `None` when neither is set.
fn ledger_dir(args: &Args) -> Option<String> {
    args.get("ledger").map(str::to_string).or_else(|| {
        std::env::var("STARNUMA_LEDGER")
            .ok()
            .filter(|v| !v.is_empty())
    })
}

/// Host-side state of one simulation command, started *before* its runs
/// so the wall timer covers them.
struct Session<'a> {
    args: &'a Args,
    scale: ScaleConfig,
    timer: prof::SessionTimer,
}

impl<'a> Session<'a> {
    /// Checks `args` (no bare words; `flags` plus [`SIM_FLAGS`]), installs
    /// the worker count and the progress meter, resolves the scale, and
    /// starts the wall timer.
    fn start(args: &'a Args, flags: &[&str]) -> Result<Session<'a>, ArgError> {
        args.expect_only(0, &[flags, &SIM_FLAGS].concat())?;
        starnuma::set_global_jobs(parse_jobs(args)?);
        starnuma::set_progress(args.switch("progress"));
        Ok(Session {
            args,
            scale: parse_scale(args)?,
            timer: prof::SessionTimer::start(),
        })
    }

    /// Runs `experiments`, each paired with whether its run is recorded,
    /// and returns their results in input order with the records.
    ///
    /// Every configuration passes the pre-run model checks first, so one
    /// the simulator would reject is an [`ArgError`] listing its problems
    /// instead of a panic mid-run. The runs fan out on the global
    /// [`JobPool`]. A recorded run is observed only when an output needs
    /// its record: `prints_records` (the command prints them), a ledger,
    /// or a trace. Every record carries the command's wall time (the runs
    /// are parallel, so per-run wall time does not exist); then the
    /// `--trace-out` file (one section per record, headed by its line)
    /// and one ledger line per record are written.
    fn run(
        &self,
        experiments: Vec<(Experiment, bool)>,
        prints_records: bool,
    ) -> Result<(Vec<RunResult>, Vec<RunRecord>), ArgError> {
        for (experiment, _) in &experiments {
            experiment
                .run_config()
                .check()
                .map_err(|e| ArgError(e.to_string()))?;
        }
        let trace_out = self.args.get("trace-out");
        let ledger = ledger_dir(self.args);
        let observes = prints_records || trace_out.is_some() || ledger.is_some();
        let runs = JobPool::global().run(experiments, |_, (experiment, recorded)| {
            let (result, report) = experiment.run_with(recorded && observes);
            let observed = report.map(|rep| (experiment.record(&result, &rep), rep));
            (result, observed)
        });
        let wall_ns = self.timer.elapsed_ns();
        let (results, observed): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
        let mut observed: Vec<_> = observed.into_iter().flatten().collect();
        for (record, _) in &mut observed {
            record.wall_ns = wall_ns;
        }
        if let Some(path) = trace_out {
            let trace: String = observed
                .iter()
                .map(|(record, report)| trace_jsonl(record, report))
                .collect();
            std::fs::write(path, trace)
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        }
        if let Some(dir) = ledger {
            let dir = std::path::Path::new(&dir);
            for (record, _) in &observed {
                record
                    .append_to(dir)
                    .map_err(|e| ArgError(format!("cannot write ledger {}: {e}", dir.display())))?;
            }
        }
        Ok((
            results,
            observed.into_iter().map(|(record, _)| record).collect(),
        ))
    }
}

/// Builds a [`ScaleConfig`] from `--scale/--phases/--instructions/--seed`.
pub fn parse_scale(args: &Args) -> Result<ScaleConfig, ArgError> {
    let mut scale = match args.get_or("scale", "default") {
        "quick" => ScaleConfig::quick(),
        "default" => ScaleConfig::default_scale(),
        "full" => ScaleConfig::full(),
        other => {
            return Err(ArgError(format!(
                "unknown scale '{other}' (quick|default|full)"
            )))
        }
    };
    scale.phases = args.get_u64("phases", scale.phases as u64)? as usize;
    scale.instructions_per_phase = args.get_u64("instructions", scale.instructions_per_phase)?;
    scale.seed = args.get_u64("seed", scale.seed)?;
    if scale.seed > MAX_EXACT_INT {
        return Err(ArgError(format!(
            "--seed must be at most 2^53 ({MAX_EXACT_INT}), the largest integer a run \
             record holds exactly; got {}",
            scale.seed
        )));
    }
    Ok(scale)
}

/// The `--replication` value of `run`: a fraction in `[0, 1]`.
pub fn parse_replication(v: &str) -> Result<f64, ArgError> {
    let frac: f64 = v
        .parse()
        .map_err(|_| ArgError(format!("--replication expects a fraction, got '{v}'")))?;
    if !(0.0..=1.0).contains(&frac) {
        return Err(ArgError("--replication must be in [0, 1]".into()));
    }
    Ok(frac)
}

/// `starnuma run --workload W --system S [--replication FRAC] [--json]
/// [--trace-out PATH] [--ledger DIR] [--progress]`
pub fn cmd_run(args: &Args, out: &mut String) -> Result<(), ArgError> {
    let session = Session::start(args, &RUN_FLAGS)?;
    let workload = parse_workload(args.require("workload")?)?;
    let system = parse_system(args.get_or("system", "starnuma"))?;
    let mut experiment = Experiment::new(workload, system, session.scale.clone());
    if let Some(frac) = args.get("replication") {
        experiment = experiment.with_replication(parse_replication(frac)?);
    }
    let json = args.switch("json");
    let (results, records) = session.run(vec![(experiment, true)], json)?;
    if json {
        for record in &records {
            let _ = writeln!(out, "{}", record.to_json_line());
        }
        return Ok(());
    }
    let result = &results[0];
    let _ = writeln!(out, "{workload} on {system}");
    let _ = writeln!(out, "  per-core IPC      {:.3}", result.ipc);
    let _ = writeln!(
        out,
        "  AMAT              {:.0} ns ({:.0} unloaded + {:.0} contention)",
        result.amat_ns, result.unloaded_amat_ns, result.contention_ns
    );
    let _ = writeln!(out, "  observed MPKI     {:.1}", result.mpki);
    let _ = writeln!(
        out,
        "  migrations        {} pages ({:.0}% to pool)",
        result.pages_migrated,
        result.pool_migration_frac() * 100.0
    );
    let _ = writeln!(out, "  access breakdown:");
    for (i, class) in AccessClass::ALL.iter().enumerate() {
        if result.class_fracs[i] > 0.0005 {
            let _ = writeln!(
                out,
                "    {:<10} {:>5.1}%  (mean {:.0} ns)",
                class.label(),
                result.class_fracs[i] * 100.0,
                result.class_mean_ns[i]
            );
        }
    }
    if let Some(reps) = result.replication {
        let _ = writeln!(
            out,
            "  replication       {} regions, peak {} pages, {} collapses",
            reps.regions_replicated, reps.peak_replica_pages, reps.collapses
        );
    }
    Ok(())
}

/// `starnuma compare --workload W [--systems a,b,...] [--json]
/// [--trace-out PATH] [--ledger DIR] [--progress]`
pub fn cmd_compare(args: &Args, out: &mut String) -> Result<(), ArgError> {
    let session = Session::start(args, &COMPARE_FLAGS)?;
    let workload = parse_workload(args.require("workload")?)?;
    let systems: Vec<SystemKind> = args
        .get_or("systems", "baseline,starnuma,t0")
        .split(',')
        .map(parse_system)
        .collect::<Result<_, _>>()?;
    // Every distinct system runs once, the baseline first: it anchors the
    // speedup column. `rows[i]` is the run behind requested system `i`.
    let mut distinct = vec![SystemKind::Baseline];
    let rows: Vec<usize> = systems
        .iter()
        .map(|s| {
            distinct.iter().position(|d| d == s).unwrap_or_else(|| {
                distinct.push(*s);
                distinct.len() - 1
            })
        })
        .collect();
    let experiments = distinct
        .iter()
        .map(|&s| (Experiment::new(workload, s, session.scale.clone()), true))
        .collect();
    let json = args.switch("json");
    // `--json` records every run: one record per distinct system.
    let (results, records) = session.run(experiments, json)?;
    if json {
        for &i in &rows {
            let _ = writeln!(out, "{}", records[i].to_json_line());
        }
        return Ok(());
    }
    let baseline = &results[0];
    let _ = writeln!(
        out,
        "{workload}: comparison against {}",
        SystemKind::Baseline
    );
    let _ = writeln!(
        out,
        "{:<30} {:>8} {:>9} {:>9} {:>8}",
        "system", "IPC", "AMAT(ns)", "cont.(ns)", "speedup"
    );
    for (system, &i) in systems.iter().zip(&rows) {
        let r = &results[i];
        let _ = writeln!(
            out,
            "{:<30} {:>8.3} {:>9.0} {:>9.0} {:>7.2}x",
            system.label(),
            r.ipc,
            r.amat_ns,
            r.contention_ns,
            r.ipc / baseline.ipc
        );
    }
    Ok(())
}

/// `starnuma sweep --system S [--workloads a,b,...] [--json]
/// [--trace-out PATH] [--ledger DIR] [--progress]`
pub fn cmd_sweep(args: &Args, out: &mut String) -> Result<(), ArgError> {
    let session = Session::start(args, &SWEEP_FLAGS)?;
    let scale = &session.scale;
    let system = parse_system(args.get_or("system", "starnuma"))?;
    let workloads: Vec<Workload> = match args.get("workloads") {
        None => Workload::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(parse_workload)
            .collect::<Result<_, _>>()?,
    };
    // Each workload runs on the system and on the baseline, which anchors
    // its speedup. `sweep --json` prints speedups, which no record holds:
    // the system runs are recorded for the ledger and the trace only.
    let experiments = workloads
        .iter()
        .flat_map(|&w| {
            [
                (Experiment::new(w, system, scale.clone()), true),
                (
                    Experiment::new(w, SystemKind::Baseline, scale.clone()),
                    false,
                ),
            ]
        })
        .collect();
    let (results, _) = session.run(experiments, false)?;
    let rows: Vec<(&str, f64)> = workloads
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(w, pair)| {
            let (sys, base) = (&pair[0], &pair[1]);
            let speedup = if base.ipc > 0.0 {
                sys.ipc / base.ipc
            } else {
                0.0
            };
            (w.name(), speedup)
        })
        .collect();
    if args.switch("json") {
        // Self-describing output: a `meta` header (scale preset, worker
        // count, seed, version) plus the per-workload results — so a sweep
        // artifact alone records how it was produced.
        let meta = Json::Obj(vec![
            ("system".into(), Json::Str(system.label().into())),
            ("preset".into(), Json::Str(scale.preset_label().into())),
            ("jobs".into(), Json::Num(JobPool::global().workers() as f64)),
            ("seed".into(), Json::Num(scale.seed as f64)),
            (
                "version".into(),
                Json::Str(env!("CARGO_PKG_VERSION").into()),
            ),
        ]);
        let results = Json::Arr(
            rows.iter()
                .map(|(name, s)| {
                    Json::Obj(vec![
                        ("workload".into(), Json::Str((*name).into())),
                        ("system".into(), Json::Str(system.label().into())),
                        ("speedup".into(), Json::Num(*s)),
                    ])
                })
                .collect(),
        );
        let doc = Json::Obj(vec![("meta".into(), meta), ("results".into(), results)]);
        let _ = writeln!(out, "{}", doc.render());
        return Ok(());
    }
    let _ = writeln!(
        out,
        "speedup of {system} over {} per workload:\n",
        SystemKind::Baseline
    );
    out.push_str(&starnuma::chart::speedup_chart(&rows, 40));
    let speedups: Vec<f64> = rows.iter().map(|(_, s)| *s).collect();
    let _ = writeln!(out, "{:<10} geomean {:.2}x", "", geomean(&speedups));
    Ok(())
}

/// `starnuma topology [--sockets N] [--full-scale]`
pub fn cmd_topology(args: &Args, out: &mut String) -> Result<(), ArgError> {
    args.expect_only(0, &["sockets", "full-scale"])?;
    let sockets = args.get_u64("sockets", 16)? as usize;
    let base = if args.switch("full-scale") {
        SystemParams::full_scale_starnuma()
    } else {
        SystemParams::scaled_starnuma()
    };
    let params = base
        .with_num_sockets(sockets)
        .map_err(|e| ArgError(e.to_string()))?;
    let m = LatencyModel::new(params.clone());
    let _ = writeln!(
        out,
        "{} sockets in {} chassis, {} cores, pool: yes",
        params.num_sockets,
        params.num_chassis(),
        params.total_cores()
    );
    let s0 = SocketId::new(0);
    let _ = writeln!(out, "unloaded latencies from socket 0:");
    let _ = writeln!(
        out,
        "  local   {}",
        m.demand_access(s0, Location::Socket(s0))
    );
    let _ = writeln!(
        out,
        "  1-hop   {}",
        m.demand_access(s0, Location::Socket(SocketId::new(1)))
    );
    let _ = writeln!(
        out,
        "  2-hop   {}",
        m.demand_access(s0, Location::Socket(SocketId::new(4)))
    );
    let _ = writeln!(out, "  pool    {}", m.demand_access(s0, Location::Pool));
    let _ = writeln!(
        out,
        "block transfers: 3-hop avg {}, 4-hop via pool {}",
        m.average_three_hop_transfer(),
        m.four_hop_pool_transfer()
    );
    let b = CxlLatencyBreakdown::paper();
    let _ = writeln!(
        out,
        "CXL breakdown: {} + {} + {} + {} + {} = {} penalty",
        b.cpu_port,
        b.mhd_port,
        b.retimer,
        b.flight,
        b.mhd_internal,
        b.total()
    );
    Ok(())
}

/// `starnuma workloads`
pub fn cmd_workloads(args: &Args, out: &mut String) -> Result<(), ArgError> {
    args.expect_only(0, &[])?;
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>8} {:>5} {:>12} {:>8}",
        "workload", "MPKI", "IPC(1s)", "MLP", "footprint", "classes"
    );
    for w in Workload::ALL {
        let p = w.profile();
        let _ = writeln!(
            out,
            "{:<10} {:>7.1} {:>8.2} {:>5} {:>9} pg {:>8}",
            w.name(),
            p.mpki,
            p.ipc_single_socket,
            p.mlp,
            p.footprint_pages,
            p.classes.len()
        );
    }
    Ok(())
}

/// `starnuma profile <run|compare|sweep> <wrapped flags>`: runs the
/// wrapped command under the deterministic self-profiler and prints the
/// top-down wall-time attribution tree. Profiling never feeds back into
/// the simulation, so the wrapped command's outputs are bit-identical to
/// an unprofiled invocation. `--json` is rejected: the tree follows the
/// wrapped command's output, so stdout would not be JSON.
pub fn cmd_profile(args: &Args, out: &mut String) -> Result<(), ArgError> {
    let inner = args
        .rewrap()
        .filter(|inner| matches!(inner.command(), "run" | "compare" | "sweep"))
        .ok_or_else(|| {
            ArgError(
                "profile wraps a simulation command: \
                 starnuma profile <run|compare|sweep> ..."
                    .into(),
            )
        })?;
    let sub = inner.command();
    if args.switch("json") {
        return Err(ArgError(format!(
            "profile cannot take --json: it prints the attribution tree after \
             the {sub} output, so stdout would not be JSON; drop profile to get \
             the JSON, or --json to get the tree"
        )));
    }
    prof::reset();
    prof::set_enabled(true);
    let timer = prof::SessionTimer::start();
    let dispatched = match sub {
        "run" => cmd_run(&inner, out),
        "compare" => cmd_compare(&inner, out),
        _ => cmd_sweep(&inner, out),
    };
    let wall_ns = timer.elapsed_ns();
    prof::set_enabled(false);
    let report = prof::snapshot();
    dispatched?;
    let _ = writeln!(out);
    out.push_str(&report.render_tree(wall_ns));
    Ok(())
}

/// Loads bench metrics from a flat JSON object file or a
/// `BENCH_history.jsonl` file. Every non-empty line must be a flat JSON
/// object. A line's numeric fields are keyed `<bench>.<metric>`
/// (`<bench>+trace.<metric>` for a traced line), or by the bare `<metric>`
/// of a line with no `bench` field, so workloads never overwrite one
/// another and traced lines stay apart from untraced ones. A later line
/// supersedes an earlier one's value, so a history compares at its most
/// recent state. Identity fields (`bench`, `schema_version`, `smoke`,
/// `version`, `trace`) are not metrics.
fn load_bench_metrics(path: &str) -> Result<BTreeMap<String, f64>, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    if text.trim().is_empty() {
        return Err(ArgError(format!("{path}: no metric lines")));
    }
    let mut metrics = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_flat_object(line)
            .ok_or_else(|| ArgError(format!("{path}:{}: not a flat JSON object line", i + 1)))?;
        let bench = obj.get("bench").and_then(Json::as_str).map(|bench| {
            let traced = obj.get("trace").and_then(Json::as_num).unwrap_or(0.0) != 0.0;
            format!("{bench}{}", if traced { "+trace" } else { "" })
        });
        for (metric, value) in &obj {
            if matches!(metric.as_str(), "schema_version" | "smoke" | "trace") {
                continue;
            }
            let Some(n) = value.as_num().filter(|n| n.is_finite()) else {
                continue;
            };
            let key = match &bench {
                Some(bench) => format!("{bench}.{metric}"),
                None => metric.clone(),
            };
            metrics.insert(key, n);
        }
    }
    Ok(metrics)
}

/// The known-good direction of a bench metric, inferred from its key.
/// Throughput-style metrics regress when they fall; latency, overhead,
/// set-up time (`_s`) and memory (`_mib`) when they rise; anything else
/// is reported without judgement.
pub fn higher_is_better(key: &str) -> Option<bool> {
    if key.contains("per_sec") || key.contains("speedup") || key.contains("minstr") {
        Some(true)
    } else if key.contains("_ns")
        || key.contains("ns_per")
        || key.ends_with("_ms")
        || key.ends_with("_s")
        || key.ends_with("_mib")
    {
        Some(false)
    } else {
        None
    }
}

/// Renders the metric-by-metric comparison and counts regressions: shared
/// keys whose value moved beyond the tolerance band in the bad direction,
/// and old keys that `new` does not report at all, so a floor no bench
/// fills (a misspelt or retired key) fails instead of passing unchecked.
fn bench_diff_report(
    old: &BTreeMap<String, f64>,
    new: &BTreeMap<String, f64>,
    tolerance: f64,
) -> (String, usize) {
    let mut out = String::new();
    let mut regressions = 0usize;
    // Bench-qualified keys run long; size the column to the longest.
    let w = old
        .keys()
        .chain(new.keys())
        .map(String::len)
        .fold(44, usize::max);
    let _ = writeln!(
        out,
        "{:<w$} {:>12} {:>12} {:>8}  verdict",
        "metric", "old", "new", "delta"
    );
    for (key, &old_v) in old {
        let Some(&new_v) = new.get(key) else {
            regressions += 1;
            let _ = writeln!(
                out,
                "{key:<w$} {old_v:>12.3} {:>12}  MISSING (no bench reported it)",
                "-"
            );
            continue;
        };
        let delta = if old_v == 0.0 {
            if new_v == 0.0 {
                0.0
            } else {
                f64::INFINITY * new_v.signum()
            }
        } else {
            (new_v - old_v) / old_v.abs()
        };
        let verdict = match higher_is_better(key) {
            Some(true) if delta < -tolerance => {
                regressions += 1;
                "REGRESSION"
            }
            Some(false) if delta > tolerance => {
                regressions += 1;
                "REGRESSION"
            }
            Some(_) => "ok",
            None => "info",
        };
        let _ = writeln!(
            out,
            "{key:<w$} {old_v:>12.3} {new_v:>12.3} {:>+7.1}%  {verdict}",
            delta * 100.0
        );
    }
    for (key, &new_v) in new {
        if !old.contains_key(key) {
            let _ = writeln!(out, "{key:<w$} {:>12} {new_v:>12.3}  (new metric)", "-");
        }
    }
    (out, regressions)
}

/// The `--tolerance` value of `bench-diff`: a finite, non-negative
/// fraction.
pub fn parse_tolerance(v: &str) -> Result<f64, ArgError> {
    v.parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| {
            ArgError(format!(
                "--tolerance expects a non-negative fraction, got '{v}'"
            ))
        })
}

/// `starnuma bench-diff <old> <new> [--tolerance FRAC]`: compares two
/// bench-metric files (flat JSON objects or `BENCH_history.jsonl`) and
/// exits non-zero when any shared metric regressed beyond the tolerance
/// band in its known-good direction, or when `<new>` lacks a key of
/// `<old>` — the CI perf gate.
pub fn cmd_bench_diff(args: &Args, out: &mut String) -> Result<ExitCode, ArgError> {
    let [old_path, new_path] = args.expect_only(2, &["tolerance"])? else {
        return Err(ArgError(
            "bench-diff needs two files: starnuma bench-diff <old> <new> [--tolerance FRAC]".into(),
        ));
    };
    let tolerance = args.get("tolerance").map_or(Ok(0.2), parse_tolerance)?;
    let old = load_bench_metrics(old_path)?;
    let new = load_bench_metrics(new_path)?;
    let (table, regressions) = bench_diff_report(&old, &new, tolerance);
    let _ = writeln!(
        out,
        "bench-diff: {old_path} -> {new_path} (tolerance {:.0}%)",
        tolerance * 100.0
    );
    out.push_str(&table);
    if regressions == 0 {
        let _ = writeln!(out, "no regressions beyond the tolerance band");
        Ok(ExitCode::SUCCESS)
    } else {
        let _ = writeln!(
            out,
            "{regressions} metric(s) regressed beyond the tolerance band or went missing"
        );
        Ok(ExitCode::FAILURE)
    }
}

/// The identity fields of `r`'s experiment, which `starnuma report`
/// groups trends by, as JSON object members.
fn identity_json(r: &RunRecord) -> Vec<(String, Json)> {
    vec![
        ("workload".into(), Json::Str(r.workload.clone())),
        ("system".into(), Json::Str(r.system.clone())),
        ("preset".into(), Json::Str(r.preset.clone())),
        ("seed".into(), Json::Num(r.seed as f64)),
        (
            "config_digest".into(),
            Json::Str(digest_hex(r.config_digest)),
        ),
    ]
}

/// The distinct values of `key` over `records`, in ledger order.
fn distinct<'a, T: PartialEq>(
    records: &[&'a RunRecord],
    key: impl Fn(&'a RunRecord) -> T,
) -> Vec<T> {
    let mut values = Vec::new();
    for &r in records {
        let value = key(r);
        if !values.contains(&value) {
            values.push(value);
        }
    }
    values
}

/// `starnuma report [--ledger DIR] [--json]`: cross-run trends from the
/// run ledger — per-experiment IPC/p95 series with sparklines and
/// determinism-drift flags (one experiment, more than one result digest).
/// Exits non-zero on any drift flag, so CI can gate on it.
pub fn cmd_report(args: &Args, out: &mut String) -> Result<ExitCode, ArgError> {
    args.expect_only(0, &["ledger", "json"])?;
    let dir = ledger_dir(args).ok_or_else(|| {
        ArgError("report needs a ledger: pass --ledger DIR or set STARNUMA_LEDGER".into())
    })?;
    let ledger_path = std::path::Path::new(&dir).join(LEDGER_FILE);
    let shown_path = ledger_path.display().to_string();
    let text = std::fs::read_to_string(&ledger_path)
        .map_err(|e| ArgError(format!("cannot read {shown_path}: {e}")))?;
    let mut records: Vec<RunRecord> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(RunRecord::from_json_line(line).ok_or_else(|| {
            ArgError(format!(
                "{shown_path}:{}: not a valid ledger record (schema {})",
                i + 1,
                starnuma::obs::LEDGER_SCHEMA_VERSION
            ))
        })?);
    }

    // Group into per-experiment trends, preserving file order inside each
    // group (the ledger is append-only, so file order is time order). An
    // experiment is one (workload, system, preset, seed, config digest):
    // records that differ in any of these never form one trend.
    type Identity<'a> = (&'a str, &'a str, &'a str, u64, u64);
    let mut groups: BTreeMap<Identity, Vec<&RunRecord>> = BTreeMap::new();
    for r in &records {
        let identity = (
            r.workload.as_str(),
            r.system.as_str(),
            r.preset.as_str(),
            r.seed,
            r.config_digest,
        );
        groups.entry(identity).or_default().push(r);
    }
    // Every group holds at least one record; its first names the experiment.
    let groups: Vec<Vec<&RunRecord>> = groups.into_values().collect();
    // One experiment must always reproduce one result: more than one
    // result digest in a group is determinism drift.
    let drift: Vec<(&[&RunRecord], Vec<u64>)> = groups
        .iter()
        .map(|g| (g.as_slice(), distinct(g, |r| r.result_digest)))
        .filter(|(_, digests)| digests.len() > 1)
        .collect();

    let trend_row = |g: &[&RunRecord]| -> (f64, f64, f64, String) {
        let ipc_series: Vec<f64> = g.iter().map(|r| r.ipc).collect();
        let last = *ipc_series.last().unwrap_or(&0.0);
        let delta = if ipc_series.len() >= 2 {
            last - ipc_series[ipc_series.len() - 2]
        } else {
            0.0
        };
        let p95 = g.last().map_or(0.0, |r| r.overall.p95_ns);
        (last, delta, p95, sparkline(&ipc_series))
    };

    if args.switch("json") {
        let experiments = Json::Arr(
            groups
                .iter()
                .map(|g| {
                    let (last, delta, p95, _) = trend_row(g);
                    let mut members = identity_json(g[0]);
                    members.extend([
                        ("runs".into(), Json::Num(g.len() as f64)),
                        ("ipc_last".into(), Json::Num(last)),
                        ("ipc_delta".into(), Json::Num(delta)),
                        ("p95_ns_last".into(), Json::Num(p95)),
                        (
                            "ipc_series".into(),
                            Json::Arr(g.iter().map(|r| Json::Num(r.ipc)).collect()),
                        ),
                    ]);
                    Json::Obj(members)
                })
                .collect(),
        );
        let drift_json = Json::Arr(
            drift
                .iter()
                .map(|(g, digests)| {
                    let mut members = identity_json(g[0]);
                    members.extend([
                        (
                            "result_digests".into(),
                            Json::Arr(digests.iter().map(|x| Json::Str(digest_hex(*x))).collect()),
                        ),
                        (
                            "versions".into(),
                            Json::Arr(
                                distinct(g, |r| r.version.as_str())
                                    .into_iter()
                                    .map(|v| Json::Str(v.to_string()))
                                    .collect(),
                            ),
                        ),
                    ]);
                    Json::Obj(members)
                })
                .collect(),
        );
        let doc = vec![
            ("ledger".into(), Json::Str(shown_path.clone())),
            ("records".into(), Json::Num(records.len() as f64)),
            ("experiments".into(), experiments),
            ("drift".into(), drift_json),
        ];
        let _ = writeln!(out, "{}", Json::Obj(doc).render());
    } else {
        let _ = writeln!(out, "run ledger {shown_path}: {} record(s)", records.len());
        if !groups.is_empty() {
            let _ = writeln!(out, "experiment trends (oldest -> newest):");
            let _ = writeln!(
                out,
                "{:<10} {:<30} {:<6} {:>5} {:<18} {:>5} {:>10} {:>8} {:>10}  trend",
                "workload",
                "system",
                "preset",
                "seed",
                "config",
                "runs",
                "IPC last",
                "dIPC",
                "p95(ns)"
            );
            for g in &groups {
                let (last, delta, p95, spark) = trend_row(g);
                let r = g[0];
                let _ = writeln!(
                    out,
                    "{:<10} {:<30} {:<6} {:>5} {:<18} {:>5} {last:>10.3} {delta:>+8.3} \
                     {p95:>10.0}  |{spark}|",
                    r.workload,
                    r.system,
                    r.preset,
                    r.seed,
                    digest_hex(r.config_digest),
                    g.len(),
                );
            }
        }
        if drift.is_empty() {
            let _ = writeln!(out, "determinism drift: none");
        } else {
            let _ = writeln!(out, "determinism drift: {} flag(s)", drift.len());
            for (g, digests) in &drift {
                let r = g[0];
                let _ = writeln!(
                    out,
                    "  {} on {} [{} seed {} config {}]: {} result digests across versions {}",
                    r.workload,
                    r.system,
                    r.preset,
                    r.seed,
                    digest_hex(r.config_digest),
                    digests.len(),
                    distinct(g, |r| r.version.as_str()).join(", "),
                );
                for x in digests {
                    let _ = writeln!(out, "    {}", digest_hex(*x));
                }
            }
        }
    }
    if !drift.is_empty() {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// One run's section of a `--trace-out` file: the run record that heads
/// it, then its `event` and `hist` lines. A multi-run file (from
/// `compare` or `sweep --trace-out`) concatenates sections.
struct TraceSection {
    record: RunRecord,
    events: Vec<BTreeMap<String, Json>>,
    hists: Vec<BTreeMap<String, Json>>,
}

fn num_of(obj: &BTreeMap<String, Json>, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

fn str_of<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> &'a str {
    obj.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// Parses the text of the `--trace-out` file at `path` into sections, one
/// per `run` line.
fn parse_trace(path: &str, text: &str) -> Result<Vec<TraceSection>, ArgError> {
    let mut sections: Vec<TraceSection> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = || format!("{path}:{}", i + 1);
        let obj = parse_flat_object(line)
            .ok_or_else(|| ArgError(format!("{}: not a flat JSON object line", at())))?;
        let kind = obj
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ArgError(format!("{}: line has no type field", at())))?;
        if kind == "run" {
            let record = RunRecord::from_json_line(line).ok_or_else(|| {
                ArgError(format!(
                    "{}: not a valid run record (schema {})",
                    at(),
                    starnuma::obs::LEDGER_SCHEMA_VERSION
                ))
            })?;
            sections.push(TraceSection {
                record,
                events: Vec::new(),
                hists: Vec::new(),
            });
            continue;
        }
        let section = sections
            .last_mut()
            .ok_or_else(|| ArgError(format!("{}: '{kind}' line before any run line", at())))?;
        match kind {
            "event" => section.events.push(obj),
            "hist" => section.hists.push(obj),
            other => return Err(ArgError(format!("{}: unknown line type '{other}'", at()))),
        }
    }
    if sections.is_empty() {
        return Err(ArgError(format!(
            "{path}: no run line — not a starnuma trace"
        )));
    }
    Ok(sections)
}

/// A 32-column sparkline over histogram buckets (log2-ns, bucket i covers
/// `[2^(i-1), 2^i)` ns).
fn sparkline(buckets: &[f64]) -> String {
    const LEVELS: [char; 5] = [' ', '.', ':', '*', '#'];
    let max = buckets.iter().cloned().fold(0.0_f64, f64::max);
    buckets
        .iter()
        .map(|&b| {
            if b <= 0.0 || max <= 0.0 {
                LEVELS[0]
            } else {
                // Non-empty buckets always render at least a '.'.
                let idx = 1 + ((b / max) * (LEVELS.len() - 2) as f64).round() as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

/// Renders one trace section as text: run identity and result digest,
/// the per-phase migration-decision timeline, the most-migrated regions,
/// and the run's per-socket latency histograms.
fn render_section(section: &TraceSection, top: usize) -> String {
    let mut out = String::new();
    let r = &section.record;
    let _ = writeln!(
        out,
        "== {} on {} [{} seed {} jobs {} v{}] — {} events ({} dropped) — result {}",
        r.workload,
        r.system,
        r.preset,
        r.seed,
        r.jobs,
        r.version,
        section.events.len(),
        r.dropped_events,
        digest_hex(r.result_digest),
    );

    // Migration-decision timeline: per phase that any event mentions, the
    // checkpoint summary plus aggregated policy events.
    let mut by_phase: BTreeMap<u64, Vec<&BTreeMap<String, Json>>> = BTreeMap::new();
    for e in &section.events {
        by_phase
            .entry(num_of(e, "phase") as u64)
            .or_default()
            .push(e);
    }
    if by_phase.is_empty() {
        // Zero-event traces are legal (a run can complete without a single
        // journal event); say so instead of printing an empty timeline.
        let _ = writeln!(out, "  (no events recorded)");
    } else {
        let _ = writeln!(out, "migration timeline:");
    }
    for (phase, in_phase) in &by_phase {
        let mut line = format!("  phase {phase}:");
        if let Some(cp) = in_phase
            .iter()
            .find(|e| str_of(e, "name") == "phase_checkpoint")
        {
            line += &format!(
                " planned {} modeled {} (budget {})",
                num_of(cp, "planned_moves"),
                num_of(cp, "modeled_moves"),
                num_of(cp, "budget_pages"),
            );
        }
        let migrated: Vec<_> = in_phase
            .iter()
            .filter(|e| str_of(e, "name") == "region_migrated")
            .collect();
        let pages: u64 = migrated.iter().map(|e| num_of(e, "pages") as u64).sum();
        line += &format!(" | {} regions -> {pages} pages", migrated.len());
        let evictions = in_phase
            .iter()
            .filter(|e| str_of(e, "name") == "pool_victim_evicted")
            .count();
        if evictions > 0 {
            line += &format!(" | {evictions} evictions");
        }
        let pressure = in_phase
            .iter()
            .filter(|e| str_of(e, "cat") == "pool_pressure" && str_of(e, "level") == "warn")
            .count();
        if pressure > 0 {
            line += &format!(" | {pressure} pool-pressure warnings");
        }
        if let Some(adapt) = in_phase
            .iter()
            .rfind(|e| str_of(e, "name") == "hi_threshold_adapted")
        {
            line += &format!(
                " | hi {} -> {}",
                num_of(adapt, "old_hi"),
                num_of(adapt, "new_hi")
            );
        }
        if in_phase
            .iter()
            .any(|e| str_of(e, "name") == "migration_limit_reached")
        {
            line += " | LIMIT HIT";
        }
        let _ = writeln!(out, "{line}");
    }

    // Top-N migrated regions by pages moved.
    let mut per_region: BTreeMap<u64, (f64, usize, String)> = BTreeMap::new();
    for e in &section.events {
        if str_of(e, "name") != "region_migrated" {
            continue;
        }
        let entry = per_region
            .entry(num_of(e, "region") as u64)
            .or_insert((0.0, 0, String::new()));
        entry.0 += num_of(e, "pages");
        entry.1 += 1;
        entry.2 = str_of(e, "dest").to_string();
    }
    if !per_region.is_empty() {
        let mut ranked: Vec<_> = per_region.into_iter().collect();
        ranked.sort_by(|a, b| {
            b.1 .0
                .partial_cmp(&a.1 .0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let _ = writeln!(
            out,
            "top {} migrated regions (by pages):",
            top.min(ranked.len())
        );
        for (region, (pages, moves, dest)) in ranked.into_iter().take(top) {
            let _ = writeln!(
                out,
                "  region {region:<8} {pages:>8} pages  last dest {dest:<10} ({moves} moves)"
            );
        }
    }

    // Per-socket latency histograms (log2-ns buckets, 1 ns .. 2^31 ns),
    // classes in access-class order.
    let mut hists: Vec<_> = section
        .hists
        .iter()
        .map(|h| {
            let class = str_of(h, "class");
            let rank = AccessClass::ALL
                .iter()
                .position(|c| c.label() == class)
                .unwrap_or(usize::MAX);
            (num_of(h, "socket") as u64, rank, class, h)
        })
        .collect();
    hists.sort_by_key(|&(socket, rank, class, _)| (socket, rank, class));
    if !hists.is_empty() {
        let _ = writeln!(
            out,
            "per-socket access-latency histograms (32 log2-ns buckets):"
        );
        for (socket, _, class, h) in hists {
            let buckets: Vec<f64> = h
                .get("buckets")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|b| b.as_num().unwrap_or(0.0))
                .collect();
            // An empty histogram has no p95; render `-` rather than a
            // `0 ns` that is indistinguishable from a real measurement.
            let p95 = match try_percentile_from_counts(&buckets, 0.95) {
                Some(p) => format!("{p:>7.0}"),
                None => format!("{:>7}", "-"),
            };
            let _ = writeln!(
                out,
                "  socket {socket:>3} {class:<10} count {:>10} mean {:>7.0} ns p95 {p95} ns |{}|",
                num_of(h, "count"),
                num_of(h, "mean_ns"),
                sparkline(&buckets),
            );
        }
    }

    if !r.counters.is_empty() {
        let _ = writeln!(
            out,
            "substrate counters: {} keys (see --trace-out JSONL)",
            r.counters.len()
        );
    }
    out.push('\n');
    out
}

/// `starnuma inspect <trace.jsonl> [--top N]`: renders a human summary
/// of a `--trace-out` file — run identity and result digest (to match
/// each section to its ledger line), the per-phase migration-decision
/// timeline, the most-migrated regions, and per-socket access-latency
/// histograms.
pub fn cmd_inspect(args: &Args, out: &mut String) -> Result<(), ArgError> {
    let [path] = args.expect_only(1, &["top"])? else {
        return Err(ArgError(
            "inspect needs a trace file: starnuma inspect <trace.jsonl>".into(),
        ));
    };
    let top = args.get_u64("top", 10)? as usize;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let sections = parse_trace(path, &text)?;
    for section in &sections {
        out.push_str(&render_section(section, top));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded fuzz of `inspect` (no input panics): 2,000 copies of a real
    /// quick-scale BFS trace, each truncated or with one to three bytes
    /// overwritten, go through the trace parser and the renderer. Each
    /// must give an `ArgError` or text, never a panic, and both outcomes
    /// must occur.
    #[test]
    fn damaged_traces_never_panic_inspect() {
        use starnuma_types::SimRng;

        let experiment = Experiment::new(Workload::Bfs, SystemKind::StarNuma, ScaleConfig::quick());
        let (result, report) = experiment.run_with(true);
        let report = report.expect("observed run");
        let trace = trace_jsonl(&experiment.record(&result, &report), &report);
        let intact = parse_trace("t.jsonl", &trace).expect("intact trace parses");
        assert!(render_section(&intact[0], 10).contains("migration timeline:"));

        let mut rng = SimRng::seed_from_u64(0x1A5_9EC7);
        let (mut rendered, mut rejected) = (0, 0);
        for case in 0..2_000 {
            let mut bytes = trace.as_bytes().to_vec();
            if rng.gen_bool(0.5) {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            } else {
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.next_u64().to_le_bytes()[0];
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let outcome = std::panic::catch_unwind(|| {
                parse_trace("t.jsonl", &text).map(|sections| {
                    sections
                        .iter()
                        .map(|section| render_section(section, 10))
                        .collect::<String>()
                })
            });
            match outcome {
                Ok(Ok(_)) => rendered += 1,
                Ok(Err(_)) => rejected += 1,
                Err(_) => panic!("case {case} panicked inspect"),
            }
        }
        assert!(
            rendered > 0 && rejected > 0,
            "{rendered} rendered, {rejected} rejected"
        );
    }

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn bench_diff_is_direction_aware() {
        let old = metrics(&[
            ("hot.minstr_per_sec", 100.0),
            ("e2e.sssp+trace.cache.llc_ns_per_call", 2.0),
            ("e2e.bfs.peak_rss_mib", 100.0),
            ("e2e.bfs.setup_s", 0.2),
            ("misc.count", 10.0),
        ]);
        // Throughput down 30%, LLC ns per call up 50%, memory up 40% and
        // set-up time up 50%: all four regress at 20%.
        let new = metrics(&[
            ("hot.minstr_per_sec", 70.0),
            ("e2e.sssp+trace.cache.llc_ns_per_call", 3.0),
            ("e2e.bfs.peak_rss_mib", 140.0),
            ("e2e.bfs.setup_s", 0.3),
            ("misc.count", 99.0),
        ]);
        let (table, regressions) = bench_diff_report(&old, &new, 0.2);
        assert_eq!(regressions, 4);
        assert!(table
            .lines()
            .any(|l| l.starts_with("e2e.bfs.peak_rss_mib") && l.ends_with("REGRESSION")));
        assert!(table
            .lines()
            .any(|l| l.starts_with("e2e.bfs.setup_s") && l.ends_with("REGRESSION")));
        assert!(table.contains("REGRESSION"));
        // The direction-less key is informational however far it moves.
        assert!(table.contains("misc.count"));
        assert!(table.contains("info"));
        // Generous tolerance clears all four.
        let (_, regressions) = bench_diff_report(&old, &new, 0.6);
        assert_eq!(regressions, 0);
    }

    #[test]
    fn bench_diff_improvements_are_not_regressions() {
        let old = metrics(&[
            ("hot.minstr_per_sec", 100.0),
            ("e2e.sssp+trace.cache.llc_ns_per_call", 2.0),
            ("e2e.bfs.peak_rss_mib", 100.0),
            ("e2e.bfs.setup_s", 0.2),
        ]);
        let new = metrics(&[
            ("hot.minstr_per_sec", 300.0),
            ("e2e.sssp+trace.cache.llc_ns_per_call", 0.5),
            ("e2e.bfs.peak_rss_mib", 60.0),
            ("e2e.bfs.setup_s", 0.1),
        ]);
        let (_, regressions) = bench_diff_report(&old, &new, 0.05);
        assert_eq!(regressions, 0);
    }

    /// A key of the old file that the new file lacks is a failure named on
    /// its row: a misspelt or retired floor must not pass unchecked.
    #[test]
    fn bench_diff_reports_added_and_removed_metrics() {
        let old = metrics(&[("gone.speedup", 2.0)]);
        let new = metrics(&[("fresh.speedup", 3.0)]);
        let (table, regressions) = bench_diff_report(&old, &new, 0.2);
        assert_eq!(regressions, 1);
        let missing = table
            .lines()
            .find(|l| l.contains("MISSING"))
            .expect("missing row");
        assert!(missing.starts_with("gone.speedup"), "{table}");
        assert!(table.contains("(new metric)"));
    }

    /// Writes `text` to a per-test temp file and returns its path.
    fn history(name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join("starnuma-cli-bench-load-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write history");
        path.to_str().expect("utf-8 path").to_string()
    }

    #[test]
    fn bench_metrics_load_merges_history_lines() {
        let path = history(
            "merge.jsonl",
            "{\"bench\": \"hot\", \"schema_version\": 1, \"a.x_ns\": 5}\n\
             {\"bench\": \"hot\", \"schema_version\": 1, \"a.x_ns\": 7, \"b.per_sec\": 2}\n",
        );
        let m = load_bench_metrics(&path).expect("loads");
        // Later lines supersede earlier ones; identity keys are dropped.
        assert_eq!(m.get("hot.a.x_ns"), Some(&7.0));
        assert_eq!(m.get("hot.b.per_sec"), Some(&2.0));
        assert_eq!(m.len(), 2);
        assert!(load_bench_metrics("/nonexistent/x").is_err());
        assert!(load_bench_metrics(&history("blank.jsonl", "\n \n")).is_err());
    }

    /// The four e2e workloads, traced and untraced, keep their identity: no
    /// line overwrites another's metrics.
    #[test]
    fn bench_metrics_keep_bench_identity() {
        let line = |bench: &str, trace: u8, metric: &str| {
            format!(
                "{{\"schema_version\":1,\"bench\":\"e2e.{bench}\",\"smoke\":0,\"version\":\"0.1.0\",\"seed\":42,\"trace\":{trace},\"{metric}\":1}}\n"
            )
        };
        let mut text = String::new();
        for w in [
            "sssp-starnuma",
            "poa-starnuma",
            "bfs-baseline",
            "tc-starnuma",
        ] {
            text += &line(w, 0, "accesses_per_sec");
        }
        text += &line("sssp-starnuma", 1, "accesses_per_sec");
        let new = load_bench_metrics(&history("e2e.jsonl", &text)).expect("loads");
        let rates: Vec<&str> = new
            .keys()
            .filter(|k| k.ends_with(".accesses_per_sec"))
            .map(String::as_str)
            .collect();
        assert_eq!(
            rates,
            [
                "e2e.bfs-baseline.accesses_per_sec",
                "e2e.poa-starnuma.accesses_per_sec",
                "e2e.sssp-starnuma+trace.accesses_per_sec",
                "e2e.sssp-starnuma.accesses_per_sec",
                "e2e.tc-starnuma.accesses_per_sec",
            ]
        );
        assert!(!new.keys().any(|k| k.ends_with(".trace")));
    }
}
