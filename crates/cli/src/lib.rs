//! Command-line front end for the StarNUMA reproduction.
//!
//! ```text
//! starnuma run      --workload bfs --system starnuma [--json]
//! starnuma compare  --workload bfs [--systems baseline,starnuma,t0] [--json]
//! starnuma sweep    --system starnuma [--workloads bfs,tc] [--json]
//! starnuma topology [--sockets 32] [--full-scale]
//! starnuma workloads
//! starnuma profile  <run|compare|sweep> ...
//! starnuma report   --ledger DIR [--json]
//! starnuma bench-diff <old> <new> [--tolerance 0.2]
//! starnuma inspect  DIR/runs.jsonl [--top N]
//! ```
//!
//! All simulation commands accept `--scale quick|default|full`,
//! `--phases N`, `--instructions N`, `--seed N`, and `--jobs N` (worker
//! threads for independent runs; `STARNUMA_JOBS` sets the default), plus
//! the observability flags `--ledger <dir>` (per run, its section of the
//! run log appended to `<dir>/runs.jsonl`: the run record line, the
//! structured event journal, and the run's per-socket latency histograms)
//! and `--progress` (live run counts on stderr). `report` reads the
//! ledger's records and `inspect` its sections, through one reader.
//! `run --json` and `compare --json` print the record, one line per run.
//! Recording a run does not profile it: only `profile` switches the
//! self-profiler on, and the record's `wall_ns` is the command's wall time.

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

mod args;
mod commands;

pub use args::{ArgError, Args};
pub use commands::higher_is_better;

/// Dispatches one invocation, writes its output to stdout, and returns the
/// process exit code to use. Commands that ran but found problems
/// (`bench-diff` with a regression, `report` with a drift flag) report it
/// through the code, not through an [`ArgError`].
///
/// Every command renders its output into one buffer, written here in one
/// place. A reader that closes the pipe early (`starnuma topology | head
/// -1`) has taken what it wanted: the write's broken pipe ends the command
/// with its own exit code, not with an error.
///
/// # Errors
///
/// Returns [`ArgError`] for unknown commands, bad flags, configurations
/// the model checks reject, or I/O failures on the files a command reads
/// or writes, stdout included.
pub fn run(raw: Vec<String>) -> Result<ExitCode, ArgError> {
    let mut out = String::new();
    let code = dispatch(raw, &mut out)?;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            Err(ArgError(format!("cannot write to stdout: {e}")))
        }
        _ => Ok(code),
    }
}

/// Runs the command `raw` names, rendering its output into `out`.
fn dispatch(raw: Vec<String>, out: &mut String) -> Result<ExitCode, ArgError> {
    if raw.is_empty() || raw[0] == "help" || raw.iter().any(|a| a == "--help") {
        out.push_str(usage());
        out.push('\n');
        return Ok(ExitCode::SUCCESS);
    }
    let args = Args::parse(raw)?;
    let done = |result: Result<(), ArgError>| result.map(|()| ExitCode::SUCCESS);
    match args.command() {
        "run" => done(commands::cmd_run(&args, out)),
        "profile" => done(commands::cmd_profile(&args, out)),
        "compare" => done(commands::cmd_compare(&args, out)),
        "sweep" => done(commands::cmd_sweep(&args, out)),
        "report" => commands::cmd_report(&args, out),
        "bench-diff" => commands::cmd_bench_diff(&args, out),
        "topology" => done(commands::cmd_topology(&args, out)),
        "workloads" => done(commands::cmd_workloads(&args, out)),
        "inspect" => done(commands::cmd_inspect(&args, out)),
        other => Err(ArgError(format!("unknown command '{other}'"))),
    }
}

/// The help text.
pub fn usage() -> &'static str {
    "starnuma — StarNUMA (MICRO 2024) reproduction CLI

commands:
  run       run one experiment
              --workload <name>        (required: sssp|bfs|cc|tc|masstree|tpcc|fmi|poa)
              --system <name>          (default starnuma; see `compare`)
              --replication <frac>     enable §V-F replication with the given
                                       per-socket capacity fraction
              --json                   print the run's record: the run
                                       line --ledger appends (schema 4)
  compare   compare systems on one workload
              --workload <name>        (required)
              --systems a,b,c          (default baseline,starnuma,t0)
              --json                   print one record line per system,
                                       in --systems order
  sweep     one system across workloads
              --system <name>          (default starnuma)
              --workloads a,b,c        (default: all eight)
              --json                   speedups as one JSON document
  topology  print the machine's latency structure
              --sockets <n>            (default 16; a multiple of 4, at most 1024)
              --full-scale             Table I instead of Table II parameters
  workloads list the workload profiles
  profile   run a command under the deterministic self-profiler:
            starnuma profile <run|compare|sweep> <that command's flags>
            prints the top-down wall-time attribution tree (% wall,
            total, calls, ns/call); results stay bit-identical;
            takes no --json (the tree would follow the JSON)
  report    cross-run trends from the run ledger, one row per experiment
            (workload, system, preset, seed, config digest): IPC and
            p95 series with sparklines, and a determinism-drift flag
            for an experiment with more than one result digest;
            exits non-zero on any drift flag
              --ledger <dir>           ledger directory (required)
              --json                   machine-readable output
  bench-diff compare two bench-metric files (flat JSON object or
            BENCH_history.jsonl, keyed <bench>.<metric>, later lines
            superseding earlier):
            starnuma bench-diff <old> <new> [--tolerance FRAC]
            exits non-zero when a metric regresses beyond the band
            in its known-good direction (default tolerance 0.2) or
            when <new> lacks a key of <old>
  inspect   summarize a run log (<dir>/runs.jsonl), one section per
            run: run identity and result digest, the per-phase
            migration timeline, top migrated regions, and the run's
            per-socket access-latency histograms (mean + p95)
              --top <n>                regions to list (default 10)

common simulation flags:
  --scale quick|default|full   --phases N   --instructions N
  --seed N    base RNG seed, at most 2^53
  --jobs N    worker threads for independent runs (default: STARNUMA_JOBS,
              else all cores; results are bit-identical at any worker count)

observability (run, compare, sweep):
  --ledger <dir>        append each run's section to <dir>/runs.jsonl:
                        its record line (schema 4), then its events and
                        per-socket latency histograms; read it back with
                        `starnuma report` and `starnuma inspect`
  --progress            live `k/n runs complete` + ETA lines on stderr

systems: baseline, first-touch, isobw, 2xbw, baseline-static,
         starnuma (t16), t0, halfbw, cxlswitch, smallpool, starnuma-static"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tokens(tokens: &[&str]) -> Result<ExitCode, ArgError> {
        run(tokens.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn help_paths_succeed() {
        assert!(run_tokens(&[]).is_ok());
        assert!(run_tokens(&["help"]).is_ok());
        assert!(run_tokens(&["run", "--help"]).is_ok());
    }

    #[test]
    fn unknown_command_fails() {
        let e = run_tokens(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
    }

    #[test]
    fn workloads_and_topology_commands_work() {
        assert!(run_tokens(&["workloads"]).is_ok());
        assert!(run_tokens(&["topology"]).is_ok());
        assert!(run_tokens(&["topology", "--sockets", "32", "--full-scale"]).is_ok());
        assert!(run_tokens(&["topology", "--sockets", "13"]).is_err());
    }

    #[test]
    fn run_command_validates_flags() {
        let e = run_tokens(&["run"]).unwrap_err();
        assert!(e.to_string().contains("--workload"));
        let e = run_tokens(&["run", "--workload", "nope"]).unwrap_err();
        assert!(e.to_string().contains("unknown workload"));
        let e = run_tokens(&["run", "--workload", "bfs", "--system", "nope"]).unwrap_err();
        assert!(e.to_string().contains("unknown system"));
        let e = run_tokens(&["run", "--workload", "bfs", "--scale", "huge"]).unwrap_err();
        assert!(e.to_string().contains("unknown scale"));
    }

    #[test]
    fn run_executes_a_tiny_experiment() {
        assert!(run_tokens(&[
            "run",
            "--workload",
            "poa",
            "--system",
            "starnuma",
            "--scale",
            "quick",
            "--phases",
            "1",
            "--instructions",
            "4000",
            "--json",
        ])
        .is_ok());
    }

    #[test]
    fn jobs_flag_is_validated() {
        assert!(run_tokens(&[
            "run",
            "--workload",
            "poa",
            "--scale",
            "quick",
            "--phases",
            "1",
            "--instructions",
            "2000",
            "--jobs",
            "2",
            "--json",
        ])
        .is_ok());
        let e = run_tokens(&["run", "--workload", "poa", "--jobs", "0"]).unwrap_err();
        assert!(e.to_string().contains("--jobs"));
        let e = run_tokens(&["run", "--workload", "poa", "--jobs", "many"]).unwrap_err();
        assert!(e.to_string().contains("--jobs"));
    }

    #[test]
    fn sweep_json_is_machine_readable() {
        assert!(run_tokens(&[
            "sweep",
            "--workloads",
            "poa",
            "--scale",
            "quick",
            "--phases",
            "1",
            "--instructions",
            "2000",
            "--jobs",
            "2",
            "--json",
        ])
        .is_ok());
    }

    #[test]
    fn profile_wraps_a_run() {
        let quick_run = [
            "profile",
            "run",
            "--workload",
            "bfs",
            "--scale",
            "quick",
            "--phases",
            "1",
            "--instructions",
            "4000",
            "--jobs",
            "1",
        ];
        assert!(run_tokens(&quick_run).is_ok());
        assert!(run_tokens(&["profile", "topology"]).is_err());
        assert!(run_tokens(&["profile"]).is_err());
        for retired in [
            [&quick_run[..], &["--profile-out", "p.json"]].concat(),
            vec!["inspect", "--profile", "p.json"],
            vec!["inspect", "t.jsonl", "--chrome", "c.json"],
        ] {
            let err = run_tokens(&retired).expect_err("retired flag accepted");
            assert!(err.to_string().contains("unknown flag"), "{err}");
        }
    }

    #[test]
    fn bench_diff_validates_inputs() {
        let dir = std::env::temp_dir().join("starnuma-cli-bench-diff-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let old = dir.join("old.json");
        let new = dir.join("new.jsonl");
        let old_s = old.to_str().expect("utf-8 path");
        let new_s = new.to_str().expect("utf-8 path");
        std::fs::write(
            &old,
            "{\"hot.minstr_per_sec\": 100.0, \"prof.ns_per_scope\": 2.0}\n",
        )
        .expect("write old");
        std::fs::write(
            &new,
            "{\"bench\": \"hot\", \"schema_version\": 1, \"minstr_per_sec\": 95.0}\n\
             {\"bench\": \"prof\", \"schema_version\": 1, \"ns_per_scope\": 2.1}\n",
        )
        .expect("write new");
        assert!(run_tokens(&["bench-diff", old_s, new_s, "--tolerance", "0.25"]).is_ok());
        assert!(run_tokens(&["bench-diff", old_s]).is_err());
        assert!(run_tokens(&["bench-diff", old_s, new_s, "--tolerance", "nope"]).is_err());
        assert!(run_tokens(&["bench-diff", old_s, new_s, "--frobnicate"]).is_err());
        assert!(run_tokens(&["bench-diff", old_s, "/nonexistent/x"]).is_err());
        let _ = std::fs::remove_file(old);
        let _ = std::fs::remove_file(new);
    }

    /// Seeded fuzz of the CLI grammar (no input panics): 3,000 token lists
    /// of command words, every flag `usage` names, stray words and hostile
    /// values (empty, negative, 2^64 − 1, `nan`, `inf`) go through
    /// `Args::parse`, each simulation command's argument check and every
    /// value parser. The commands that start no simulation also go through
    /// full dispatch, on real files. Each list must give text or an
    /// `ArgError`, never a panic; `run`, `compare`, `sweep` and `profile`
    /// are never dispatched, since they would start simulations.
    #[test]
    fn fuzzed_command_lines_never_panic() {
        use crate::commands::{
            parse_jobs, parse_replication, parse_scale, parse_system, parse_tolerance,
            parse_workload, COMPARE_FLAGS, RUN_FLAGS, SIM_FLAGS, SWEEP_FLAGS,
        };
        use starnuma_types::SimRng;

        let dir = std::env::temp_dir().join(format!("starnuma-cli-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let old = dir.join("old.json");
        let new = dir.join("new.jsonl");
        std::fs::write(&old, "{\"hot.minstr_per_sec\": 100.0}\n").expect("write old");
        std::fs::write(
            &new,
            "{\"bench\": \"hot\", \"schema_version\": 1, \"minstr_per_sec\": 95.0}\n",
        )
        .expect("write new");
        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/report");
        let trace = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/report/runs.jsonl"
        );
        let words = [
            "x",
            "run",
            old.to_str().expect("utf-8 path"),
            new.to_str().expect("utf-8 path"),
            fixtures,
            trace,
        ];
        let values = [
            "",
            "-1",
            "18446744073709551615",
            "nan",
            "inf",
            "-inf",
            "0",
            "1",
            "16",
            "0.5",
            "quick",
            "full",
            "bfs",
            "tc,nope",
            "baseline,t0",
            fixtures,
        ];
        let commands = [
            "run",
            "compare",
            "sweep",
            "profile",
            "topology",
            "workloads",
            "report",
            "bench-diff",
            "inspect",
            "help",
            "frobnicate",
        ];
        let mut flags: Vec<String> = usage()
            .split(|c: char| c.is_whitespace() || "()[]".contains(c))
            .filter(|w| w.len() > 2 && w.starts_with("--"))
            .chain(["--help", "--frobnicate"])
            .map(str::to_string)
            .collect();
        flags.sort();
        flags.dedup();
        for flag in RUN_FLAGS.iter().chain(&COMPARE_FLAGS).chain(&SWEEP_FLAGS) {
            assert!(flags.contains(&format!("--{flag}")), "usage lacks --{flag}");
        }
        assert!(flags.len() >= 19, "{flags:?}");
        let pick = |rng: &mut SimRng, from: &[&str]| from[rng.gen_range(0..from.len())].to_string();

        let mut rng = SimRng::seed_from_u64(0xC11_F022);
        let mut rendered = std::collections::BTreeMap::new();
        let mut rejected = 0;
        for case in 0..3_000 {
            let mut tokens = vec![if rng.gen_bool(0.95) {
                pick(&mut rng, &commands)
            } else {
                pick(&mut rng, &values)
            }];
            for _ in 0..rng.gen_range(0..7usize) {
                match rng.gen_range(0..4u32) {
                    0 | 1 => {
                        tokens.push(flags[rng.gen_range(0..flags.len())].clone());
                        if rng.gen_bool(0.8) {
                            tokens.push(pick(&mut rng, &values));
                        }
                    }
                    2 => tokens.push(pick(&mut rng, &words)),
                    _ => tokens.push(pick(&mut rng, &values)),
                }
            }
            let outcome = std::panic::catch_unwind(|| {
                let args = Args::parse(tokens.clone())?;
                for own in [&RUN_FLAGS[..], &COMPARE_FLAGS, &SWEEP_FLAGS] {
                    let _ = args.expect_only(0, &[own, &SIM_FLAGS].concat());
                }
                let _ = (parse_scale(&args), parse_jobs(&args));
                for flag in &flags {
                    let name = &flag[2..];
                    if let Some(v) = args.get(name) {
                        let _ = (parse_workload(v), parse_system(v));
                        let _ = (parse_replication(v), parse_tolerance(v));
                        let _ = args.get_u64(name, 0);
                    }
                }
                if matches!(args.command(), "run" | "compare" | "sweep" | "profile") {
                    return Ok(None);
                }
                let mut out = String::new();
                dispatch(tokens.clone(), &mut out).map(|_| Some(out))
            });
            match outcome {
                Ok(Ok(Some(_))) => *rendered.entry(tokens[0].clone()).or_insert(0) += 1,
                Ok(Ok(None)) => {}
                Ok(Err(_)) => rejected += 1,
                Err(_) => panic!("case {case} panicked: {tokens:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let quiet = [
            "topology",
            "workloads",
            "report",
            "bench-diff",
            "inspect",
            "help",
        ];
        assert!(
            rejected > 0 && quiet.iter().all(|c| rendered.contains_key(*c)),
            "{rejected} rejected; rendered per command: {rendered:?}"
        );
    }

    #[test]
    fn retired_trace_command_is_unknown() {
        for retired in [
            vec!["trace", "gen", "--workload", "bfs", "--out", "t.sntr"],
            vec!["trace", "info", "--in", "t.sntr"],
        ] {
            let err = run_tokens(&retired).expect_err("retired command accepted");
            assert!(err.to_string().contains("unknown command 'trace'"), "{err}");
        }
    }
}
