//! `e2e`: the simulator's end-to-end and per-layer host-time benchmark.
//!
//! Untraced runs time `Experiment::run`, the public entry point, trial
//! after trial for `--seconds`, and report medians scaled to a reference
//! host speed. `--trace 1` runs the stepwise runner and the substrate
//! probes for the per-layer metrics.
//! README.md defines every metric and says why each workload is there.

mod probe;
mod spec;
mod stepwise;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use starnuma::report::Json;
use starnuma::{set_global_jobs, JobPool, RunConfig, RunResult, WorkloadProfile};
use starnuma_types::{digest_hex, fnv1a_digest};

use probe::Probe;
use spec::{
    candidates, winner, Metric, Spec, END_TO_END, PER_LAYER, PINNED_SEED, RUN_SECONDS, SPECS,
};
use stepwise::{Counters, Tracer};

const USAGE: &str = "usage: e2e --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]";
/// Untraced runs time at least this many trials, however short `--seconds`.
const MIN_TRIALS: usize = 3;

#[derive(Debug)]
struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let slot: &mut Option<&str> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown flag '{other}'")),
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if slot.replace(value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let name = workload.ok_or("missing --workload")?;
    let spec = Spec::find(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })?;
    let seed = seed.ok_or("missing --seed")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed must be a non-negative integer, got '{seed}'"))?;
    let seconds = match seconds {
        None => RUN_SECONDS,
        Some(s) => s
            .parse::<u64>()
            .ok()
            .filter(|n| (1..=600).contains(n))
            .ok_or_else(|| format!("--seconds must be an integer in 1..=600, got '{s}'"))?,
    };
    let trace = match trace {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// `[q1, median, q3]` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    if d.len() < 2 {
        return [d.first().copied().unwrap_or(0.0); 3];
    }
    let ld = d.len() as i64;
    let m = ld + 1;
    [1, 2, 3].map(|i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// The run ledger's `result_digest`.
fn digest(r: &RunResult) -> u64 {
    fnv1a_digest(format!("{r:?}").as_bytes())
}

/// Why `r` fails the benchmark's checks; empty when it passes. `expected`
/// lists digests `r` must match (the pinned one, the first trial's).
fn problems(r: &RunResult, digest: u64, expected: &[u64]) -> Vec<String> {
    let mut out = Vec::new();
    for &want in expected {
        if digest != want {
            out.push(format!(
                "result digest {} differs from expected {}",
                digest_hex(digest),
                digest_hex(want)
            ));
        }
    }
    if !(r.ipc.is_finite() && r.ipc > 0.0) {
        out.push(format!("IPC {} is not finite and positive", r.ipc));
    }
    let fracs: f64 = r.class_fracs.iter().sum();
    if (fracs - 1.0).abs() > 1e-9 {
        out.push(format!("access-class fractions sum to {fracs}, not 1"));
    }
    out
}

/// `(accesses, instructions)` replayed in the measured phases, over all
/// cores: every access is an LLC hit or a memory access.
fn work(r: &RunResult) -> (u64, u64) {
    r.phases.iter().fold((0, 0), |(a, i), p| {
        (a + p.llc_hits + p.memory_accesses(), i + p.instructions)
    })
}

/// The process's peak resident set (`ru_maxrss`, the same high-water mark
/// as `VmHWM`), read with `getrusage` so the benchmark opens no file
/// outside its checkout.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mib() -> Result<f64, String> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// starting with `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage`, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 || usage.maxrss <= 0 {
        return Err(format!(
            "getrusage failed (rc {rc}, maxrss {})",
            usage.maxrss
        ));
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn peak_rss_mib() -> Result<f64, String> {
    Err("peak RSS is read with getrusage on 64-bit Linux only".into())
}

/// What one invocation measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    digest: u64,
    /// One value per metric of the mode's table, in table order.
    metrics: Vec<(&'static Metric, f64)>,
    /// Extra fields of the summary line (quartiles, spans).
    detail: Vec<(String, Json)>,
}

impl Outcome {
    fn new(table: &'static [Metric], values: &[(&str, f64)]) -> Self {
        let metrics = table
            .iter()
            .map(|m| {
                let v = values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
                (m, v.unwrap_or(f64::NAN))
            })
            .collect();
        Outcome {
            attempted: 0,
            failed: 0,
            digest: 0,
            metrics,
            detail: Vec::new(),
        }
    }

    fn fail(&mut self, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("e2e: check failed: {p}");
            }
        }
    }

    /// Prints the summary line, appends the history line, and prints the
    /// result object as the last line of standard output.
    fn print(mut self, args: &Args) {
        for (m, v) in &mut self.metrics {
            if !v.is_finite() {
                eprintln!("e2e: check failed: metric {} is not finite", m.name);
                self.failed = self.failed.max(1);
                *v = 0.0;
            }
        }
        let mut summary = vec![
            (
                "workload".to_string(),
                Json::Str(args.spec.name.to_string()),
            ),
            ("seed".to_string(), Json::Num(args.seed as f64)),
            (
                "trace".to_string(),
                Json::Num(f64::from(u8::from(args.trace))),
            ),
            ("ops_total".to_string(), Json::Num(self.attempted as f64)),
            ("ops_failed".to_string(), Json::Num(self.failed as f64)),
            (
                "result_digest".to_string(),
                Json::Str(digest_hex(self.digest)),
            ),
        ];
        summary.append(&mut self.detail);
        println!("{}", Json::Obj(summary).render());

        let mut flat: Vec<(String, f64)> = vec![
            ("seed".into(), args.seed as f64),
            ("trace".into(), f64::from(u8::from(args.trace))),
            ("ops_total".into(), self.attempted as f64),
            ("ops_failed".into(), self.failed as f64),
        ];
        flat.extend(self.metrics.iter().map(|(m, v)| (m.name.to_string(), *v)));
        starnuma_bench::append_history(&format!("e2e.{}", args.spec.name), false, &flat);

        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                let entry = vec![
                    ("value".to_string(), Json::Num(*v)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), Json::Obj(entry))
            })
            .collect();
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", result.render());
    }
}

fn quartile_json(values: &[f64]) -> Json {
    Json::Arr(quartiles(values).iter().map(|q| Json::Num(*q)).collect())
}

/// Iterations of the host-speed loop per sample (about 40 ms).
const HOST_SPEED_ITERS: u32 = 20_000_000;
/// Host-speed loop iterations per second that count as speed 1.0: the rate
/// the loop ran at on the 2-core x86-64 host the bounds were measured on.
const REFERENCE_RATE: f64 = 5.0e8;

/// The host's current speed relative to the reference, from a fixed chain
/// of dependent xorshift steps. On a shared host, frequency changes and
/// tenants on the same cores slow this loop and the simulator together
/// (README.md gives the measured correlation), so dividing a trial's
/// throughput by the speed sampled just before it removes part of the
/// host's drift without touching what the trial measures. Each trial and
/// each set-up re-run takes its own sample.
fn host_speed() -> f64 {
    let t = Instant::now();
    let mut y = black_box(1u64);
    for _ in 0..HOST_SPEED_ITERS {
        y ^= y << 13;
        y ^= y >> 7;
        y ^= y << 17;
    }
    black_box(y);
    f64::from(HOST_SPEED_ITERS) / t.elapsed().as_secs_f64() / REFERENCE_RATE
}

/// Times `Experiment::run` trial after trial until `seconds` have passed,
/// re-running the pre-measurement prefix after each trial for `setup_s`.
/// Every time is scaled to the reference host speed (see [`host_speed`]).
fn untraced(spec: &Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let exp = spec.experiment(seed);
    let profile = spec.workload.profile();
    let cfgs = candidates(&exp, spec.system);
    let pinned = (seed == PINNED_SEED).then_some(spec.digest_seed42);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut aps, mut mps, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut speeds, mut raw_aps) = (Vec::new(), Vec::new());
    let mut checks = Vec::new();
    let mut first = None;
    while aps.len() < MIN_TRIALS || start.elapsed() < budget {
        let speed = host_speed();
        let t = Instant::now();
        let r = black_box(exp.run());
        let wall = t.elapsed().as_secs_f64();
        let d = digest(&r);
        let expected: Vec<u64> = pinned.into_iter().chain(first).collect();
        checks.push(problems(&r, d, &expected));
        first.get_or_insert(d);
        let (accesses, instructions) = work(&r);
        speeds.push(speed);
        raw_aps.push(accesses as f64 / wall);
        aps.push(accesses as f64 / wall / speed);
        mps.push(instructions as f64 / wall / speed / 1e6);
        drop(r);

        let speed = host_speed();
        let mut s = 0.0;
        for cfg in &cfgs {
            let t = Instant::now();
            let prefix = stepwise::setup(&profile, cfg, &mut Tracer::new(t), None)?;
            s += t.elapsed().as_secs_f64();
            drop(black_box(prefix));
        }
        setup.push(s * speed);
    }
    let rss = peak_rss_mib()?;
    let median = |v: &[f64]| quartiles(v)[1];
    let mut out = Outcome::new(
        &END_TO_END,
        &[
            ("accesses_per_sec", median(&aps)),
            ("minstr_per_sec", median(&mps)),
            ("setup_s", median(&setup)),
            ("peak_rss_mib", rss),
        ],
    );
    out.attempted = checks.len() as u64;
    for c in checks {
        out.fail(c);
    }
    out.digest = first.unwrap_or(0);
    out.detail.push((
        "quartiles".into(),
        Json::Obj(vec![
            ("accesses_per_sec".into(), quartile_json(&aps)),
            ("minstr_per_sec".into(), quartile_json(&mps)),
            ("setup_s".into(), quartile_json(&setup)),
        ]),
    ));
    let list = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    out.detail.push((
        "trials".into(),
        Json::Obj(vec![
            ("accesses_per_sec".into(), list(&aps)),
            ("setup_s".into(), list(&setup)),
            ("host_speed".into(), list(&speeds)),
            ("raw_accesses_per_sec".into(), list(&raw_aps)),
        ]),
    ));
    Ok(out)
}

/// One candidate run by the stepwise runner.
struct Candidate {
    result: RunResult,
    tracer: Tracer,
    counters: Counters,
}

impl Candidate {
    fn root_ns(&self) -> u64 {
        self.tracer
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(stepwise::Span::ns)
            .sum()
    }

    /// Share of the root span its child spans cover.
    fn coverage(&self) -> f64 {
        let children: u64 = self
            .tracer
            .spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(stepwise::Span::ns)
            .sum();
        ratio(children as f64, self.root_ns() as f64)
    }
}

/// Runs every candidate stepwise, in parallel on the global `JobPool` as
/// `Experiment::run` does.
fn stepwise_all(
    profile: &WorkloadProfile,
    cfgs: &[RunConfig],
    epoch: Instant,
) -> Result<Vec<Candidate>, String> {
    JobPool::global()
        .run(cfgs.to_vec(), |_, cfg| {
            let mut tracer = Tracer::new(epoch);
            let mut counters = Counters::default();
            let result = stepwise::run(profile, &cfg, &mut tracer, None, &mut counters)?;
            Ok(Candidate {
                result,
                tracer,
                counters,
            })
        })
        .into_iter()
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The stepwise runner with spans between two untraced `Experiment::run`s
/// (the first warms the allocator, the second is the timing reference),
/// then a probe pass over the reported candidate; all four must agree.
fn traced(spec: &Spec, seed: u64) -> Result<Outcome, String> {
    let exp = spec.experiment(seed);
    let profile = spec.workload.profile();
    let cfgs = candidates(&exp, spec.system);
    let pinned: Vec<u64> = (seed == PINNED_SEED)
        .then_some(spec.digest_seed42)
        .into_iter()
        .collect();

    let reference = exp.run();
    let ref_digest = digest(&reference);
    let mut checks = vec![problems(&reference, ref_digest, &pinned)];

    let epoch = Instant::now();
    let cands = stepwise_all(&profile, &cfgs, epoch)?;
    let stepwise_ns = epoch.elapsed().as_nanos() as f64;

    let t = Instant::now();
    let again = exp.run();
    let untraced_ns = t.elapsed().as_nanos() as f64;
    checks.push(problems(&again, digest(&again), &[ref_digest]));
    drop(again);

    let ipcs: Vec<f64> = cands.iter().map(|c| c.result.ipc).collect();
    let w = winner(&ipcs);
    // The digest hashes the Debug rendering, which prints every float with
    // round-trip precision: equal digests mean bit-identical results.
    checks.push(problems(
        &cands[w].result,
        digest(&cands[w].result),
        &[ref_digest],
    ));

    let mut probe = Probe::new(&cfgs[w].params);
    let probed = stepwise::run(
        &profile,
        &cfgs[w],
        &mut Tracer::new(Instant::now()),
        Some(&mut probe),
        &mut Counters::default(),
    )?;
    checks.push(problems(&probed, digest(&probed), &[ref_digest]));

    let span_ns = |name: &str| cands.iter().map(|c| c.tracer.total_ns(name)).sum::<u64>() as f64;
    let mean_ms = |name: &str| {
        let n = cands
            .iter()
            .flat_map(|c| &c.tracer.spans)
            .filter(|s| s.name == name)
            .count();
        ratio(span_ns(name) / 1e6, n as f64)
    };
    let accesses = cands.iter().map(|c| work(&c.result).0).sum::<u64>() as f64;
    let mut c = Counters::default();
    for k in &cands {
        c.add(&k.counters);
    }
    let root_ns = cands.iter().map(|c| c.root_ns()).sum::<u64>() as f64;
    let replay_ns = span_ns("sim.replay");
    let p = probe.totals;
    let probe_ns_per_access: f64 = [p.llc, p.dir, p.leg, p.link, p.dram]
        .iter()
        .map(|l| l.ns_per_access(p.accesses))
        .sum();
    let replay_misses: u64 = reference.phases.iter().map(|p| p.memory_accesses()).sum();
    let coverage = cands
        .iter()
        .map(Candidate::coverage)
        .fold(f64::INFINITY, f64::min);

    let mut out = Outcome::new(
        &PER_LAYER,
        &[
            ("sim.replay_ns_per_access", ratio(replay_ns, accesses)),
            ("sim.replay_share", ratio(replay_ns, root_ns)),
            (
                "sim.event_loop_ns_per_access_est",
                ratio(replay_ns, accesses) - probe_ns_per_access,
            ),
            ("cache.llc_ns_per_call", p.llc.ns_per_call()),
            (
                "cache.llc_hit_ratio",
                ratio(c.llc_hits as f64, (c.llc_hits + c.llc_misses) as f64),
            ),
            ("coherence.dir_ns_per_call", p.dir.ns_per_call()),
            (
                "coherence.c2c_frac",
                ratio(c.c2c_transfers as f64, c.dir_transactions as f64),
            ),
            (
                "coherence.inval_per_miss",
                ratio(c.invalidations as f64, c.llc_misses as f64),
            ),
            ("topology.leg_ns_per_call", p.leg.ns_per_call()),
            (
                "topology.links_per_miss",
                ratio(c.link_transfers as f64, c.llc_misses as f64),
            ),
            ("mem.link_ns_per_call", p.link.ns_per_call()),
            (
                "mem.link_wait_cycles_per_call",
                ratio(c.link_wait_cycles as f64, c.link_transfers as f64),
            ),
            ("mem.dram_ns_per_call", p.dram.ns_per_call()),
            (
                "cache.tlb_track_ns_per_access",
                ratio(span_ns("cache.tlb_track"), c.trace_accesses as f64),
            ),
            ("migration.decide_ms_per_phase", mean_ms("migration.decide")),
            (
                "migration.checkpoint_ms_per_phase",
                mean_ms("migration.checkpoint"),
            ),
            (
                "trace.gen_ns_per_access",
                ratio(span_ns("trace.gen"), c.trace_accesses as f64),
            ),
            ("trace.scout_ms", span_ns("trace.scout") / 1e6),
            (
                "migration.placement_ms",
                span_ns("migration.placement") / 1e6,
            ),
            ("sim.model_build_ms", span_ns("sim.model_build") / 1e6),
            ("sim.warmup_ms", span_ns("sim.warmup") / 1e6),
            ("core.pair_speedup", ratio(root_ns, untraced_ns)),
            (
                "probe.miss_ratio_vs_replay",
                ratio(p.misses as f64, replay_misses as f64),
            ),
            ("traced.coverage", coverage),
            (
                "traced.overhead_frac",
                ratio(stepwise_ns, untraced_ns) - 1.0,
            ),
        ],
    );
    out.attempted = checks.len() as u64;
    for c in checks {
        out.fail(c);
    }
    out.digest = ref_digest;
    let spans = cands
        .iter()
        .enumerate()
        .flat_map(|(k, c)| {
            c.tracer.spans.iter().map(move |s| {
                let mut fields = vec![
                    ("candidate".to_string(), Json::Num(k as f64)),
                    ("name".to_string(), Json::Str(s.name.into())),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                ];
                if let Some(phase) = s.phase {
                    fields.push(("phase".into(), Json::Num(f64::from(phase))));
                }
                if let Some(parent) = s.parent {
                    fields.push(("parent".into(), Json::Num(parent as f64)));
                }
                Json::Obj(fields)
            })
        })
        .collect();
    out.detail.push(("spans".into(), Json::Arr(spans)));
    Ok(out)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    set_global_jobs(args.spec.jobs);
    let outcome = if args.trace {
        traced(args.spec, args.seed)
    } else {
        untraced(args.spec, args.seed, args.seconds)
    };
    match outcome {
        Ok(o) => {
            o.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starnuma::SystemKind;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "tc-starnuma",
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace),
            ("tc-starnuma", 7, 5, true)
        );
        let a = args(&["--seed", "42", "--workload", "bfs-baseline"]).expect("valid");
        assert_eq!((a.seconds, a.trace), (RUN_SECONDS, false));
    }

    #[test]
    fn rejects_bad_input_with_a_message() {
        for (bad, needle) in [
            (
                &["--workload", "sssp", "--seed", "1"][..],
                "unknown workload",
            ),
            (
                &["--workload", "tc-starnuma", "--seed", "x7"],
                "--seed must be",
            ),
            (
                &["--workload", "tc-starnuma", "--seed", "-1"],
                "--seed must be",
            ),
            (&["--workload", "tc-starnuma"], "missing --seed"),
            (&["--seed", "1"], "missing --workload"),
            (
                &["--workload", "tc-starnuma", "--seed", "1", "--traced"],
                "unknown flag",
            ),
            (&["--workload", "tc-starnuma", "--seed"], "needs a value"),
            (
                &["--workload", "tc-starnuma", "--seed", "1", "--seed", "2"],
                "given twice",
            ),
            (
                &["--workload", "tc-starnuma", "--seed", "1", "--trace", "yes"],
                "--trace must be",
            ),
            (
                &["--workload", "tc-starnuma", "--seed", "1", "--seconds", "0"],
                "--seconds must be",
            ),
        ] {
            let err = args(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(values, n=4) on each input.
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[2.0, 5.0, 2.0, 2.0]), [2.0, 2.0, 4.25]);
        assert_eq!(quartiles(&[7.0, 7.0, 7.0]), [7.0, 7.0, 7.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0]), [3.0, 3.0, 3.0]);
    }

    fn tiny(system: SystemKind) -> Spec {
        Spec {
            system,
            phases: 2,
            instructions_per_phase: 8_000,
            warmup_instructions: 2_000,
            ..SPECS[0]
        }
    }

    #[test]
    fn stepwise_runner_is_bit_identical_to_experiment_run() {
        for jobs in [1, 2] {
            set_global_jobs(jobs);
            for system in [SystemKind::StarNuma, SystemKind::Baseline] {
                let spec = tiny(system);
                let exp = spec.experiment(11);
                let cfgs = candidates(&exp, system);
                let cands = stepwise_all(&spec.workload.profile(), &cfgs, Instant::now())
                    .expect("supported");
                let ipcs: Vec<f64> = cands.iter().map(|c| c.result.ipc).collect();
                let got = &cands[winner(&ipcs)].result;
                assert_eq!(*got, exp.run(), "{system:?} at jobs {jobs}");
                assert!(cands
                    .iter()
                    .all(|c| c.coverage() > 0.0 && c.coverage() <= 1.0));
            }
        }
    }

    #[test]
    fn traced_mode_reports_every_per_layer_metric() {
        let spec = tiny(SystemKind::StarNuma);
        let out = traced(&spec, 3).expect("traced run");
        assert_eq!((out.attempted, out.failed), (4, 0));
        let names: Vec<&str> = out.metrics.iter().map(|(m, _)| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        for (m, v) in &out.metrics {
            assert!(v.is_finite(), "{} = {v}", m.name);
        }
    }

    #[test]
    fn a_wrong_pinned_digest_fails_every_trial() {
        let spec = Spec {
            digest_seed42: 1,
            ..tiny(SystemKind::StarNuma)
        };
        let out = untraced(&spec, PINNED_SEED, 1).expect("untraced run");
        assert!(out.attempted >= MIN_TRIALS as u64);
        assert_eq!(out.failed, out.attempted);
        assert!(out.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }
}
