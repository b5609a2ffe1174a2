//! `perfbench` — the sweep pipeline's benchmark. See README.md.
//!
//! ```text
//! perfbench --workload paper-n7|crash-n8|async-n8|resume-n7 \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a fingerprint, one line per metric (median, quartiles and
//! sample count), and as its last line one JSON object with the
//! correctness verdict and the metrics: the end-to-end ones untraced
//! (`--trace 0`), the per-layer ones traced (`--trace 1`). Exits 1 when
//! the correctness gate fails and 2 on a usage or I/O error.

mod bench;
mod golden;
mod stats;
mod trace;

use bench::{Bench, Setup};
use stats::Summary;
use std::ops::RangeInclusive;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// Fresh processes that measure set-up: at least `MIN` and, while
/// their total stays under `BUDGET_S` seconds, up to `MAX`, so that the
/// millisecond set-up of the n = 8 crash and resume workloads gets
/// enough samples for a steady median.
const SETUP_PROBES_MIN: usize = 5;
const SETUP_PROBES_MAX: usize = 25;
const SETUP_PROBES_BUDGET_S: f64 = 1.5;

/// Worker threads per cell in the timed (`--trace 0`) iterations. One,
/// not `nproc`: on a 2-core virtual machine whose second core is
/// shared, two workers get about one core's worth of CPU (the rest
/// shows as steal time), and the medians of two-thread runs spread
/// 19-24% between runs against 7-10% for one thread. The traced
/// iterations run on `nproc` threads, so the parallel layer is
/// measured there. See README.md.
const THREADS: usize = 1;

/// Share of `--seconds` a traced run gives its reload iterations when
/// it has any; the untraced/traced pairs get the rest.
const RELOAD_SHARE: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !bench::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            bench::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe-setup") {
        return probe_setup(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                bench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Child mode: measures set-up once in this fresh process and prints
/// it as one JSON line.
fn probe_setup(argv: &[String]) -> ExitCode {
    let Some(workload) = argv.first() else {
        eprintln!("perfbench --probe-setup WORKLOAD");
        return ExitCode::from(2);
    };
    let Some((n, scheds, _)) = bench::cell_specs(workload, 1) else {
        eprintln!("perfbench: unknown workload {workload:?}");
        return ExitCode::from(2);
    };
    let s = bench::measure_setup(n, &scheds);
    println!(
        "{{\"enumerate_s\":{},\"build_s\":{},\"first_check_s\":{}}}",
        s.enumerate_s, s.build_s, s.first_check_s
    );
    ExitCode::SUCCESS
}

/// Runs set-up probes in fresh processes, one after another.
fn probe_setups(workload: &str) -> Result<Vec<Setup>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let started = Instant::now();
    let mut probes = Vec::new();
    while probes.len() < SETUP_PROBES_MIN
        || (probes.len() < SETUP_PROBES_MAX
            && started.elapsed().as_secs_f64() < SETUP_PROBES_BUDGET_S)
    {
        probes.push(probe_setup_once(&exe, workload)?);
    }
    Ok(probes)
}

fn probe_setup_once(exe: &Path, workload: &str) -> Result<Setup, String> {
    let out = Command::new(exe)
        .args(["--probe-setup", workload])
        .output()
        .map_err(|e| format!("start set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("set-up probe printed {line:?}: {e}"))?;
    let field =
        |k: &str| v.get(k).and_then(serde_json::Value::as_f64).ok_or(format!("probe lacks {k}"));
    Ok(Setup {
        enumerate_s: field("enumerate_s")?,
        build_s: field("build_s")?,
        first_check_s: field("first_check_s")?,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resident-set high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics of one run, in print order.
#[derive(Default)]
struct Report {
    lines: Vec<(String, f64, &'static str, Option<Summary>)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines.push((name.to_string(), value, unit, None));
    }

    /// Reports the median of `samples` and keeps its quartiles and
    /// sample count for the printed line.
    fn put_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let s = Summary::of(samples);
        self.lines.push((name.to_string(), s.map_or(0.0, |s| s.median), unit, s));
    }

    fn print(&self) {
        for (name, value, unit, summary) in &self.lines {
            match summary {
                Some(s) => println!(
                    "{name:<34} {value:>14.6} {unit:<6} median, q1={:.6} q3={:.6}, n={}",
                    s.q1, s.q3, s.samples
                ),
                None => println!("{name:<34} {value:>14.6} {unit}"),
            }
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .lines
            .iter()
            .map(|(name, value, unit, _)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work_root = here.join(".work");
    let work = work_root.join(format!("{}-{}", args.workload, std::process::id()));
    let golden_dir = here.join("../tests/golden");
    let mut b = Bench::new(&args.workload, args.seed, THREADS, &work, &golden_dir)?;

    let setups = probe_setups(&args.workload)?;
    // Warm this process the way the probes measured a cold one, so the
    // iterations below time a warm cell.
    bench::measure_setup(b.n, &b.scheds());

    let mut report = Report::default();
    let result = b.prepare().and_then(|()| {
        if args.trace {
            run_traced(&mut b, args, &setups, &mut report, &work_root)
        } else {
            run_untraced(&mut b, args, &setups, &mut report)
        }
    });
    let cleanup = bench::clear_dir(&work);
    let iterations = result?;
    cleanup?;

    let fingerprint = format!(
        "fingerprint: workload={} seed={} trace={} threads={} nproc={} cpu=\"{}\" rustc=\"{}\" \
         commit={} iterations={iterations} setup_probes={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        b.threads,
        b.nproc,
        cpu_model(),
        command_line("rustc", &["-V"]),
        command_line(
            "git",
            &["-C", here.to_str().unwrap_or("."), "rev-parse", "--short=12", "HEAD"]
        ),
        setups.len(),
    );
    println!("{fingerprint}");
    report.print();
    let failed_share = b.failed as f64 / b.attempted.max(1) as f64;
    println!(
        "{:<34} {failed_share:>14.6} share  ({} of {} classes)",
        "failed_share", b.failed, b.attempted
    );
    let correct = b.failed == 0 && b.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        b.attempted.max(1),
        b.failed,
        report.json()
    );
    Ok(correct)
}

/// Runs `step` repeatedly for about `seconds`: another step starts
/// while at least half of the median step so far fits in the time
/// left, so the run ends as near `seconds` as whole steps allow. At
/// least one step runs.
fn repeat_for<T>(
    seconds: f64,
    mut step: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let window = Instant::now();
    let mut out = Vec::new();
    let mut took = Vec::new();
    loop {
        let t = Instant::now();
        out.push(step()?);
        took.push(t.elapsed().as_secs_f64());
        let next = stats::median(&took).unwrap_or(0.0);
        if window.elapsed().as_secs_f64() + next / 2.0 > seconds {
            return Ok(out);
        }
    }
}

fn run_untraced(
    b: &mut Bench,
    args: &Args,
    setups: &[Setup],
    report: &mut Report,
) -> Result<usize, String> {
    let its = repeat_for(args.seconds, || {
        let it = b.iterate()?;
        eprintln!("iteration: cell_wall_s={:.6}", it.wall_s);
        Ok(it)
    })?;
    // Read before the untimed cross-check below, which runs on `nproc`
    // threads and is not part of the workload.
    let peak_rss = peak_rss_mb();
    b.check_random_cell(b.nproc)?;
    let walls: Vec<f64> = its.iter().map(|it| it.wall_s).collect();
    let per_s: Vec<f64> = walls.iter().map(|w| b.classes_per_iteration() as f64 / w).collect();
    let setup: Vec<f64> = setups.iter().map(Setup::total_s).collect();
    let record_mb: Vec<f64> = its.iter().map(|it| it.record_bytes as f64 / 1e6).collect();
    report.put_median("cell_wall_s", &walls, "s");
    report.put_median("classes_per_s", &per_s, "1/s");
    report.put_median("setup_s", &setup, "s");
    report.put("peak_rss_mb", peak_rss, "MB");
    report.put_median("record_mb", &record_mb, "MB");
    Ok(its.len())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn run_traced(
    b: &mut Bench,
    args: &Args,
    setups: &[Setup],
    report: &mut Report,
    work_root: &Path,
) -> Result<usize, String> {
    let mut tracer = Tracer::new();
    let pass = b.serial_pass(&mut tracer)?;
    // The serial pass ran on one thread; the iterations run on every
    // core, as `sweep` does by default, so the pool really steals.
    b.set_threads(b.nproc);
    let reload = b.has_reload();
    let pair_seconds = if reload { args.seconds * (1.0 - RELOAD_SHARE) } else { args.seconds };
    // Untraced and traced iterations alternate, and swap order every
    // pair, so drift and warm-up hit both alike.
    let mut iteration = 0u32;
    let pairs = repeat_for(pair_seconds, || {
        iteration += 1;
        let (untraced, traced) = if iteration % 2 == 1 {
            let untraced = b.iterate()?;
            (untraced, b.iterate_traced(&mut tracer, iteration, false)?)
        } else {
            let traced = b.iterate_traced(&mut tracer, iteration, false)?;
            (b.iterate()?, traced)
        };
        eprintln!("iteration: untraced cell_wall_s={:.6}", untraced.wall_s);
        Ok((untraced.wall_s, traced))
    })?;
    let last_pair = iteration;
    // Reload iterations reopen the records the last pair left.
    let reloads = if reload {
        repeat_for(args.seconds * RELOAD_SHARE, || {
            iteration += 1;
            b.iterate_traced(&mut tracer, iteration, true)
        })?
    } else {
        Vec::new()
    };
    // The random cell's records on disk come from the last pair, on
    // `nproc` threads; compare them with a one-thread run.
    b.check_random_cell(1)?;
    let traced: Vec<&bench::TracedIteration> =
        pairs.iter().map(|(_, t)| t).chain(&reloads).collect();

    let spans = tracer.spans();
    let own = trace::self_times(spans);
    // Summed self time of the spans named `name` in each of the
    // iterations `its`: 0 is the serial pass, 1..=last_pair the traced
    // halves of the pairs, the rest the reload iterations.
    let by_iteration = |name: &str, its: RangeInclusive<u32>| -> Vec<f64> {
        let by = trace::self_time_by_iteration(spans, &own, name);
        its.map(|i| by.iter().find(|(it, _)| *it == i).map_or(0.0, |(_, ns)| secs(*ns))).collect()
    };
    let main = 1..=last_pair;
    // Empty unless this run made reload iterations.
    let reloaded = last_pair + 1..=iteration;
    let resume = b.cells.iter().all(|c| c.resume);
    let (write_its, read_its) =
        if resume { (reloaded, main.clone()) } else { (main.clone(), reloaded) };
    let per_iter = |name: &str| by_iteration(name, main.clone());
    let serial = |name: &str| by_iteration(name, 0..=0)[0];
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    // What `run_sweep_with` spends besides the pieces timed on their
    // own: journal, serialisation, fsync and rename on a fresh cell;
    // read, parse and validation on a resumed one. Returned both as a
    // difference of medians, which makes the layer times add up to
    // `trace.cell_wall_s` by definition, and per iteration, whose
    // quartiles show how much of it is noise: the pieces are a second
    // execution of the same work, so on a compute-bound cell the
    // difference is within their noise and can read below 0.
    let rest = |its: RangeInclusive<u32>| -> (f64, Vec<f64>) {
        let [wall, enumerate, compute, merge, digest] = [
            "sweep.run_sweep_with",
            "polyhex.enumerate_fixed",
            "sweep.run_shard",
            "sweep.merge_shards",
            "sweep.verdict_digest",
        ]
        .map(|name| by_iteration(name, its.clone()));
        let of_medians = med(&wall) - med(&enumerate) - med(&compute) - med(&merge) - med(&digest);
        let each = (0..wall.len())
            .map(|i| wall[i] - enumerate[i] - compute[i] - merge[i] - digest[i])
            .collect();
        (of_medians, each)
    };
    let (persist, persist_each) = rest(write_its);
    let (load, load_each) = rest(read_its.clone());
    let class_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "robots.explore.check")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let wall = per_iter("sweep.run_sweep_with");
    let compute = per_iter("sweep.run_shard");
    let merge = per_iter("sweep.merge_shards");
    let digest = per_iter("sweep.verdict_digest");
    let write = per_iter("serde_json.to_string_pretty");
    // The parser is measured on the records a resume reads where the
    // run has any, and otherwise on the summaries read back.
    let parse_its = if read_its.is_empty() { main.clone() } else { read_its };
    let parse = by_iteration("serde_json.from_str", parse_its.clone());
    let parse_rate: Vec<f64> = parse_its
        .zip(&parse)
        .filter(|(_, s)| **s > 0.0)
        .map(|(i, s)| traced[(i - 1) as usize].parsed_bytes as f64 / 1e6 / s)
        .collect();
    let overhead = 1.0 - med(&compute) / med(&wall);

    let setup = |f: fn(&Setup) -> f64| setups.iter().map(f).collect::<Vec<f64>>();
    report.put_median("polyhex.enumerate_s", &setup(|s| s.enumerate_s), "s");
    report.put("polyhex.classes", b.classes.len() as f64, "count");
    report.put_median("gathering.build_s", &setup(|s| s.build_s), "s");
    report.put_median("gathering.first_check_s", &setup(|s| s.first_check_s), "s");
    report.put("robots.checker_build_s", serial("robots.checker_build"), "s");

    let busy = serial("robots.explore.check");
    let snap = &pass.snapshot;
    let states = snap.counter("explore.states") as f64;
    report.put("robots.explore.busy_s", busy, "s");
    let pct = |p| stats::percentile(&class_ms, p).unwrap_or(0.0);
    report.put("robots.explore.class_p50_ms", pct(50.0), "ms");
    report.put("robots.explore.class_p99_ms", pct(99.0), "ms");
    report.put("robots.explore.class_max_ms", pct(100.0), "ms");
    report.put("robots.explore.class_samples", class_ms.len() as f64, "count");
    report.put("robots.explore.states", states, "count");
    report.put("robots.explore.states_per_s", if busy > 0.0 { states / busy } else { 0.0 }, "1/s");
    // Phase D (`explore.phase_d_ns`) is not reached by any class of
    // these cells and would read 0 everywhere, so it is left out.
    for phase in ["a", "b", "c"] {
        let ns = snap.counter(&format!("explore.phase_{phase}_ns"));
        report.put(&format!("robots.explore.phase_{phase}_s"), secs(ns), "s");
    }
    report.put(
        "robots.explore.table_hit_rate",
        snap.rate("memo.table.hit", "memo.table.miss"),
        "ratio",
    );
    report.put(
        "robots.explore.info_hit_rate",
        snap.rate("memo.info.hit", "memo.info.miss"),
        "ratio",
    );
    report.put("robots.explore.oracle_hit_rate", snap.rate("oracle.hit", "oracle.miss"), "ratio");
    report.put("robots.explore.peak_bytes", snap.gauge("explore.peak_bytes") as f64, "bytes");
    let engine = serial("robots.engine.run_shard") + serial("robots.engine.replay");
    report.put("robots.engine.busy_s", engine, "s");
    report.put("robots.engine.rounds", pass.engine_rounds as f64, "count");

    let pool = |f: fn(&parallel::stealing::PoolStats) -> u64| {
        pairs.iter().map(|(_, t)| f(&t.pool) as f64).collect::<Vec<f64>>()
    };
    report.put_median("parallel.tasks", &pool(|p| p.tasks), "count");
    report.put_median("parallel.steal_batches", &pool(|p| p.steal_batches), "count");
    report.put_median("parallel.idle_probes", &pool(|p| p.idle_probes), "count");
    let compute_med = med(&compute);
    let serial_busy = busy + engine;
    let efficiency =
        if compute_med > 0.0 { serial_busy / (b.threads as f64 * compute_med) } else { 0.0 };
    report.put("parallel.efficiency", efficiency, "ratio");

    report.put_median("sweep.shard_compute_s", &compute, "s");
    let quartiles = |v: &[f64]| Summary::of(v).map_or((0.0, 0.0), |s| (s.q1, s.q3));
    let (persist_q1, persist_q3) = quartiles(&persist_each);
    let (load_q1, load_q3) = quartiles(&load_each);
    report.put("sweep.persist_s", persist, "s");
    report.put("sweep.persist_q1_s", persist_q1, "s");
    report.put("sweep.persist_q3_s", persist_q3, "s");
    report.put("sweep.load_s", load, "s");
    report.put("sweep.load_q1_s", load_q1, "s");
    report.put("sweep.load_q3_s", load_q3, "s");
    report.put_median("sweep.merge_s", &merge, "s");
    report.put_median("sweep.digest_s", &digest, "s");
    report.put("sweep.overhead_share", overhead, "ratio");
    report.put_median("serde_json.parse_s", &parse, "s");
    report.put_median("serde_json.parse_mb_per_s", &parse_rate, "MB/s");
    report.put_median("serde_json.write_s", &write, "s");

    let untraced: Vec<f64> = pairs.iter().map(|(w, _)| *w).collect();
    report.put_median("trace.cell_wall_s", &wall, "s");
    report.put_median("trace.untraced_cell_wall_s", &untraced, "s");
    report.put("trace.overhead_share", med(&wall) / med(&untraced) - 1.0, "ratio");
    report.put("trace.samples", wall.len() as f64, "count");
    report.put("trace.reload_samples", reloads.len() as f64, "count");
    report.put("trace.spans", spans.len() as f64, "count");

    std::fs::create_dir_all(work_root)
        .map_err(|e| format!("create {}: {e}", work_root.display()))?;
    let path = work_root.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    tracer
        .write_jsonl(std::io::BufWriter::new(file))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("spans -> {}", path.display());
    Ok(pairs.len() + reloads.len())
}
