//! The four workloads and the measurements made on them.
//!
//! Every timed call goes through the program's public entry points;
//! nothing here changes what the program does. The untraced iteration
//! times `run_sweep_with` per cell, as the `sweep` binary calls it. The
//! traced iteration makes the same call inside a span and then repeats
//! the cell through the public pieces `run_sweep_with` is built from
//! (enumeration, `run_shard`, serde_json, `merge_shards`,
//! `verdict_digest`), one span each, so the cell's wall time can be
//! split by layer from outside.

use crate::golden::{self, Expected};
use crate::trace::{SpanId, Tracer};
use gathering::SevenGather;
use robots::adversary::{self, AdversaryOptions, AdversaryVerdict, Checker};
use robots::async_model::{self, AsyncChecker, AsyncOptions};
use robots::engine::RoundCollision;
use robots::explore::ExploreVerdict;
use robots::faults::{self, CrashChecker, CrashOptions};
use robots::{Configuration, Outcome};
use simlab::sweep::{
    self, AlgoSpec, ClassOutcome, SchedSpec, ShardRecord, SweepConfig, SweepOutcome, SweepRun,
    SweepSummary,
};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trigrid::Coord;

/// Workload names, in the order the documentation lists them.
pub const WORKLOADS: &[&str] = &["paper-n7", "crash-n8", "async-n8", "resume-n7"];

/// The cells one iteration of `workload` runs, or `None` for an
/// unknown name. Only `paper-n7` uses the seed: it is the seed of its
/// random-scheduler cell. All cells of a workload share one robot count.
pub fn cell_specs(workload: &str, seed: u64) -> Option<(usize, Vec<SchedSpec>, bool)> {
    let parse = |s: &str| SchedSpec::parse(s).expect("built-in scheduler spec parses");
    Some(match workload {
        "paper-n7" => (
            7,
            vec![
                parse("fsync"),
                parse(&format!("random:{seed}:0.5")),
                parse("adversary"),
                parse("crash:1"),
                parse("lcm-async"),
            ],
            false,
        ),
        "crash-n8" => (8, vec![parse("crash:1")], false),
        "async-n8" => (8, vec![parse("lcm-async")], false),
        "resume-n7" => (7, vec![parse("crash:1")], true),
        _ => return None,
    })
}

fn is_model_checking(sched: SchedSpec) -> bool {
    matches!(
        sched,
        SchedSpec::Adversary { .. } | SchedSpec::Crash { .. } | SchedSpec::LcmAsync { .. }
    )
}

fn crash_budget(sched: SchedSpec) -> Option<u8> {
    match sched {
        SchedSpec::Crash { f, .. } => Some(f),
        _ => None,
    }
}

/// The time for what every `sweep` invocation pays before its first
/// shard: class enumeration, the algorithm build and one class check
/// per scheduler, which builds the algorithm's lazy tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    pub enumerate_s: f64,
    pub build_s: f64,
    pub first_check_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.enumerate_s + self.build_s + self.first_check_s
    }
}

pub fn measure_setup(n: usize, scheds: &[SchedSpec]) -> Setup {
    let t = Instant::now();
    let classes = std::hint::black_box(polyhex::enumerate_fixed(n));
    let enumerate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let algo = std::hint::black_box(AlgoSpec::Verified.build());
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let first = Configuration::new(classes[0].iter().copied());
    for &sched in scheds {
        let cfg = SweepConfig { sched, n, ..SweepConfig::default() };
        std::hint::black_box(sweep::run_class(&first, &algo, sched, 0, cfg.effective_limits()));
    }
    Setup { enumerate_s, build_s, first_check_s: t.elapsed().as_secs_f64() }
}

/// One cell of a workload with its golden expectations.
pub struct Cell {
    pub cfg: SweepConfig,
    pub resume: bool,
    /// Reopened with resume in the reload iterations of a traced run:
    /// the fresh n = 7 `crash:1` cell, the one `resume-n7` times, so the
    /// read path is traced on a workload that `resume-n7` is not.
    pub reload: bool,
    pub dir: PathBuf,
    expected: Option<Expected>,
}

/// What one untraced iteration measured.
pub struct Iteration {
    pub wall_s: f64,
    pub record_bytes: u64,
}

/// What a traced iteration measured besides its spans.
#[derive(Clone, Debug, Default)]
pub struct TracedIteration {
    /// Work-stealing pool activity during the `run_sweep_with` calls.
    pub pool: parallel::stealing::PoolStats,
    /// Bytes of shard records the decomposition parsed.
    pub parsed_bytes: u64,
}

/// What the single-threaded pass reads besides its spans: the
/// checkers' telemetry, and the engine rounds of the FSYNC and random
/// cells plus the schedule steps of every replayed refutation.
#[derive(Default)]
pub struct SerialPass {
    pub snapshot: telemetry::Snapshot,
    pub engine_rounds: u64,
}

pub struct Bench {
    pub n: usize,
    /// Worker threads of the measured cells.
    pub threads: usize,
    /// Cores the host offers: the traced iterations and the timed
    /// run's random-cell cross-check run on this many threads.
    pub nproc: usize,
    pub cells: Vec<Cell>,
    pub classes: Vec<Vec<Coord>>,
    algo: SevenGather,
    /// Classes run through a gated cell, and those of them that failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Bench {
    pub fn new(
        workload: &str,
        seed: u64,
        threads: usize,
        work: &Path,
        golden_dir: &Path,
    ) -> Result<Bench, String> {
        let (n, scheds, resume) =
            cell_specs(workload, seed).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let mut cells = Vec::new();
        for sched in scheds {
            let cfg = SweepConfig { sched, n, threads, ..SweepConfig::default() };
            let expected = golden::load(golden_dir, n, &sched.name())?;
            if expected.is_none() && !matches!(sched, SchedSpec::RandomSubset { .. }) {
                return Err(format!("no golden entry pins n={n} {}", sched.name()));
            }
            let dir = work.join(cfg.slug());
            let reload = !resume && n == 7 && matches!(sched, SchedSpec::Crash { f: 1, .. });
            cells.push(Cell { cfg, resume, reload, dir, expected });
        }
        Ok(Bench {
            n,
            threads,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cells,
            classes: polyhex::enumerate_fixed(n),
            algo: AlgoSpec::Verified.build(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Sets the worker threads of every cell's later runs.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
        for cell in &mut self.cells {
            cell.cfg.threads = threads;
        }
    }

    /// Whether a traced run has reload iterations to make.
    pub fn has_reload(&self) -> bool {
        self.cells.iter().any(|c| c.reload)
    }

    pub fn scheds(&self) -> Vec<SchedSpec> {
        self.cells.iter().map(|c| c.cfg.sched).collect()
    }

    /// Total classes one iteration decides or reloads.
    pub fn classes_per_iteration(&self) -> usize {
        self.classes.len() * self.cells.len()
    }

    /// Writes the records a resume cell reopens; fresh cells need none.
    pub fn prepare(&mut self) -> Result<(), String> {
        for i in 0..self.cells.len() {
            if self.cells[i].resume {
                clear_dir(&self.cells[i].dir)?;
                let cfg = self.cells[i].cfg.clone();
                let outcome = run_cell(&cfg, &self.cells[i].dir, false)?;
                self.gate(i, &outcome.summary, &[]);
            }
        }
        Ok(())
    }

    /// Counts the cell's classes as attempted and checks its summary
    /// against the golden entry, the class count and the undecided and
    /// panicked tallies. `extra` carries problems found elsewhere; any
    /// problem fails every class of the cell.
    fn gate(&mut self, i: usize, summary: &SweepSummary, extra: &[String]) {
        let cell = &self.cells[i];
        let mut problems = extra.to_vec();
        if let Some(exp) = &cell.expected {
            problems.extend(golden::mismatches(exp, summary, crash_budget(cell.cfg.sched)));
        }
        if summary.total != self.classes.len() {
            problems.push(format!(
                "{} classes merged, {} enumerated",
                summary.total,
                self.classes.len()
            ));
        }
        if summary.undecided > 0 {
            problems.push(format!("{} classes undecided", summary.undecided));
        }
        let panicked =
            summary.metrics.as_ref().map_or(0, |m| m.snapshot.counter("sweep.classes_panicked"));
        if panicked > 0 {
            problems.push(format!("{panicked} classes panicked"));
        }
        self.attempted += self.classes.len() as u64;
        if !problems.is_empty() {
            self.failed += self.classes.len() as u64;
            for p in problems {
                eprintln!("FAILED {}: {p}", cell.cfg.slug());
            }
        }
    }

    /// One untraced iteration: every cell through `run_sweep_with`,
    /// timed from the call to the summary on disk.
    pub fn iterate(&mut self) -> Result<Iteration, String> {
        let mut it = Iteration { wall_s: 0.0, record_bytes: 0 };
        for i in 0..self.cells.len() {
            let (cfg, dir, resume) =
                (self.cells[i].cfg.clone(), self.cells[i].dir.clone(), self.cells[i].resume);
            if !resume {
                clear_dir(&dir)?;
            }
            let t = Instant::now();
            let outcome = run_cell(&cfg, &dir, resume)?;
            it.wall_s += t.elapsed().as_secs_f64();
            it.record_bytes += written_bytes(&cfg, &dir, resume);
            self.gate(i, &outcome.summary, &[]);
        }
        Ok(it)
    }

    /// One traced iteration: the `run_sweep_with` call of every cell in
    /// a span, then the same cell rebuilt from its public pieces. A
    /// reload iteration does this only for the reload cell, reopening
    /// with resume the records the last iteration left.
    pub fn iterate_traced(
        &mut self,
        tracer: &mut Tracer,
        iteration: u32,
        reload: bool,
    ) -> Result<TracedIteration, String> {
        let mut out = TracedIteration::default();
        let root = tracer.begin("iteration", None, iteration);
        for i in 0..self.cells.len() {
            if reload && !self.cells[i].reload {
                continue;
            }
            let (cfg, dir, resume) = (
                self.cells[i].cfg.clone(),
                self.cells[i].dir.clone(),
                self.cells[i].resume || reload,
            );
            if !resume {
                clear_dir(&dir)?;
            }
            let cell = tracer.begin(&cfg.slug(), Some(root), iteration);
            let before = parallel::stealing::pool_stats();
            let outcome = tracer.span("sweep.run_sweep_with", Some(cell), iteration, || {
                run_cell(&cfg, &dir, resume)
            })?;
            let pool = parallel::stealing::pool_stats().delta_since(&before);
            out.pool.tasks += pool.tasks;
            out.pool.steal_batches += pool.steal_batches;
            out.pool.idle_probes += pool.idle_probes;
            let parts = tracer.begin("decompose", Some(cell), iteration);
            let problems = decompose(
                tracer,
                parts,
                iteration,
                &cfg,
                &dir,
                resume,
                &outcome,
                &mut out.parsed_bytes,
            )?;
            tracer.end(parts);
            tracer.end(cell);
            self.gate(i, &outcome.summary, &problems);
        }
        tracer.end(root);
        Ok(out)
    }

    /// The single-threaded pass: every class of each model-checking cell
    /// through a freshly built checker, one span per check, and every
    /// class of each FSYNC or random cell through `run_shard` on one
    /// thread. Its verdicts are gated like a sweep's.
    pub fn serial_pass(&mut self, tracer: &mut Tracer) -> Result<SerialPass, String> {
        let mut pass = SerialPass::default();
        let root = tracer.begin("serial_pass", None, 0);
        for i in 0..self.cells.len() {
            let cfg = self.cells[i].cfg.clone();
            let (records, problems) = if is_model_checking(cfg.sched) {
                let (record, problems) = self.explore_cell(tracer, root, &cfg, &mut pass);
                (vec![record], problems)
            } else {
                let records = tracer.span("robots.engine.run_shard", Some(root), 0, || {
                    records_at(&cfg, &self.classes, 1)
                });
                pass.engine_rounds +=
                    records.iter().flat_map(|r| &r.results).map(|r| r.expanded as u64).sum::<u64>();
                (records, Vec::new())
            };
            let summary =
                sweep::merge_shards(&SweepConfig { shards: records.len(), ..cfg }, &records)?;
            self.gate(i, &summary, &problems);
        }
        tracer.end(root);
        Ok(pass)
    }

    /// Checks every class of a model-checking cell on one thread, then
    /// replays each refutation through the engine; a replay that does
    /// not end in the verdict's outcome is a problem for the cell.
    fn explore_cell(
        &self,
        tracer: &mut Tracer,
        root: SpanId,
        cfg: &SweepConfig,
        pass: &mut SerialPass,
    ) -> (ShardRecord, Vec<String>) {
        let limits = cfg.effective_limits();
        let capacity = cfg.n.max(8);
        let algo = &self.algo;
        let (results, problems) = match cfg.sched {
            SchedSpec::Adversary { depth } => {
                let opts =
                    AdversaryOptions { fair_depth: depth, ..AdversaryOptions::for_robots(cfg.n) };
                let mut checker = tracer.span("robots.checker_build", Some(root), 0, || {
                    Checker::for_robots(algo, opts, capacity)
                });
                checker.set_threads(1);
                let results = self.check_all(tracer, root, |initial, index| {
                    let report = checker.check(initial);
                    ClassOutcome {
                        index,
                        outcome: sweep::outcome_of_verdict(&report.verdict, limits),
                        expanded: report.classes,
                        verdict: Some(report.verdict),
                        crash: None,
                        lcm_async: None,
                        panic: None,
                    }
                });
                pass.snapshot.merge(&checker.metrics_snapshot());
                let problems = self.replay_all(tracer, root, pass, &results, |initial, r| {
                    let v = r.verdict.as_ref()?;
                    let AdversaryVerdict::Refuted { schedule, outcome } = v else { return None };
                    let run = adversary::replay(initial, algo, v);
                    Some((run.is_some_and(|e| same_outcome(outcome, &e.outcome)), schedule.len()))
                });
                (results, problems)
            }
            SchedSpec::Crash { f, depth } => {
                let mut checker = tracer.span("robots.checker_build", Some(root), 0, || {
                    CrashChecker::for_robots(algo, CrashOptions::new(f, depth), capacity)
                });
                checker.set_threads(1);
                let results = self.check_all(tracer, root, |initial, index| {
                    let report = checker.check(initial);
                    ClassOutcome {
                        index,
                        outcome: sweep::outcome_of_crash_verdict(&report.verdict, limits),
                        expanded: report.states,
                        verdict: None,
                        crash: Some(report.verdict),
                        lcm_async: None,
                        panic: None,
                    }
                });
                pass.snapshot.merge(&checker.metrics_snapshot());
                let problems = self.replay_all(tracer, root, pass, &results, |initial, r| {
                    let v = r.crash.as_ref()?;
                    let ExploreVerdict::Refuted { schedule, outcome } = v else { return None };
                    let run = faults::replay(initial, algo, v);
                    Some((
                        run.is_some_and(|e| same_outcome(outcome, &e.execution.outcome)),
                        schedule.len(),
                    ))
                });
                (results, problems)
            }
            SchedSpec::LcmAsync { depth } => {
                let mut checker = tracer.span("robots.checker_build", Some(root), 0, || {
                    AsyncChecker::for_robots(algo, AsyncOptions::new(depth), capacity)
                });
                checker.set_threads(1);
                let results = self.check_all(tracer, root, |initial, index| {
                    let report = checker.check(initial);
                    ClassOutcome {
                        index,
                        outcome: sweep::outcome_of_async_verdict(&report.verdict, limits),
                        expanded: report.states,
                        verdict: None,
                        crash: None,
                        lcm_async: Some(report.verdict),
                        panic: None,
                    }
                });
                pass.snapshot.merge(&checker.metrics_snapshot());
                let problems = self.replay_all(tracer, root, pass, &results, |initial, r| {
                    let v = r.lcm_async.as_ref()?;
                    let ExploreVerdict::Refuted { schedule, outcome } = v else { return None };
                    let run = async_model::replay(initial, algo, v);
                    Some((
                        run.is_some_and(|e| same_outcome(outcome, &e.execution.outcome)),
                        schedule.len(),
                    ))
                });
                (results, problems)
            }
            _ => unreachable!("only model-checking cells are explored"),
        };
        (single_record(cfg, results), problems)
    }

    /// Replays every refuted class, one span each. `replay` returns
    /// whether the replayed execution ended in the recorded outcome and
    /// the schedule's length, or `None` when the class is not refuted.
    fn replay_all(
        &self,
        tracer: &mut Tracer,
        root: SpanId,
        pass: &mut SerialPass,
        results: &[ClassOutcome],
        replay: impl Fn(&Configuration, &ClassOutcome) -> Option<(bool, usize)>,
    ) -> Vec<String> {
        let mut diverged = Vec::new();
        for r in results.iter().filter(|r| !r.outcome.is_gathered()) {
            let initial = Configuration::new(self.classes[r.index].iter().copied());
            let replayed =
                tracer.span("robots.engine.replay", Some(root), 0, || replay(&initial, r));
            if let Some((matched, steps)) = replayed {
                pass.engine_rounds += steps as u64;
                if !matched {
                    diverged.push(r.index);
                }
            }
        }
        if diverged.is_empty() {
            Vec::new()
        } else {
            vec![format!(
                "{} refutations replay to another outcome, first class {}",
                diverged.len(),
                diverged[0]
            )]
        }
    }

    fn check_all(
        &self,
        tracer: &mut Tracer,
        root: SpanId,
        check: impl Fn(&Configuration, usize) -> ClassOutcome,
    ) -> Vec<ClassOutcome> {
        let mut results = Vec::with_capacity(self.classes.len());
        for (index, cells) in self.classes.iter().enumerate() {
            let initial = Configuration::new(cells.iter().copied());
            results.push(
                tracer.span("robots.explore.check", Some(root), 0, || check(&initial, index)),
            );
        }
        results
    }

    /// Checks that the random cell's last measured run, on disk, holds
    /// exactly the per-class results of an untimed run of the same seed
    /// on `threads` worker threads. Without a random cell there is
    /// nothing to compare.
    pub fn check_random_cell(&mut self, threads: usize) -> Result<(), String> {
        let Some(i) =
            self.cells.iter().position(|c| matches!(c.cfg.sched, SchedSpec::RandomSubset { .. }))
        else {
            return Ok(());
        };
        let cfg = self.cells[i].cfg.clone();
        let measured = results_digest(&load_records(&cfg, &self.cells[i].dir)?);
        let other = results_digest(&records_at(&cfg, &self.classes, threads));
        self.attempted += self.classes.len() as u64;
        if measured != other {
            self.failed += self.classes.len() as u64;
            eprintln!(
                "FAILED {}: results digest {measured} at {} threads, {other} at {threads}",
                cfg.slug(),
                cfg.threads
            );
        }
        Ok(())
    }
}

/// Whether a replayed outcome is the recorded one up to a translation
/// of the grid. The explorer records a collision in the frame of its
/// class's canonical representative, which for some n = 8 classes is a
/// translate of the frame the class was enumerated in.
fn same_outcome(recorded: &Outcome, replayed: &Outcome) -> bool {
    match (recorded, replayed) {
        (
            Outcome::Collision { round: r1, collision: c1 },
            Outcome::Collision { round: r2, collision: c2 },
        ) => r1 == r2 && same_collision(c1, c2),
        _ => recorded == replayed,
    }
}

fn same_collision(a: &RoundCollision, b: &RoundCollision) -> bool {
    match (a, b) {
        (RoundCollision::Swap { a: a1, b: b1 }, RoundCollision::Swap { a: a2, b: b2 }) => {
            (*b1 + (*a2 - *a1) == *b2) || (*b1 + (*b2 - *a1) == *a2)
        }
        (
            RoundCollision::SharedTarget { target: t1, sources: s1 },
            RoundCollision::SharedTarget { target: t2, sources: s2 },
        ) => {
            let shift = *t2 - *t1;
            let mut moved: Vec<_> = s1.iter().map(|&c| c + shift).collect();
            let mut other = s2.clone();
            moved.sort_unstable();
            other.sort_unstable();
            moved == other
        }
        _ => false,
    }
}

/// Rebuilds one cell from the public pieces of `run_sweep_with`, one
/// span each, and returns any disagreement with the real call's
/// outcome. Fresh cells recompute every shard with `run_shard` and
/// serialise it; resume cells read and parse every record on disk.
/// Both read back the summary the real call wrote.
#[allow(clippy::too_many_arguments)]
fn decompose(
    tracer: &mut Tracer,
    parent: SpanId,
    iteration: u32,
    cfg: &SweepConfig,
    dir: &Path,
    resume: bool,
    outcome: &SweepOutcome,
    parsed_bytes: &mut u64,
) -> Result<Vec<String>, String> {
    let p = Some(parent);
    let classes =
        tracer.span("polyhex.enumerate_fixed", p, iteration, || polyhex::enumerate_fixed(cfg.n));
    let mut records = Vec::with_capacity(cfg.shards);
    for (shard, (start, end)) in
        sweep::shard_ranges(classes.len(), cfg.shards).into_iter().enumerate()
    {
        if resume {
            let path = cfg.shard_path(dir, shard);
            let text =
                tracer.span("fs.read_to_string", p, iteration, || std::fs::read_to_string(&path));
            let text = text.map_err(|e| format!("read {}: {e}", path.display()))?;
            *parsed_bytes += text.len() as u64;
            let record = tracer.span("serde_json.from_str", p, iteration, || {
                serde_json::from_str::<ShardRecord>(&text)
            });
            records.push(record.map_err(|e| format!("parse {}: {e}", path.display()))?);
        } else {
            let record = tracer.span("sweep.run_shard", p, iteration, || {
                sweep::run_shard(&classes, cfg, shard, start, end)
            });
            let json = tracer.span("serde_json.to_string_pretty", p, iteration, || {
                serde_json::to_string_pretty(&record)
            });
            std::hint::black_box(json.map_err(|e| format!("serialise shard {shard}: {e}"))?);
            records.push(record);
        }
    }
    let summary =
        tracer.span("sweep.merge_shards", p, iteration, || sweep::merge_shards(cfg, &records))?;
    let json = tracer.span("serde_json.to_string_pretty", p, iteration, || {
        serde_json::to_string_pretty(&summary)
    });
    std::hint::black_box(json.map_err(|e| format!("serialise summary: {e}"))?);
    let digest =
        tracer.span("sweep.verdict_digest", p, iteration, || sweep::verdict_digest(&records));
    // The summary the real call left on disk must read back as the one
    // it returned.
    let path = cfg.summary_path(dir);
    let text = tracer.span("fs.read_to_string", p, iteration, || std::fs::read_to_string(&path));
    let text = text.map_err(|e| format!("read {}: {e}", path.display()))?;
    *parsed_bytes += text.len() as u64;
    let on_disk = tracer
        .span("serde_json.from_str", p, iteration, || serde_json::from_str::<SweepSummary>(&text));
    let on_disk = on_disk.map_err(|e| format!("parse {}: {e}", path.display()))?;
    let mut problems = Vec::new();
    if !same_verdicts(&on_disk, &outcome.summary) {
        problems.push(format!("{} differs from the returned summary", path.display()));
    }
    if digest != outcome.digest {
        problems.push(format!(
            "run_shard digest {digest:016x}, run_sweep_with {:016x}",
            outcome.digest
        ));
    }
    if !same_verdicts(&summary, &outcome.summary) {
        problems.push("run_shard summary differs from run_sweep_with".to_string());
    }
    Ok(problems)
}

/// Summaries agree on every verdict field; shard counts and the
/// metrics block are presentation, not verdicts.
fn same_verdicts(a: &SweepSummary, b: &SweepSummary) -> bool {
    a == &SweepSummary { shards: a.shards, ..b.clone() }
}

fn run_cell(cfg: &SweepConfig, dir: &Path, resume: bool) -> Result<SweepOutcome, String> {
    match sweep::run_sweep_with(cfg, dir, resume, |_, _, _| {}) {
        Ok(SweepRun::Complete(outcome)) => Ok(outcome),
        Ok(SweepRun::DeadlineStopped { .. }) => {
            Err(format!("{}: stopped at a deadline", cfg.slug()))
        }
        Err(e) => Err(format!("{}: {e}", cfg.slug())),
    }
}

/// The cell on `threads` worker threads, one `run_shard` call per shard.
fn records_at(cfg: &SweepConfig, classes: &[Vec<Coord>], threads: usize) -> Vec<ShardRecord> {
    let cfg = SweepConfig { threads, ..cfg.clone() };
    sweep::shard_ranges(classes.len(), cfg.shards)
        .into_iter()
        .enumerate()
        .map(|(shard, (start, end))| sweep::run_shard(classes, &cfg, shard, start, end))
        .collect()
}

fn single_record(cfg: &SweepConfig, results: Vec<ClassOutcome>) -> ShardRecord {
    ShardRecord {
        algo: cfg.algo.name(),
        sched: cfg.sched.name(),
        robots: cfg.n,
        max_rounds: cfg.limits.max_rounds,
        shard: 0,
        shards: 1,
        start: 0,
        end: results.len(),
        results,
        metrics: None,
        record_digest: None,
    }
}

fn load_records(cfg: &SweepConfig, dir: &Path) -> Result<Vec<ShardRecord>, String> {
    (0..cfg.shards)
        .map(|shard| {
            let path = cfg.shard_path(dir, shard);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
        })
        .collect()
}

/// FNV-1a over every class's full result (index, outcome, rounds or
/// states, verdict) in class order. `verdict_digest` covers only the
/// indices of FSYNC and random cells, so it cannot tell two random runs
/// apart; this digest can.
fn results_digest(records: &[ShardRecord]) -> String {
    let mut sorted: Vec<&ShardRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.start);
    let mut h = robots::adversary::Fnv64::new();
    for r in sorted {
        let json = serde_json::to_string(&r.results).expect("class outcomes serialise");
        h.write_all(json.as_bytes());
    }
    format!("{:016x}", h.finish())
}

/// Bytes of shard records and summary one cell run leaves: a fresh
/// cell writes all of them, a resumed cell only its summary.
fn written_bytes(cfg: &SweepConfig, dir: &Path, resume: bool) -> u64 {
    let size = |p: PathBuf| std::fs::metadata(p).map_or(0, |m| m.len());
    let records: u64 =
        if resume { 0 } else { (0..cfg.shards).map(|s| size(cfg.shard_path(dir, s))).sum() };
    records + size(cfg.summary_path(dir))
}

pub fn clear_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("clear {}: {e}", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trigrid::Coord;

    fn shared(target: (i32, i32), sources: &[(i32, i32)]) -> RoundCollision {
        RoundCollision::SharedTarget {
            target: Coord::new(target.0, target.1),
            sources: sources.iter().map(|&(x, y)| Coord::new(x, y)).collect(),
        }
    }

    #[test]
    fn replayed_collisions_match_up_to_translation() {
        // The n = 8 crash class 43 case: the same collision, moved by (-1, -1).
        let recorded =
            Outcome::Collision { round: 8, collision: shared((-2, 2), &[(-1, 1), (-1, 3)]) };
        let replayed =
            Outcome::Collision { round: 8, collision: shared((-3, 1), &[(-2, 0), (-2, 2)]) };
        assert!(same_outcome(&recorded, &replayed));
        let later =
            Outcome::Collision { round: 9, collision: shared((-3, 1), &[(-2, 0), (-2, 2)]) };
        assert!(!same_outcome(&recorded, &later));
        let other =
            Outcome::Collision { round: 8, collision: shared((-3, 1), &[(-2, 0), (-4, 2)]) };
        assert!(!same_outcome(&recorded, &other));
        let swap = |a: (i32, i32), b: (i32, i32)| RoundCollision::Swap {
            a: Coord::new(a.0, a.1),
            b: Coord::new(b.0, b.1),
        };
        assert!(same_collision(&swap((0, 0), (2, 0)), &swap((5, 5), (7, 5))));
        assert!(same_collision(&swap((0, 0), (2, 0)), &swap((7, 5), (5, 5))));
        assert!(!same_collision(&swap((0, 0), (2, 0)), &swap((5, 5), (6, 6))));
        assert!(!same_collision(&swap((0, 0), (2, 0)), &shared((0, 0), &[(2, 0)])));
    }

    #[test]
    fn other_outcomes_must_match_exactly() {
        assert!(same_outcome(&Outcome::StepLimit { rounds: 4 }, &Outcome::StepLimit { rounds: 4 }));
        assert!(!same_outcome(
            &Outcome::StepLimit { rounds: 4 },
            &Outcome::StepLimit { rounds: 5 }
        ));
        assert!(!same_outcome(
            &Outcome::StuckFixpoint { rounds: 4 },
            &Outcome::StepLimit { rounds: 4 }
        ));
    }

    #[test]
    fn every_workload_has_cells_of_one_robot_count() {
        for w in WORKLOADS {
            let (n, scheds, _) = cell_specs(w, 9).expect("listed workloads exist");
            assert!(n == 7 || n == 8);
            assert!(!scheds.is_empty());
        }
        assert!(cell_specs("nope", 1).is_none());
        let (_, scheds, _) = cell_specs("paper-n7", 9).unwrap();
        assert!(scheds.iter().any(|s| s.name() == "random-s9-p0.5"));
    }
}
