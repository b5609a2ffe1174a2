//! Failure-cluster diagnosis for rule-set completion.
//!
//! Runs the exhaustive verification, groups the failing executions by
//! the canonical *final* configuration (for stuck fixpoints) or by
//! outcome type, and prints the most frequent clusters with per-robot
//! base decisions — the raw material for designing the missing guards.
//!
//! ```text
//! cargo run --release -p simlab --bin diagnose [-- paper|verified|FLAGS] [--top N]
//! cargo run --release -p simlab --bin diagnose -- --stats [--class I] [--n N] [paper|verified|FLAGS]
//! ```
//!
//! The algorithm spec is the one `sweep --algo` takes ([`AlgoSpec`]);
//! it defaults to `verified`.
//!
//! `--stats` switches to single-class telemetry mode: it runs the
//! exhaustive SSYNC adversary checker on one class (`--class`, default
//! 0, of the `--n`-robot enumeration, default 7) and dumps the
//! checker's telemetry snapshot — per-phase wall times, memo hit
//! rates, frontier peaks — as pretty JSON plus a short human summary.

use gathering::base::{determine, BaseDecision};
use robots::adversary::{AdversaryOptions, Checker};
use robots::{engine, Algorithm, Configuration, Limits, Outcome, View};
use simlab::render;
use simlab::sweep::{AlgoSpec, MAX_SWEEP_N, MIN_SWEEP_N};
use std::collections::HashMap;

/// What one invocation asks for.
#[derive(Debug, PartialEq)]
struct Args {
    algo: AlgoSpec,
    mode: Mode,
}

#[derive(Debug, PartialEq)]
enum Mode {
    /// Cluster the failures of the n = 7 verification; print the `top`
    /// largest clusters.
    Clusters { top: usize },
    /// Telemetry snapshot of one adversary check.
    Stats { n: usize, class: usize },
}

/// Prints the reason and the usage text, and exits with the usage
/// code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: diagnose [paper|verified|FLAGS] [--top N]\n\
         \x20      diagnose --stats [--class I] [--n N ({MIN_SWEEP_N}..={MAX_SWEEP_N})] [paper|verified|FLAGS]\n\
         \n\
         FLAGS is a '+'-separated ablation list from fix25, conn, prio, compl, mirror (or 'none')."
    );
    std::process::exit(2);
}

/// Parses a raw argument vector. Pure (no I/O, no exit), so the usage
/// surface is unit-testable; `main` routes any `Err` through
/// [`usage_error`].
fn parse_cli(argv: &[String]) -> Result<Args, String> {
    let mut algo = None;
    let mut stats = false;
    let (mut top, mut n, mut class) = (None, None, None);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut number = |name: &str, what: &str| -> Result<Option<usize>, String> {
            let v = it.next().ok_or_else(|| format!("missing value for {name}"))?;
            v.parse().map(Some).map_err(|_| format!("invalid {what} for {name}: {v:?}"))
        };
        match arg.as_str() {
            "--stats" => stats = true,
            "--top" => top = number("--top", "cluster count")?,
            "--n" => n = number("--n", "robot count")?,
            "--class" => class = number("--class", "class index")?,
            flag if flag.starts_with("--") => return Err(format!("unknown argument {flag:?}")),
            spec => {
                if algo.is_some() {
                    return Err(format!("more than one algorithm spec: {spec:?}"));
                }
                algo = Some(
                    AlgoSpec::parse(spec)
                        .ok_or_else(|| format!("unknown algorithm spec {spec:?}"))?,
                );
            }
        }
    }
    let mode = if stats {
        if top.is_some() {
            return Err("--top clusters failures; it does not apply to --stats".into());
        }
        let n = n.unwrap_or(7);
        if !(MIN_SWEEP_N..=MAX_SWEEP_N).contains(&n) {
            return Err(format!("--n {n} is outside the supported {MIN_SWEEP_N}..={MAX_SWEEP_N}"));
        }
        Mode::Stats { n, class: class.unwrap_or(0) }
    } else {
        if n.is_some() || class.is_some() {
            return Err("--n and --class select one class for --stats; add --stats".into());
        }
        Mode::Clusters { top: top.unwrap_or(8) }
    };
    Ok(Args { algo: algo.unwrap_or(AlgoSpec::Verified), mode })
}

/// `--stats` mode: one class, one check, full telemetry dump.
fn run_stats(spec: &AlgoSpec, n: usize, class: usize) {
    let which = spec.name();
    let algo = spec.build();
    let classes = polyhex::enumerate_fixed(n);
    let Some(cells) = classes.get(class) else {
        eprintln!("class {class} out of range: the n={n} space holds {} classes", classes.len());
        std::process::exit(2);
    };
    let initial = Configuration::new(cells.iter().copied());
    let checker = Checker::for_robots(&algo, AdversaryOptions::for_robots(n), n.max(8));
    let report = checker.check(&initial);
    let snapshot = checker.metrics_snapshot();

    println!("class {class}/{} (n={n}, {which}): verdict {:?}", classes.len(), report.verdict);
    println!("classes {} · edges {} · deduped {}", report.classes, report.edges, report.deduped);
    let ms = |name: &str| snapshot.counter(name) as f64 / 1e6;
    println!(
        "phases: A {:.2} ms · B {:.2} ms · C {:.2} ms · D {:.2} ms",
        ms("explore.phase_a_ns"),
        ms("explore.phase_b_ns"),
        ms("explore.phase_c_ns"),
        ms("explore.phase_d_ns"),
    );
    println!(
        "memo hit rates: oracle {:.1}% · class-info {:.1}% · round-table {:.1}%",
        snapshot.rate("oracle.hit", "oracle.miss") * 100.0,
        snapshot.rate("memo.info.hit", "memo.info.miss") * 100.0,
        snapshot.rate("memo.table.hit", "memo.table.miss") * 100.0,
    );
    if let Some(width) = snapshot.histogram("explore.frontier_width") {
        println!(
            "frontier: peak {} · mean {:.1} over {} levels",
            width.max,
            width.mean(),
            width.count
        );
    }
    println!("\nsnapshot:");
    println!("{}", serde_json::to_string_pretty(&snapshot).expect("snapshot serializes"));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_cli(&argv).unwrap_or_else(|msg| usage_error(&msg));
    let top = match args.mode {
        Mode::Stats { n, class } => return run_stats(&args.algo, n, class),
        Mode::Clusters { top } => top,
    };
    let algo = args.algo.build();
    let limits = Limits::default();
    let classes = polyhex::enumerate_fixed(7);

    let results = parallel::par_map(&classes, 0, |cells| {
        let initial = Configuration::new(cells.iter().copied());
        engine::run(&initial, &algo, limits)
    });

    let mut outcome_kinds: HashMap<&'static str, usize> = HashMap::new();
    // stuck fixpoints and livelocks clustered by canonical final config
    let mut clusters: HashMap<Configuration, (usize, Configuration, &'static str)> = HashMap::new();
    let mut gathered = 0usize;
    for ex in &results {
        let kind = match ex.outcome {
            Outcome::Gathered { .. } => {
                gathered += 1;
                continue;
            }
            Outcome::StuckFixpoint { .. } => "stuck",
            Outcome::Livelock { .. } => "livelock",
            Outcome::Collision { .. } => "collision",
            Outcome::Disconnected { .. } => "disconnected",
            Outcome::StepLimit { .. } => "step-limit",
            // `engine::run` never emits it (checker-only outcome), but
            // the match must stay total.
            Outcome::Undecided { .. } => "undecided",
        };
        *outcome_kinds.entry(kind).or_default() += 1;
        let key = ex.final_config.canonical();
        let entry = clusters.entry(key).or_insert((0, ex.initial.clone(), kind));
        entry.0 += 1;
    }

    println!("gathered {gathered}/{} ; failure kinds: {outcome_kinds:?}", results.len());
    println!("{} distinct failure clusters\n", clusters.len());

    let mut ordered: Vec<(&Configuration, &(usize, Configuration, &'static str))> =
        clusters.iter().collect();
    ordered.sort_by_key(|e| std::cmp::Reverse(e.1 .0));

    for (final_cfg, (count, sample_initial, kind)) in ordered.into_iter().take(top) {
        println!("=== cluster ({kind}) x{count} — final configuration:");
        print!("{}", render::render_with_margin(final_cfg, 0));
        println!("per-robot analysis of the final configuration:");
        for &p in final_cfg.positions() {
            let v = View::observe(final_cfg, p, 2);
            let b = determine(&v);
            let mv = algo.compute(&v);
            let btxt = match b {
                BaseDecision::Base(c) => format!("base {c}"),
                BaseDecision::VirtualEast => "base virtual(4,0)".to_string(),
                BaseDecision::SelfPromotion => "self-promotion".to_string(),
                BaseDecision::Tie => "tie".to_string(),
            };
            println!("  robot {p}: {btxt}, move {mv:?}");
        }
        println!("sample initial configuration:");
        print!("{}", render::render_with_margin(sample_initial, 0));
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_every_sweep_algorithm_spec_in_both_modes() {
        let args = parse_cli(&argv(&[])).expect("empty invocation");
        assert_eq!(args, Args { algo: AlgoSpec::Verified, mode: Mode::Clusters { top: 8 } });
        let args = parse_cli(&argv(&["paper", "--top", "3"])).expect("valid invocation");
        assert_eq!(args, Args { algo: AlgoSpec::Paper, mode: Mode::Clusters { top: 3 } });
        for spec in ["paper", "verified", "none", "fix25+conn+compl"] {
            let args = parse_cli(&argv(&[spec])).expect("valid spec");
            assert_eq!(args.algo, AlgoSpec::parse(spec).unwrap());
        }
        let args = parse_cli(&argv(&["--stats", "--n", "8", "--class", "5", "fix25"]))
            .expect("valid invocation");
        assert_eq!(args.algo, AlgoSpec::parse("fix25").unwrap());
        assert_eq!(args.mode, Mode::Stats { n: 8, class: 5 });
    }

    #[test]
    fn rejects_unknown_specs_and_arguments() {
        let err = parse_cli(&argv(&["papr"])).unwrap_err();
        assert!(err.contains("unknown algorithm spec"), "{err}");
        let err = parse_cli(&argv(&["paper", "verified"])).unwrap_err();
        assert!(err.contains("more than one"), "{err}");
        assert!(parse_cli(&argv(&["--frobnicate"])).unwrap_err().contains("unknown argument"));
        // Flags of the other mode are errors, not silently ignored.
        assert!(parse_cli(&argv(&["--class", "3"])).unwrap_err().contains("--stats"));
        assert!(parse_cli(&argv(&["--n", "7"])).unwrap_err().contains("--stats"));
        assert!(parse_cli(&argv(&["--stats", "--top", "3"])).unwrap_err().contains("--top"));
    }

    #[test]
    fn rejects_unparsable_and_missing_numbers() {
        let err = parse_cli(&argv(&["--stats", "--class", "abc"])).unwrap_err();
        assert!(err.contains("--class"), "{err}");
        let err = parse_cli(&argv(&["--stats", "--n", "seven"])).unwrap_err();
        assert!(err.contains("--n"), "{err}");
        let err = parse_cli(&argv(&["--top", "-1"])).unwrap_err();
        assert!(err.contains("--top"), "{err}");
        assert!(parse_cli(&argv(&["--top"])).unwrap_err().contains("missing value"));
    }

    #[test]
    fn rejects_robot_counts_outside_the_sweep_range() {
        for n in [0, MIN_SWEEP_N - 1, MAX_SWEEP_N + 1, 64] {
            let err = parse_cli(&argv(&["--stats", "--n", &n.to_string()])).unwrap_err();
            assert!(err.contains("outside"), "{err}");
        }
        for n in [MIN_SWEEP_N, MAX_SWEEP_N] {
            let args = parse_cli(&argv(&["--stats", "--n", &n.to_string()])).expect("in range");
            assert_eq!(args.mode, Mode::Stats { n, class: 0 });
        }
    }
}
