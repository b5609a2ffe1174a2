//! The correctness gate's reference: the repository's pinned golden
//! files under `tests/golden/`, read at run time so the benchmark never
//! keeps its own copy of a digest or tally.
//!
//! A golden entry is a set of key/value pairs. A cell passes when every
//! pinned key is present in its merged summary with the same value, the
//! comparison the golden tests make.

use serde_json::Value;
use simlab::sweep::SweepSummary;
use std::path::Path;

/// The pinned expectations for one sweep cell.
#[derive(Clone, Debug)]
pub struct Expected {
    /// The file the expectations came from, for messages.
    pub source: String,
    pub fields: Vec<(String, Value)>,
}

/// The golden file that pins the full cell `(n, sched)`, if any: the
/// n = 7 cells have one file each, larger n share one list of rows.
fn golden_file(n: usize, sched: &str) -> Option<&'static str> {
    match (n, sched) {
        (7, "fsync") => Some("sweep-verified-fsync.json"),
        (7, "adversary") => Some("adversary-verified-full.json"),
        (7, "crash-f1") => Some("crash-verified-full.json"),
        (7, "lcm-async") => Some("async-verified-full.json"),
        (7, _) => None,
        _ => Some("nsweep-verified.json"),
    }
}

/// Loads the expectations for the full cell `(n, sched)` from the
/// golden directory. `Ok(None)` means nothing is pinned for the cell.
pub fn load(dir: &Path, n: usize, sched: &str) -> Result<Option<Expected>, String> {
    let Some(file) = golden_file(n, sched) else {
        return Ok(None);
    };
    let path = dir.join(file);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text, file, n, sched)
}

/// Parses a golden file: an object pins one cell; a list holds rows
/// tagged with `n` and `sched`, of which the full-cell row (the one
/// without a sampling `stride`) applies.
pub fn parse(text: &str, source: &str, n: usize, sched: &str) -> Result<Option<Expected>, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("parse {source}: {e}"))?;
    let object = match &value {
        Value::Seq(rows) => rows.iter().find(|row| {
            row.get("n").and_then(Value::as_i128) == Some(n as i128)
                && row.get("sched").and_then(Value::as_str) == Some(sched)
                && row.get("stride").is_none()
        }),
        other => Some(other),
    };
    let Some(object) = object else {
        return Ok(None);
    };
    let fields =
        object.as_map().ok_or_else(|| format!("{source}: golden entry is not an object"))?;
    Ok(Some(Expected { source: source.to_string(), fields: fields.to_vec() }))
}

/// The summary as the flat key/value map golden entries are written
/// against: the summary's own fields, the model-checking tallies lifted
/// to the top level, `n` for the robot count and, for crash cells,
/// `crashes` for the crash budget.
fn flatten(summary: &SweepSummary, crashes: Option<u8>) -> Vec<(String, Value)> {
    let mut flat: Vec<(String, Value)> = match serde_json::to_value(summary) {
        Ok(Value::Map(fields)) => fields,
        _ => Vec::new(),
    };
    let mut set = |key: &str, value: Value| match flat.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => flat.push((key.to_string(), value)),
    };
    if let Some(counts) = &summary.adversary {
        set("proof", Value::UInt(counts.proof as u64));
        set("refuted", Value::UInt(counts.refuted as u64));
        set("undecided", Value::UInt(counts.undecided as u64));
    }
    set("n", Value::UInt(summary.robots as u64));
    if let Some(f) = crashes {
        set("crashes", Value::UInt(u64::from(f)));
    }
    flat
}

/// Every pinned key the summary fails to reproduce, as messages. An
/// empty list means the cell matches its golden entry.
pub fn mismatches(expected: &Expected, summary: &SweepSummary, crashes: Option<u8>) -> Vec<String> {
    let flat = flatten(summary, crashes);
    expected
        .fields
        .iter()
        .filter_map(|(key, want)| match flat.iter().find(|(k, _)| k == key) {
            Some((_, got)) if got == want => None,
            Some((_, got)) => {
                Some(format!("{}: {key} is {} (pinned {})", expected.source, show(got), show(want)))
            }
            None => Some(format!("{}: summary lacks pinned key {key}", expected.source)),
        })
        .collect()
}

fn show(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| format!("{v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlab::sweep::AdversaryCounts;

    fn crash_summary(digest: &str) -> SweepSummary {
        SweepSummary {
            algo: "verified".into(),
            sched: "crash-f1".into(),
            robots: 7,
            shards: 8,
            total: 3652,
            gathered: 11,
            stuck: 3641,
            livelock: 0,
            collision: 0,
            disconnected: 0,
            step_limit: 0,
            undecided: 0,
            max_rounds: 0,
            mean_rounds: 0.0,
            failure_indices: Vec::new(),
            adversary: Some(AdversaryCounts { proof: 11, refuted: 3641, undecided: 0 }),
            digest: Some(digest.into()),
            metrics: None,
        }
    }

    const PINNED: &str = r#"{"total": 3652, "crashes": 1, "proof": 11, "refuted": 3641,
        "undecided": 0, "digest": "6696e3381f7fbd4f"}"#;

    #[test]
    fn matching_summary_passes() {
        let exp = parse(PINNED, "crash.json", 7, "crash-f1").unwrap().unwrap();
        assert!(mismatches(&exp, &crash_summary("6696e3381f7fbd4f"), Some(1)).is_empty());
    }

    #[test]
    fn flipped_digest_is_reported_not_fatal() {
        let exp = parse(PINNED, "crash.json", 7, "crash-f1").unwrap().unwrap();
        let problems = mismatches(&exp, &crash_summary("6696e3381f7fbd4e"), Some(1));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("digest"), "{problems:?}");
        // A flipped digest in the golden file itself reads the same way.
        let flipped = PINNED.replace("6696e3381f7fbd4f", "7696e3381f7fbd4f");
        let exp = parse(&flipped, "crash.json", 7, "crash-f1").unwrap().unwrap();
        assert_eq!(mismatches(&exp, &crash_summary("6696e3381f7fbd4f"), Some(1)).len(), 1);
    }

    #[test]
    fn wrong_crash_budget_and_missing_keys_are_mismatches() {
        let exp = parse(PINNED, "crash.json", 7, "crash-f1").unwrap().unwrap();
        assert_eq!(mismatches(&exp, &crash_summary("6696e3381f7fbd4f"), Some(2)).len(), 1);
        let mut summary = crash_summary("6696e3381f7fbd4f");
        summary.digest = None;
        let problems = mismatches(&exp, &summary, Some(1));
        assert!(problems.iter().any(|p| p.contains("digest")), "{problems:?}");
    }

    #[test]
    fn row_lists_select_the_full_cell_row() {
        let rows = r#"[
            {"n": 8, "sched": "crash-f1", "total": 16689, "digest": "b53d9682ec227d68"},
            {"n": 8, "sched": "crash-f1", "stride": 257, "classes": 65},
            {"n": 9, "sched": "crash-f1", "total": 77359, "digest": "aabbffc4d5b0206b"}
        ]"#;
        let exp = parse(rows, "nsweep.json", 8, "crash-f1").unwrap().unwrap();
        assert!(exp.fields.iter().any(|(k, v)| k == "total" && v.as_i128() == Some(16689)));
        assert!(exp.fields.iter().all(|(k, _)| k != "stride"));
        assert!(parse(rows, "nsweep.json", 8, "lcm-async").unwrap().is_none());
    }

    #[test]
    fn malformed_golden_is_an_error_not_a_panic() {
        assert!(parse("{\"total\": ", "bad.json", 7, "crash-f1").is_err());
        assert!(parse("[1, 2]", "bad.json", 8, "crash-f1").unwrap().is_none());
        assert!(parse("3", "bad.json", 7, "crash-f1").is_err());
    }

    #[test]
    fn pinned_files_cover_every_gated_cell() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden");
        for (n, sched) in [
            (7, "fsync"),
            (7, "adversary"),
            (7, "crash-f1"),
            (7, "lcm-async"),
            (8, "crash-f1"),
            (8, "lcm-async"),
        ] {
            let exp = load(&dir, n, sched).unwrap();
            assert!(exp.is_some(), "no golden entry for n={n} {sched}");
        }
        assert!(load(&dir, 7, "random-s1-p0.5").unwrap().is_none());
    }
}
