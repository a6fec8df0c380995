//! Configuration-fingerprint stability across the full experiment suite.
//!
//! The scenario-result cache keys on `Scenario::config_fingerprint`, so a
//! silent change to the fingerprint encoding (or to what a scenario feeds
//! into it) would quietly turn every warm cache cold — or worse, alias two
//! different configurations. This test pins the fingerprint of **every**
//! scenario the `experiments` suite submits, in submission order, against
//! a golden file.
//!
//! Regenerate after an intentional encoding change with
//! `UPDATE_GOLDEN=1 cargo test -p reach-integration --test fingerprints`.

use reach::{encode_report, Scenario, ScenarioExecutor, ScenarioResult, SequentialExecutor};
use std::collections::HashMap;
use std::sync::Mutex;

/// Delegates to the sequential reference executor, recording every
/// scenario's fingerprint and label on the way through — and, since it
/// simulates every scenario anyway, auditing the cache keys: every keyed
/// report's canonical bytes are kept per fingerprint, so two scenarios
/// sharing a key must have produced the same report.
#[derive(Default)]
struct HarvestExecutor {
    rows: Mutex<Vec<String>>,
    audit: Mutex<KeyAudit>,
}

/// The first label and report bytes seen per fingerprint, how many
/// scenarios repeated a key, and which repeats replayed different bytes.
#[derive(Default)]
struct KeyAudit {
    first: HashMap<String, (String, Vec<u8>)>,
    repeated: usize,
    mismatches: Vec<String>,
}

impl HarvestExecutor {
    fn rendered(&self) -> String {
        let rows = self.rows.lock().expect("harvest rows poisoned");
        let mut out = String::new();
        for row in rows.iter() {
            out.push_str(row);
            out.push('\n');
        }
        out
    }
}

impl ScenarioExecutor for HarvestExecutor {
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult> {
        let keys: Vec<Option<String>> = scenarios
            .iter()
            .map(|s| s.config_fingerprint().map(|f| f.to_string()))
            .collect();
        {
            let mut rows = self.rows.lock().expect("harvest rows poisoned");
            for (s, key) in scenarios.iter().zip(&keys) {
                let fp = key.clone().unwrap_or_else(|| "-".repeat(32));
                rows.push(format!("{fp}  {}", s.label()));
            }
        }
        let results = SequentialExecutor.run_all(scenarios);
        let mut audit = self.audit.lock().expect("harvest audit poisoned");
        for (key, result) in keys.into_iter().zip(&results) {
            let Some(key) = key else { continue };
            let bytes = encode_report(&result.report);
            match audit.first.get(&key) {
                None => {
                    audit.first.insert(key, (result.label.clone(), bytes));
                }
                Some((label, seen)) => {
                    let mismatch =
                        (*seen != bytes).then(|| format!("{key}: {label} vs {}", result.label));
                    audit.repeated += 1;
                    audit.mismatches.extend(mismatch);
                }
            }
        }
        results
    }
}

fn check_golden(rendered: &str, path: &str, golden: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")), rendered)
            .expect("golden file is writable");
        return;
    }
    assert!(
        rendered == golden,
        "{path} drifted — the fingerprint encoding or a scenario's inputs \
         changed. If intentional, regenerate with UPDATE_GOLDEN=1.\n\
         --- rendered ---\n{rendered}\n--- golden ---\n{golden}"
    );
}

#[test]
fn full_suite_fingerprints_match_golden_file() {
    let harvest = HarvestExecutor::default();
    for (_, render) in reach_bench::renderers() {
        let _ = render(&harvest);
    }
    let rendered = harvest.rendered();
    let lines: Vec<&str> = rendered.lines().collect();
    assert!(
        lines.len() >= 100,
        "expected the full suite, saw {} scenarios",
        lines.len()
    );
    // Every suite scenario derives its cache key.
    let opted_out = lines.iter().filter(|l| l.starts_with("----")).count();
    assert!(
        opted_out == 0,
        "{opted_out}/{} scenarios uncacheable — a fingerprint regression",
        lines.len()
    );
    // No key is shared by two scenarios whose reports differ: an
    // under-keyed fingerprint would replay the wrong report.
    let audit = harvest.audit.into_inner().expect("harvest audit poisoned");
    assert!(
        audit.mismatches.is_empty(),
        "under-keyed fingerprints (same key, different report): {:#?}",
        audit.mismatches
    );
    assert!(
        audit.repeated > 0,
        "the suite repeats no key, so nothing was audited"
    );
    check_golden(
        &rendered,
        "../../tests/golden/fingerprints.txt",
        include_str!("golden/fingerprints.txt"),
    );
}
