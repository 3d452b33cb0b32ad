//! The correctness gate. A cell fails when any of these holds:
//!
//! * its label differs from the expected one: the committed Table II golden
//!   for the paper lineup, `omniscient_expected.txt` for Omniscient;
//! * it is `OK` but its solved input does not detonate the bomb in a fresh
//!   concrete run, which involves no solver;
//! * it ended in a contained crash or deadline.

use bomblab_concolic::{Outcome, StudyCase, StudyReport, ToolProfile};
use std::collections::BTreeMap;

/// Parsed, never regenerated: the benchmark checks against the committed
/// report.
const TABLE2_GOLDEN: &str = include_str!("../../tests/golden/table2_report.md");
const OMNISCIENT_EXPECTED: &str = include_str!("../omniscient_expected.txt");

/// Expected label per (bomb, profile).
pub struct Gate {
    expected: BTreeMap<(String, String), String>,
}

/// The label of a golden cell: `Es0`, or `**Es0** (paper: Es2)` for a cell
/// that differs from the paper.
fn golden_label(cell: &str) -> &str {
    cell.strip_prefix("**")
        .and_then(|rest| rest.split("**").next())
        .unwrap_or(cell)
}

fn parse_table2(text: &str) -> Result<BTreeMap<(String, String), String>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty Table II golden")?;
    let columns: Vec<&str> = header.split('|').map(str::trim).collect();
    if columns.get(1..3) != Some(&["Category", "Case"][..]) {
        return Err(format!("unexpected Table II header {header:?}"));
    }
    let profiles = &columns[3..columns.len() - 1];
    let mut expected = BTreeMap::new();
    for line in lines.skip(1) {
        let fields: Vec<&str> = line.split('|').map(str::trim).collect();
        // The table ends at the `| | **solved** | ..` line.
        if fields.len() != columns.len() || fields[1].is_empty() {
            break;
        }
        for (profile, cell) in profiles.iter().zip(&fields[3..]) {
            expected.insert(
                (fields[2].to_string(), (*profile).to_string()),
                golden_label(cell).to_string(),
            );
        }
    }
    if expected.len() != 22 * profiles.len() {
        return Err(format!(
            "Table II golden has {} cells, expected 22 bombs x {} profiles",
            expected.len(),
            profiles.len()
        ));
    }
    Ok(expected)
}

impl Gate {
    pub fn load() -> Result<Gate, String> {
        let mut expected = parse_table2(TABLE2_GOLDEN)?;
        for line in OMNISCIENT_EXPECTED.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (bomb, label) = line
                .split_once(char::is_whitespace)
                .ok_or(format!("bad omniscient_expected.txt line {line:?}"))?;
            expected.insert(
                (bomb.to_string(), "Omniscient".to_string()),
                label.trim().to_string(),
            );
        }
        Ok(Gate { expected })
    }

    /// Checks every cell of a pass. Returns the number of cells checked and
    /// one reason per failed cell.
    pub fn check(
        &self,
        report: &StudyReport,
        cases: &[StudyCase],
        profiles: &[ToolProfile],
    ) -> (usize, Vec<String>) {
        let mut attempted = 0;
        let mut failures = Vec::new();
        for row in &report.rows {
            let case = cases
                .iter()
                .find(|c| c.subject.name == row.name)
                .expect("report rows come from the workload's cases");
            for cell in &row.cells {
                attempted += 1;
                let profile = profiles
                    .iter()
                    .find(|p| p.name == cell.profile)
                    .expect("report cells come from the workload's profiles");
                let label = cell.outcome.to_string();
                let key = (row.name.clone(), cell.profile.clone());
                let why = if let Some(crash) = &cell.attempt.evidence.crash {
                    Some(format!(
                        "contained crash [{}]: {}",
                        crash.stage, crash.message
                    ))
                } else if self.expected.get(&key) != Some(&label) {
                    Some(format!(
                        "label {label}, expected {}",
                        self.expected.get(&key).map_or("none", String::as_str)
                    ))
                } else if cell.outcome == Outcome::Solved {
                    match &cell.attempt.solved_input {
                        Some(input) if case.subject.detonates(input, profile.step_budget) => None,
                        Some(_) => Some("solved input does not detonate the bomb".to_string()),
                        None => Some("solved without a solved input".to_string()),
                    }
                } else {
                    None
                };
                if let Some(why) = why {
                    failures.push(format!("{} x {}: {why}", row.name, cell.profile));
                }
            }
        }
        (attempted, failures)
    }
}
