//! Observability layer: tracing must never change the science.
//!
//! The Table-II report has to be byte-for-byte identical with tracing on
//! or off and at every worker count; a traced study has to emit
//! schema-valid JSONL covering every pipeline stage for every cell.

use bomblab::bombs::dataset;
use bomblab::concolic::StudyReport;
use bomblab::obs::trace::validate_lines;
use bomblab::prelude::*;

/// Multi-round bombs, single-round failures, and a solved case — the
/// same slice the parallel-determinism suite uses.
fn slice() -> Vec<StudyCase> {
    vec![
        dataset::decl_time(),
        dataset::covert_stack(),
        dataset::array_l1(),
        dataset::jump_direct(),
    ]
}

fn observed(jobs: usize) -> StudyReport {
    run_study_with(
        &slice(),
        &ToolProfile::paper_lineup(),
        &StudyOptions {
            jobs,
            observe: true,
            ..StudyOptions::default()
        },
    )
}

#[test]
fn tracing_never_changes_the_report_bytes() {
    let profiles = ToolProfile::paper_lineup();
    let baseline = run_study_jobs(&slice(), &profiles, 1).to_markdown();
    for jobs in [1, 3] {
        let traced = observed(jobs).to_markdown();
        assert_eq!(
            baseline, traced,
            "observe=true under --jobs {jobs} leaked into the report"
        );
    }
}

#[test]
fn traced_study_emits_schema_valid_lines_covering_every_stage() {
    let report = observed(2);
    let lines = report.trace_lines();
    let doc = lines.join("\n");
    let checked = validate_lines(&doc).unwrap_or_else(|(line, why)| {
        panic!("trace line {line} invalid: {why}\n{}", lines[line - 1])
    });
    assert_eq!(checked, lines.len(), "every line must be validated");

    // Every (bomb, profile) cell must carry the core pipeline stages.
    for row in &report.rows {
        for cell in &row.cells {
            let profile = cell.obs.as_ref().unwrap_or_else(|| {
                panic!("{} x {}: no observation profile", row.name, cell.profile)
            });
            let stages: Vec<&str> = profile.spans.iter().map(|s| s.stage).collect();
            // Every attempt at least runs the bomb concretely; later
            // stages are reached only until the pipeline gives up (a
            // failed lift check skips symex, an Es0 cell never queries).
            assert!(
                stages.contains(&"vm.run"),
                "{} x {}: stage vm.run never recorded (saw {stages:?})",
                row.name,
                cell.profile
            );
            assert_eq!(
                stages.contains(&"solver.check"),
                cell.attempt.evidence.queries > 0,
                "{} x {}: solver.check spans disagree with {} queries",
                row.name,
                cell.profile,
                cell.attempt.evidence.queries
            );
        }
        // Phase-1 ground truth + static analysis is observed too.
        let p = row.analysis_obs.as_ref().expect("phase-1 profile");
        assert_eq!(p.profile, "oracle+static");
        assert!(p.spans.iter().any(|s| s.stage == "sa.analyze"));
    }

    // Study-wide, the whole pipeline is covered.
    let totals = report.metrics();
    for stage in [
        "vm.run",
        "taint.run",
        "symex.run",
        "solver.check",
        "sa.analyze",
    ] {
        assert!(
            totals.stages.contains_key(stage),
            "stage {stage} missing from study-wide totals: {:?}",
            totals.stages.keys().collect::<Vec<_>>()
        );
    }

    // Header, per-cell outcome lines, and trailer are all present.
    assert!(doc.contains("\"type\":\"study_start\""));
    assert!(doc.contains("\"type\":\"stage_total\""));
    let cells = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"cell\""))
        .count();
    assert_eq!(cells, report.rows.len() * ToolProfile::paper_lineup().len());

    // One window per phase-1 unit and per cell, every one closed.
    let windows = (report.rows.len() * (ToolProfile::paper_lineup().len() + 1)) as u64;
    assert_eq!(report.stats.obs_windows_opened, windows);
    assert_eq!(report.stats.obs_windows_closed, windows);
}

#[test]
fn unobserved_study_collects_nothing() {
    let report = run_study_jobs(&slice(), &ToolProfile::paper_lineup(), 2);
    for row in &report.rows {
        assert!(row.analysis_obs.is_none());
        assert!(row.cells.iter().all(|c| c.obs.is_none()));
    }
    assert_eq!(report.metrics().cells, 0);
    // The study's own tally, not the process-wide `obs::armed()` gate:
    // sibling tests arm windows of their own concurrently.
    assert_eq!(report.stats.obs_windows_opened, 0, "unobserved study armed");
    assert_eq!(report.stats.obs_windows_closed, 0);
}

#[test]
fn profile_summary_ranks_cells_and_breaks_down_stages() {
    let report = observed(1);
    let summary = report.profile_summary();
    assert!(summary.contains("## Slowest cells"));
    assert!(summary.contains("## Hottest solver cells"));
    assert!(summary.contains("## Per-stage breakdown"));
    assert!(summary.contains("vm.run"));
    assert!(summary.contains("solver.check"));
    // The summary is a sidecar: none of its sections leak into Table II.
    let report_md = report.to_markdown();
    assert!(!report_md.contains("Slowest cells"));
    assert!(!report_md.contains("wall_ns"));
}

#[test]
fn chaos_sweeps_can_observe_without_changing_verdicts() {
    let cases = vec![dataset::decl_time(), dataset::covert_stack()];
    let profiles = ToolProfile::paper_lineup();
    let base = ChaosConfig {
        sweeps: 2,
        faults: 1,
        jobs: 2,
        ..ChaosConfig::default()
    };
    let plain = chaos_sweep(&cases, &profiles, &base);
    let traced = chaos_sweep(
        &cases,
        &profiles,
        &ChaosConfig {
            observe: true,
            ..base
        },
    );
    assert_eq!(plain.len(), traced.len());
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.report.to_markdown(), t.report.to_markdown());
        assert!(p.violations.is_empty() && t.violations.is_empty());
        let doc = t.report.trace_lines().join("\n");
        validate_lines(&doc).expect("chaos trace lines validate");
    }
}
