//! The traced pass and the per-layer metrics drawn from it.
//!
//! The traced pass does what `run_study_with` does at one job — ground
//! truth and static analysis per case, then the (case, profile) matrix with
//! one shared solver cache — but from the benchmark's own loop, so it can
//! time the calls into each crate: `ground_truth`, `bomblab_sa::analyze`,
//! hint building and `Engine::explore`. An `obs` window around each
//! `analyze` and `explore` call collects the spans and counters the crates
//! already record. No tracing is added inside the program.
//!
//! `obs` spans are flat records of nested intervals: `sa.analyze` contains
//! `sa.callgraph`, `sa.dataflow` and `sa.taint`; `solver.check` contains
//! `solver.simplify`, `solver.interval` and `solver.slice`; `explore`
//! contains `vm.run`, `taint.run`, `symex.run`, `lift.check` and
//! `solver.check`. Each layer's self time subtracts its children, and
//! `core.unattributed_ms` is the pass wall minus every self time, so the
//! self times plus `core.unattributed_ms` add up to the traced pass wall.

use crate::{quantile, Metric};
use bomblab_concolic::study::{CellResult, RowResult, StudyStats};
use bomblab_concolic::{
    ground_truth, Attempt, CrashDiag, Engine, Evidence, Outcome, StaticHints, StudyCase,
    StudyOptions, StudyReport, ToolProfile,
};
use bomblab_fault as fault;
use bomblab_obs as obs;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A finished traced pass: its report (with every `obs` window attached)
/// and the benchmark's own timings of the calls into each crate.
pub struct TracedPass {
    pub wall: Duration,
    pub report: StudyReport,
    oracle_ns: u64,
    analyze_ns: u64,
    hints_ns: u64,
    explore_ns: u64,
}

fn ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Runs the study once with every layer timed. Containment mirrors the
/// runner: each `analyze` and `explore` call runs with the fault layer
/// armed (no plan, the default cell deadline) under `catch_unwind`.
pub fn traced_pass(cases: &[StudyCase], profiles: &[ToolProfile]) -> TracedPass {
    let deadline = StudyOptions::default().cell_deadline;
    let (mut oracle_ns, mut analyze_ns, mut hints_ns, mut explore_ns) = (0, 0, 0, 0);
    let t_pass = Instant::now();

    let mut phase1 = Vec::with_capacity(cases.len());
    for case in cases {
        let t0 = Instant::now();
        let ground = ground_truth(&case.subject, &case.trigger);
        oracle_ns += ns(t0);
        let window = obs::arm(&case.subject.name, "static");
        let armed = fault::arm(None, deadline);
        let t0 = Instant::now();
        let analysis = catch_unwind(AssertUnwindSafe(|| {
            bomblab_sa::analyze(&case.subject.image, case.subject.lib.as_ref())
        }));
        analyze_ns += ns(t0);
        let containment = fault::disarm(armed);
        let profile = obs::disarm(window);
        let analysis = analysis.map_err(|payload| CrashDiag {
            message: fault::panic_message(&*payload),
            stage: "static analysis".to_string(),
            elapsed_ns: containment.elapsed.as_nanos() as u64,
        });
        phase1.push((ground, analysis, profile));
    }

    let shared_cache = Some(bomblab_solver::ShardCache::shared());
    let mut rows = Vec::with_capacity(cases.len());
    for (case, (ground, analysis, analysis_obs)) in cases.iter().zip(phase1) {
        let mut cells = Vec::with_capacity(profiles.len());
        for (col, profile) in profiles.iter().enumerate() {
            let t0 = Instant::now();
            let hints = analysis
                .as_ref()
                .map(|a| {
                    let h = StaticHints::from_analysis(a);
                    if profile.use_dataflow_hints {
                        h.with_dataflow(a)
                    } else {
                        h
                    }
                })
                .unwrap_or_default();
            hints_ns += ns(t0);
            let engine = Engine::new(profile.clone())
                .with_static_hints(hints)
                .with_shared_cache(shared_cache.clone());
            let window = obs::arm(&case.subject.name, &profile.name);
            let armed = fault::arm(None, deadline);
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| engine.explore(&case.subject, &ground)));
            let wall_ns = ns(t0);
            explore_ns += wall_ns;
            let containment = fault::disarm(armed);
            let cell_obs = obs::disarm(window);
            let attempt = result.unwrap_or_else(|payload| Attempt {
                outcome: Outcome::Abnormal,
                solved_input: None,
                evidence: Evidence {
                    abnormal: true,
                    crash: Some(CrashDiag {
                        message: fault::panic_message(&*payload),
                        stage: containment.stage.to_string(),
                        elapsed_ns: containment.elapsed.as_nanos() as u64,
                    }),
                    ..Evidence::default()
                },
            });
            cells.push(CellResult {
                profile: profile.name.clone(),
                outcome: attempt.outcome,
                expected: case.paper_expected.and_then(|row| row.get(col).copied()),
                wall_ns,
                attempt,
                obs: Some(cell_obs),
            });
        }
        let (static_predictions, analysis_crash) = match analysis {
            Ok(a) => (
                profiles
                    .iter()
                    .map(|p| bomblab_sa::predict(&a.facts, &p.static_capabilities()).into())
                    .collect(),
                None,
            ),
            Err(diag) => (vec![Outcome::Abnormal; profiles.len()], Some(diag)),
        };
        rows.push(RowResult {
            name: case.subject.name.clone(),
            category: case.category.clone(),
            cells,
            ground,
            static_predictions,
            analysis_crash,
            analysis_obs: Some(analysis_obs),
        });
    }
    let report = StudyReport {
        profiles: profiles.iter().map(|p| p.name.clone()).collect(),
        rows,
        stats: StudyStats::default(),
    };
    black_box(report.to_markdown());
    TracedPass {
        wall: t_pass.elapsed(),
        report,
        oracle_ns,
        analyze_ns,
        hints_ns,
        explore_ns,
    }
}

/// Every cell of a pass, row by row.
pub fn cells(report: &StudyReport) -> impl Iterator<Item = &CellResult> {
    report.rows.iter().flat_map(|r| &r.cells)
}

fn evidence_sum(report: &StudyReport, field: impl Fn(&Evidence) -> u64) -> u64 {
    cells(report).map(|c| field(&c.attempt.evidence)).sum()
}

/// Every `obs` counter and histogram sum of a traced pass: the counts that
/// must repeat exactly across the traced passes of a run.
pub fn layer_counts(report: &StudyReport) -> BTreeMap<String, u64> {
    let registry = report.metrics();
    let mut counts = registry.counters.clone();
    for (name, hist) in &registry.hists {
        if name != "solver.query_ns" {
            counts.insert(format!("{name}.sum"), hist.sum);
        }
    }
    counts
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced pass. `untraced_s` is the fastest
/// untraced pass wall of the same run, over `untraced_n` passes.
pub fn layer_metrics(pass: &TracedPass, untraced_s: f64, untraced_n: usize) -> Vec<Metric> {
    let report = &pass.report;
    let registry = report.metrics();
    let span = |stage: &str| registry.stages.get(stage).map_or(0, |&(_, total)| total) as i64;
    let count = |name: &str| registry.counter(name) as f64;
    let hist_sum = |name: &str| registry.hists.get(name).map_or(0, |h| h.sum) as f64;

    // Self times in nanoseconds, signed so that the sum identity is exact.
    let sa_children = span("sa.callgraph") + span("sa.dataflow") + span("sa.taint");
    let sa_self = pass.analyze_ns as i64 - sa_children;
    let solver_children = span("solver.simplify") + span("solver.interval") + span("solver.slice");
    let check_self = span("solver.check") - solver_children;
    let explore_inner = span("vm.run")
        + span("taint.run")
        + span("symex.run")
        + span("lift.check")
        + span("solver.check");
    let explore_self = pass.explore_ns as i64 - explore_inner;
    let self_times: [(&'static str, i64); 15] = [
        ("sa.analyze_self_ms", sa_self),
        ("sa.callgraph_ms", span("sa.callgraph")),
        ("sa.dataflow_ms", span("sa.dataflow")),
        ("sa.taint_ms", span("sa.taint")),
        ("solver.check_self_ms", check_self),
        ("solver.simplify_ms", span("solver.simplify")),
        ("solver.interval_ms", span("solver.interval")),
        ("solver.slice_ms", span("solver.slice")),
        ("symex.run_ms", span("symex.run")),
        ("lift.check_ms", span("lift.check")),
        ("vm.run_ms", span("vm.run")),
        ("taint.run_ms", span("taint.run")),
        ("core.oracle_ms", pass.oracle_ns as i64),
        ("core.hints_ms", pass.hints_ns as i64),
        ("core.explore_self_ms", explore_self),
    ];
    let wall_ns = pass.wall.as_nanos() as i64;
    let unattributed = wall_ns - self_times.iter().map(|&(_, t)| t).sum::<i64>();

    let mut query_ms: Vec<f64> = cells(report)
        .filter_map(|c| c.obs.as_ref())
        .flat_map(|p| &p.spans)
        .filter(|s| s.stage == "solver.check")
        .map(|s| s.ns as f64 / 1e6)
        .collect();
    query_ms.sort_by(f64::total_cmp);
    let queries = query_ms.len();
    let (query_p50, query_max) = if query_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (quantile(&query_ms, 0.5), query_ms[queries - 1])
    };

    let n_cells = cells(report).count();
    let budget_cells = cells(report)
        .filter(|c| c.attempt.evidence.solver_budget)
        .count();
    let propagations = evidence_sum(report, |e| e.propagations) as f64;
    let vm_steps = count("vm.steps");
    let traced_s = pass.wall.as_secs_f64();
    let cache_lookups = count("solver.cache_hits") + count("solver.cache_misses");
    let bb_lookups = count("vm.bb_hits") + count("vm.bb_misses");
    let trace_steps = count("vm.trace_steps_full") + count("vm.trace_steps_elided");

    let mut out: Vec<Metric> = self_times
        .iter()
        .map(|&(name, t)| (name, t as f64 / 1e6, "ms", 1))
        .chain([
            ("core.unattributed_ms", unattributed as f64 / 1e6, "ms", 1),
            (
                "core.unattributed_share",
                ratio(unattributed as f64, wall_ns as f64),
                "share",
                1,
            ),
            // solver: the CDCL loop and bit-blasting.
            ("solver.conflicts", hist_sum("solver.conflicts"), "count", 1),
            ("solver.propagations", propagations, "count", 1),
            (
                "solver.ns_per_propagation",
                ratio(check_self as f64, propagations),
                "ns",
                1,
            ),
            (
                "solver.blocker_skips",
                count("solver.blocker_skips"),
                "count",
                1,
            ),
            (
                "solver.lbd_evictions",
                count("solver.lbd_evictions"),
                "count",
                1,
            ),
            ("solver.queries", count("solver.queries"), "count", 1),
            ("solver.query_ms_p50", query_p50, "ms", queries),
            ("solver.query_ms_max", query_max, "ms", queries),
            ("solver.budget_cells", budget_cells as f64, "count", n_cells),
            // solver: the query optimizer.
            ("solver.slices", count("solver.slices"), "count", 1),
            (
                "solver.witness_hits",
                count("solver.witness_hits"),
                "count",
                1,
            ),
            (
                "solver.simplify_hits",
                count("solver.simplify_hits"),
                "count",
                1,
            ),
            // solver: the caches.
            (
                "solver.cache_hit_rate",
                ratio(count("solver.cache_hits"), cache_lookups),
                "share",
                1,
            ),
            (
                "solver.shared_cache_hits",
                evidence_sum(report, |e| e.shared_cache_hits) as f64,
                "count",
                1,
            ),
            (
                "solver.shared_cache_rejected",
                evidence_sum(report, |e| e.shared_cache_rejected) as f64,
                "count",
                1,
            ),
            (
                "solver.roots_reused",
                count("solver.roots_reused"),
                "count",
                1,
            ),
            ("sa.cfg_blocks", count("sa.cfg_blocks"), "count", 1),
            ("sa.rounds", count("sa.rounds"), "count", 1),
            ("sa.du_edges", count("sa.du_edges"), "count", 1),
            ("symex.path_conds", count("symex.path_conds"), "count", 1),
            ("vm.steps", vm_steps, "count", 1),
            (
                "vm.steps_per_s",
                ratio(vm_steps, span("vm.run") as f64 / 1e9),
                "1/s",
                1,
            ),
            (
                "vm.bb_hit_rate",
                ratio(count("vm.bb_hits"), bb_lookups),
                "share",
                1,
            ),
            (
                "vm.trace_arena_bytes",
                count("vm.trace_arena_bytes"),
                "bytes",
                1,
            ),
            (
                "vm.trace_elided_share",
                ratio(count("vm.trace_steps_elided"), trace_steps),
                "share",
                1,
            ),
            ("taint.steps", count("taint.steps"), "count", 1),
            (
                "taint.tainted_steps",
                count("taint.tainted_steps"),
                "count",
                1,
            ),
            // core: the engine loop.
            ("engine.rounds", count("engine.rounds"), "count", 1),
            ("engine.queries", count("engine.queries"), "count", 1),
            (
                "engine.sat_queries",
                count("engine.sat_queries"),
                "count",
                1,
            ),
            (
                "engine.pruned_flips",
                count("engine.pruned_flips"),
                "count",
                1,
            ),
            (
                "engine.independent_skips",
                evidence_sum(report, |e| u64::from(e.independent_skips)) as f64,
                "count",
                1,
            ),
            // The benchmark's own cost: traced over untraced pass wall.
            ("trace_overhead", ratio(traced_s, untraced_s), "ratio", 1),
            ("trace.traced_pass_s", traced_s, "s", 1),
            ("trace.untraced_pass_s", untraced_s, "s", untraced_n),
        ])
        .map(|(name, value, unit, samples)| Metric {
            name,
            value,
            unit,
            samples,
        })
        .collect();
    out.sort_by_key(|m| m.name);
    out
}
