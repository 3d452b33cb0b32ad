//! Whole-study benchmark for the bomblab study runner.
//!
//! ```text
//! studybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a fixed subset of `bomblab_bombs::all_cases()` under a
//! fixed tool lineup, run through `run_study_with` at one job. The seed
//! permutes the case order handed to the runner. Every pass runs on a
//! freshly spawned thread, so it starts with cold solver thread-locals, as
//! a `bomblab study` process does.
//!
//! * `--trace 0` repeats untraced passes for `--seconds` (at least one;
//!   exactly one on `paper_full`) and reports the end-to-end metrics.
//! * `--trace 1` alternates an untraced pass with a traced one for
//!   `--seconds` (at least one pair; one on `paper_full`) and reports the
//!   per-layer metrics of the fastest traced pass (see `layers`).
//!
//! The host's CPU speed swings by up to 1.7x over seconds (neighbours on
//! shared cores), and interference only ever adds time. So the end-to-end
//! timings are the fastest of a run's repetitions: the fastest pass and the
//! fastest `all_cases()` call.
//!
//! Every pass goes through the correctness gate (see `gate`), and every
//! per-layer count must repeat exactly across the passes of a run. Human
//! readable lines come first; the last stdout line is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`.

mod gate;
mod layers;

use bomblab_concolic::{run_study_with, StudyCase, StudyOptions, StudyReport, ToolProfile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `all_cases()` calls before every pass and after the last one; `setup_s`
/// is the fastest of them all. Spreading them over the run lets the fastest
/// one come from a quiet stretch of the host.
const SETUP_REPS: usize = 20;
/// Stack of a pass thread: the 8 MiB main-thread stack a `bomblab study`
/// process runs the study on.
const PASS_STACK_BYTES: usize = 8 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    PaperFull,
    PaperFrontend,
    OmniscientIncremental,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperFull,
        Workload::PaperFrontend,
        Workload::OmniscientIncremental,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperFull => "paper_full",
            Workload::PaperFrontend => "paper_frontend",
            Workload::OmniscientIncremental => "omniscient_incremental",
        }
    }

    /// Bombs left out of the workload. `ext_srand` is the three-query
    /// budget-exhaustion tail that buries every other layer; the Omniscient
    /// solver grinds the PRNG and crypto bombs for minutes each.
    fn excluded(self) -> &'static [&'static str] {
        match self {
            Workload::PaperFull => &[],
            Workload::PaperFrontend => &["ext_srand"],
            Workload::OmniscientIncremental => &["ext_srand", "crypto_sha1", "crypto_aes"],
        }
    }

    /// `paper_full` is one pass per run, whatever `--seconds` says: its pass
    /// alone is longer than a run of the other workloads.
    fn single_pass(self) -> bool {
        self == Workload::PaperFull
    }

    fn profiles(self) -> Vec<ToolProfile> {
        match self {
            Workload::PaperFull | Workload::PaperFrontend => ToolProfile::paper_lineup(),
            Workload::OmniscientIncremental => vec![ToolProfile::omniscient()],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    let workload = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or(format!("unknown workload {workload:?}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

/// One reported metric, with the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// SplitMix64: a seeded, dependency-free generator for the case order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload's cases in the seed's order (Fisher-Yates).
fn workload_cases(all: Vec<StudyCase>, workload: Workload, seed: u64) -> Vec<StudyCase> {
    let mut cases: Vec<StudyCase> = all
        .into_iter()
        .filter(|c| !workload.excluded().contains(&c.subject.name.as_str()))
        .collect();
    let mut state = seed;
    for i in (1..cases.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        cases.swap(i, j);
    }
    cases
}

/// Runs `f` on a freshly spawned thread and waits for it, so the solver's
/// thread-local interner and memos start empty.
pub fn on_cold_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("study-pass".to_string())
            .stack_size(PASS_STACK_BYTES)
            .spawn_scoped(scope, f)
            .expect("spawn the pass thread")
            .join()
            .expect("the pass thread panicked")
    })
}

/// One untraced pass: what `bomblab study <subset> --jobs 1` does, the
/// study plus rendering its report.
fn untraced_pass(cases: &[StudyCase], profiles: &[ToolProfile]) -> (Duration, StudyReport) {
    on_cold_thread(|| {
        let options = StudyOptions {
            jobs: 1,
            ..StudyOptions::default()
        };
        let t0 = Instant::now();
        let report = run_study_with(cases, profiles, &options);
        black_box(report.to_markdown());
        (t0.elapsed(), report)
    })
}

/// Per-cell counts that must repeat exactly across the passes of a run,
/// summed over the pass. Block-cache hits are left out on purpose: the
/// cache registry is process-wide, so only the first pass runs it cold.
fn evidence_counts(report: &StudyReport) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for cell in layers::cells(report) {
        let ev = &cell.attempt.evidence;
        for (name, value) in [
            ("engine.rounds", u64::from(ev.rounds)),
            ("engine.queries", u64::from(ev.queries)),
            ("engine.sat_queries", u64::from(ev.sat_queries)),
            ("solver.propagations", ev.propagations),
            ("solver.blocker_skips", ev.blocker_skips),
            ("solver.lbd_evictions", ev.lbd_evictions),
            ("solver.simplify_hits", ev.simplify_hits),
            ("solver.slices", ev.slices),
            ("solver.witness_hits", ev.witness_hits),
            ("solver.cache_hits", ev.cache_hits),
            ("solver.cache_misses", ev.cache_misses),
            ("solver.roots_reused", ev.roots_reused),
            ("solver.shared_cache_hits", ev.shared_cache_hits),
            ("solver.shared_cache_rejected", ev.shared_cache_rejected),
            ("vm.steps", ev.vm_steps),
            ("vm.trace_steps_full", ev.trace_steps_full),
            ("vm.trace_steps_elided", ev.trace_steps_elided),
        ] {
            *counts.entry(name).or_insert(0) += value;
        }
    }
    counts
}

/// Tallies gate verdicts and count mismatches over the passes of a run.
struct Checks {
    gate: gate::Gate,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    first_counts: Option<BTreeMap<&'static str, u64>>,
}

impl Checks {
    fn pass(&mut self, report: &StudyReport, cases: &[StudyCase], profiles: &[ToolProfile]) {
        let (attempted, failures) = self.gate.check(report, cases, profiles);
        self.attempted += attempted;
        self.failed += failures.len();
        self.problems.extend(failures);
        let counts = evidence_counts(report);
        match &self.first_counts {
            None => self.first_counts = Some(counts),
            Some(first) if *first != counts => self.problems.push(format!(
                "per-cell counts differ between passes: {first:?} vs {counts:?}"
            )),
            Some(_) => {}
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Peak resident set of this process, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The fastest of a run's repetitions of one timing.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The untraced passes of a run: pass walls and every cell's time, pooled.
#[derive(Default)]
struct Timings {
    walls: Vec<f64>,
    cell_ms: Vec<f64>,
}

impl Timings {
    fn record(&mut self, wall: Duration, report: &StudyReport) {
        self.walls.push(wall.as_secs_f64());
        for cell in layers::cells(report) {
            self.cell_ms.push(cell.wall_ns as f64 / 1e6);
        }
    }

    /// A quantile of every cell time of every pass, pooled.
    fn pooled_cell_ms(&self, q: f64) -> f64 {
        let mut pooled = self.cell_ms.clone();
        pooled.sort_by(f64::total_cmp);
        quantile(&pooled, q)
    }
}

/// Set-up: assembles and links the dataset `SETUP_REPS` times, recording
/// each time. Returns the last dataset.
fn set_up(times: &mut Vec<f64>) -> Vec<StudyCase> {
    let mut all = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let fresh = black_box(bomblab_bombs::all_cases());
        times.push(t0.elapsed().as_secs_f64());
        all = fresh;
    }
    all
}

fn run(args: &Args) -> Result<bool, String> {
    let gate = gate::Gate::load()?;

    let mut setup = Vec::new();
    let cases = workload_cases(set_up(&mut setup), args.workload, args.seed);
    let profiles = args.workload.profiles();
    let order: Vec<&str> = cases.iter().map(|c| c.subject.name.as_str()).collect();
    println!(
        "# studybench workload={} seed={} trace={} bombs={} profiles={} order={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        cases.len(),
        profiles.len(),
        order.join(",")
    );

    let mut checks = Checks {
        gate,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        first_counts: None,
    };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut untraced = Timings::default();
    let mut traced = Vec::new();
    loop {
        if !untraced.walls.is_empty() {
            set_up(&mut setup);
        }
        let (wall, report) = untraced_pass(&cases, &profiles);
        checks.pass(&report, &cases, &profiles);
        untraced.record(wall, &report);
        if args.trace {
            let pass = on_cold_thread(|| layers::traced_pass(&cases, &profiles));
            checks.pass(&pass.report, &cases, &profiles);
            traced.push(pass);
        }
        if args.workload.single_pass() || started.elapsed() >= budget {
            break;
        }
    }
    set_up(&mut setup);
    println!(
        "untraced passes {}: wall median {} s, each {:?}; pooled cell_ms p50 {} p90 {} (n={})",
        untraced.walls.len(),
        median(&untraced.walls),
        untraced.walls,
        untraced.pooled_cell_ms(0.5),
        untraced.pooled_cell_ms(0.9),
        untraced.cell_ms.len()
    );

    let metrics = if args.trace {
        let first = layers::layer_counts(&traced[0].report);
        for pass in &traced[1..] {
            let counts = layers::layer_counts(&pass.report);
            if counts != first {
                checks.problems.push(format!(
                    "per-layer counts differ between traced passes: {first:?} vs {counts:?}"
                ));
            }
        }
        let fastest_traced = traced
            .iter()
            .min_by_key(|p| p.wall)
            .expect("at least one traced pass");
        let mut metrics = layers::layer_metrics(
            fastest_traced,
            fastest(&untraced.walls),
            untraced.walls.len(),
        );
        for (name, q) in [("cell_ms_p50", 0.5), ("cell_ms_p90", 0.9)] {
            metrics.push(Metric {
                name,
                value: untraced.pooled_cell_ms(q),
                unit: "ms",
                samples: untraced.cell_ms.len(),
            });
        }
        metrics
    } else {
        vec![
            Metric {
                name: "wall_s",
                value: fastest(&untraced.walls),
                unit: "s",
                samples: untraced.walls.len(),
            },
            Metric {
                name: "setup_s",
                value: fastest(&setup),
                unit: "s",
                samples: setup.len(),
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb()?,
                unit: "MB",
                samples: 1,
            },
        ]
    };

    for m in &metrics {
        println!("{} {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "cells_failed {} share ({} of {} cells)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    for problem in checks.problems.iter().take(20) {
        eprintln!("studybench: {problem}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    Ok(checks.correct())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("studybench: {e}");
            eprintln!(
                "usage: studybench --workload <paper_full|paper_frontend|omniscient_incremental> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("studybench: {e}");
            ExitCode::FAILURE
        }
    }
}
