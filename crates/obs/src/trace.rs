//! The JSONL trace schema: renderers from [`CellProfile`](crate::CellProfile)
//! to trace lines, and a strict validator used by the round-trip tests,
//! the `bomblab tracecheck` subcommand, and CI.
//!
//! Every line is one JSON object with a `type` field. Versioning is the
//! `schema` field on the `study_start` line ([`SCHEMA_VERSION`]). Types:
//!
//! | type | meaning |
//! |---|---|
//! | `study_start` | header: schema version, dataset size, profile lineup |
//! | `sweep_start` | chaos-only: seed + armed fault plan of the next sweep |
//! | `span` | one stage duration for a (bomb, profile, round) |
//! | `event` | one structured occurrence (e.g. a solver query) |
//! | `counter` | final per-cell counter value |
//! | `hist` | final per-cell histogram (count/sum/min/max + log2 buckets) |
//! | `cell` | one (bomb, profile) outcome with wall clock and totals |
//! | `stage_total` | study-wide span aggregate for one stage |
//! | `slow_cell` | profile sidecar: a slowest-cells ranking entry |
//! | `hot_cell` | profile sidecar: a hottest-queries ranking entry |
//! | `summary` | trailer: line/cell totals for quick sanity checks |
//!
//! The validator is *strict*: unknown types, missing required fields,
//! wrongly typed fields, and unknown extra fields are all errors, so any
//! schema drift fails CI instead of silently changing the format.

use crate::json::{self, Json, Obj};
use crate::{CellProfile, Field};

/// Version stamped on every `study_start` line.
///
/// History: v1 — initial format; v2 — optional VM-dispatch and SAT
/// hot-loop counters on `cell` lines (`vm_steps`, `bb_*`, `steps_decoded`,
/// `blocker_skips`, `lbd_evictions`); v3 — durability fields: optional
/// retry/quarantine counters and persistent-cache counters on `cell`
/// lines (`retries`, `quarantined`, `retry_backoff_ns`, `disk_cache_hits`,
/// `cache_segments_rejected`) and checkpoint counters on the `summary`
/// trailer (`cells_replayed`, `checkpoint_io_errors`); v4 — scaling
/// fields: optional SAT `propagations` and shared in-process cache
/// counters (`shared_cache_hits`, `shared_cache_stores`,
/// `shared_cache_rejected`) on `cell` lines, plus cost-aware scheduler
/// counters (`sched_costed`, `sched_estimated`) on the `summary` trailer,
/// and a sanity bound tying `blocker_skips` to `propagations`; v5 —
/// trace-arena fields: optional recording counters on `cell` lines
/// (`trace_steps_full`, `trace_steps_elided`, `trace_arena_bytes`) with a
/// sanity bound requiring a non-empty arena whenever any step was
/// recorded; v6 — the VM's block cache and taint-gated elision were
/// removed, and with them their `cell` counters (`bb_*`, `steps_decoded`,
/// `trace_steps_elided`). Up to v5 every change only added optional
/// fields; v6 removes fields, so a v2–v5 trace that carries any of them
/// no longer validates.
pub const SCHEMA_VERSION: u64 = 6;

/// Field kinds the validator distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Str,
    U64,
    Bool,
    Arr,
    Obj,
}

impl Kind {
    fn matches(self, v: &Json) -> bool {
        match self {
            Kind::Str => matches!(v, Json::Str(_)),
            Kind::U64 => matches!(v, Json::U64(_)),
            Kind::Bool => matches!(v, Json::Bool(_)),
            Kind::Arr => matches!(v, Json::Arr(_)),
            Kind::Obj => matches!(v, Json::Obj(_)),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Str => "string",
            Kind::U64 => "unsigned integer",
            Kind::Bool => "boolean",
            Kind::Arr => "array",
            Kind::Obj => "object",
        }
    }
}

/// `(type, required fields, optional fields)`.
type TypeSchema = (
    &'static str,
    &'static [(&'static str, Kind)],
    &'static [(&'static str, Kind)],
);

const SCHEMA: &[TypeSchema] = &[
    (
        "study_start",
        &[
            ("schema", Kind::U64),
            ("bombs", Kind::U64),
            ("profiles", Kind::Arr),
        ],
        &[],
    ),
    (
        "sweep_start",
        &[("seed", Kind::U64), ("plan", Kind::Str)],
        &[],
    ),
    (
        "span",
        &[
            ("bomb", Kind::Str),
            ("profile", Kind::Str),
            ("stage", Kind::Str),
            ("round", Kind::U64),
            ("seq", Kind::U64),
            ("ns", Kind::U64),
        ],
        &[],
    ),
    (
        "event",
        &[
            ("bomb", Kind::Str),
            ("profile", Kind::Str),
            ("name", Kind::Str),
            ("round", Kind::U64),
            ("seq", Kind::U64),
            ("fields", Kind::Obj),
        ],
        &[],
    ),
    (
        "counter",
        &[
            ("bomb", Kind::Str),
            ("profile", Kind::Str),
            ("name", Kind::Str),
            ("value", Kind::U64),
        ],
        &[],
    ),
    (
        "hist",
        &[
            ("bomb", Kind::Str),
            ("profile", Kind::Str),
            ("name", Kind::Str),
            ("count", Kind::U64),
            ("sum", Kind::U64),
            ("min", Kind::U64),
            ("max", Kind::U64),
            ("buckets", Kind::Arr),
        ],
        &[],
    ),
    (
        "cell",
        &[
            ("bomb", Kind::Str),
            ("profile", Kind::Str),
            ("outcome", Kind::Str),
            ("wall_ns", Kind::U64),
            ("rounds", Kind::U64),
            ("queries", Kind::U64),
        ],
        &[
            ("simplify_hits", Kind::U64),
            ("terms_pruned", Kind::U64),
            ("slices", Kind::U64),
            ("witness_hits", Kind::U64),
            ("simplify_ns", Kind::U64),
            ("interval_ns", Kind::U64),
            ("slice_ns", Kind::U64),
            ("vm_steps", Kind::U64),
            ("blocker_skips", Kind::U64),
            ("lbd_evictions", Kind::U64),
            ("branches_proven_independent", Kind::U64),
            ("independent_skips", Kind::U64),
            ("static_slice_checked", Kind::U64),
            ("static_slice_agreement", Kind::U64),
            ("retries", Kind::U64),
            ("quarantined", Kind::Bool),
            ("retry_backoff_ns", Kind::U64),
            ("disk_cache_hits", Kind::U64),
            ("cache_segments_rejected", Kind::U64),
            ("propagations", Kind::U64),
            ("shared_cache_hits", Kind::U64),
            ("shared_cache_stores", Kind::U64),
            ("shared_cache_rejected", Kind::U64),
            ("trace_steps_full", Kind::U64),
            ("trace_arena_bytes", Kind::U64),
            ("expected", Kind::Str),
            ("crash_stage", Kind::Str),
            ("crash_message", Kind::Str),
        ],
    ),
    (
        "stage_total",
        &[
            ("stage", Kind::Str),
            ("spans", Kind::U64),
            ("ns", Kind::U64),
        ],
        &[],
    ),
    (
        "slow_cell",
        &[
            ("rank", Kind::U64),
            ("bomb", Kind::Str),
            ("profile", Kind::Str),
            ("wall_ns", Kind::U64),
        ],
        &[],
    ),
    (
        "hot_cell",
        &[
            ("rank", Kind::U64),
            ("bomb", Kind::Str),
            ("profile", Kind::Str),
            ("queries", Kind::U64),
            ("solver_ns", Kind::U64),
        ],
        &[],
    ),
    (
        "summary",
        &[
            ("cells", Kind::U64),
            ("spans", Kind::U64),
            ("events", Kind::U64),
            ("counters", Kind::U64),
        ],
        &[
            ("cells_replayed", Kind::U64),
            ("checkpoint_io_errors", Kind::U64),
            ("sched_costed", Kind::U64),
            ("sched_estimated", Kind::U64),
        ],
    ),
];

/// Validates one trace line against the schema.
///
/// # Errors
///
/// Returns a description of the first problem: JSON syntax errors,
/// non-object lines, unknown `type`, missing or wrongly typed required
/// fields, or fields the schema does not know.
pub fn validate_line(line: &str) -> Result<(), String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let obj = value.as_obj().ok_or("line is not a JSON object")?;
    let type_ = obj
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing string `type` field")?;
    let (_, required, optional) = SCHEMA
        .iter()
        .find(|(t, _, _)| *t == type_)
        .ok_or_else(|| format!("unknown line type `{type_}`"))?;
    for (field, kind) in *required {
        match obj.get(*field) {
            None => return Err(format!("{type_}: missing required field `{field}`")),
            Some(v) if !kind.matches(v) => {
                return Err(format!(
                    "{type_}: field `{field}` must be a {}",
                    kind.name()
                ))
            }
            Some(_) => {}
        }
    }
    for (key, value) in obj {
        if key == "type" {
            continue;
        }
        let known = required
            .iter()
            .chain(optional.iter())
            .find(|(f, _)| f == key);
        match known {
            None => return Err(format!("{type_}: unknown field `{key}`")),
            Some((_, kind)) if !kind.matches(value) => {
                return Err(format!("{type_}: field `{key}` must be a {}", kind.name()))
            }
            Some(_) => {}
        }
    }
    // Semantic (v3): a quarantined cell was by definition retried at least
    // once — the verdict needs two identical failures to form.
    if type_ == "cell" && obj.get("quarantined") == Some(&Json::Bool(true)) {
        let retries = obj.get("retries").and_then(Json::as_u64).unwrap_or(0);
        if retries < 1 {
            return Err("cell: quarantined without at least one retry".to_string());
        }
    }
    // Semantic (v4): blocker skips happen inside watch-list walks, which
    // only propagations drive — a cell reporting skips without a single
    // propagation is instrumentation drift, and a skip count orders of
    // magnitude beyond the walked-entries ceiling (conservatively 4096
    // watchers per propagated literal) is the tombstoned-watcher
    // re-walking pathology this bound was added to catch.
    if type_ == "cell" {
        let skips = obj.get("blocker_skips").and_then(Json::as_u64);
        let props = obj.get("propagations").and_then(Json::as_u64);
        if let (Some(skips), Some(props)) = (skips, props) {
            if skips > 0 && props == 0 {
                return Err("cell: blocker_skips without any propagations".to_string());
            }
            if skips > props.saturating_mul(4096) {
                return Err(format!(
                    "cell: blocker_skips ({skips}) exceeds {} (propagations x 4096) — \
                     watch lists are re-walking dead entries",
                    props.saturating_mul(4096)
                ));
            }
        }
    }
    // Semantic (v5): every recorded step occupies a fixed-size table row,
    // so a cell reporting steps with a zero-byte arena is instrumentation
    // drift (the counters and the arena are maintained by the same
    // recorder).
    if type_ == "cell" {
        let steps = obj
            .get("trace_steps_full")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if let Some(bytes) = obj.get("trace_arena_bytes").and_then(Json::as_u64) {
            if steps > 0 && bytes == 0 {
                return Err(format!(
                    "cell: {steps} recorded trace steps with an empty arena"
                ));
            }
        }
    }
    Ok(())
}

/// Validates every non-empty line of a JSONL document.
///
/// # Errors
///
/// Returns `(1-based line number, description)` of the first invalid
/// line.
pub fn validate_lines(text: &str) -> Result<usize, (usize, String)> {
    let mut checked = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| (i + 1, e))?;
        checked += 1;
    }
    Ok(checked)
}

fn field_json(field: &Field) -> String {
    match field {
        Field::U64(v) => v.to_string(),
        Field::Str(s) => format!("\"{}\"", json::escape(s)),
        Field::Bool(b) => b.to_string(),
    }
}

/// Renders one cell profile as trace lines (spans, events, counters,
/// histograms), appending to `out`. Deterministic given the profile.
pub fn render_cell(cell: &CellProfile, out: &mut Vec<String>) {
    for span in &cell.spans {
        out.push(
            Obj::new("span")
                .str("bomb", &cell.bomb)
                .str("profile", &cell.profile)
                .str("stage", span.stage)
                .u64("round", u64::from(span.round))
                .u64("seq", span.seq)
                .u64("ns", span.ns)
                .finish(),
        );
    }
    for event in &cell.events {
        let fields: Vec<String> = event
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json::escape(k), field_json(v)))
            .collect();
        out.push(
            Obj::new("event")
                .str("bomb", &cell.bomb)
                .str("profile", &cell.profile)
                .str("name", event.name)
                .u64("round", u64::from(event.round))
                .u64("seq", event.seq)
                .raw("fields", &format!("{{{}}}", fields.join(",")))
                .finish(),
        );
    }
    for (&name, &value) in &cell.counters {
        out.push(
            Obj::new("counter")
                .str("bomb", &cell.bomb)
                .str("profile", &cell.profile)
                .str("name", name)
                .u64("value", value)
                .finish(),
        );
    }
    for (&name, hist) in &cell.hists {
        let buckets: Vec<String> = hist
            .nonzero_buckets()
            .map(|(i, c)| format!("[{i},{c}]"))
            .collect();
        out.push(
            Obj::new("hist")
                .str("bomb", &cell.bomb)
                .str("profile", &cell.profile)
                .str("name", name)
                .u64("count", hist.count)
                .u64("sum", hist.sum)
                .u64("min", hist.min)
                .u64("max", hist.max)
                .raw("buckets", &format!("[{}]", buckets.join(",")))
                .finish(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arm, counter, disarm, event, hist, set_round, span_ns};

    #[test]
    fn rendered_cells_validate_and_round_trip() {
        let token = arm("decl_time", "BAP");
        set_round(1);
        span_ns("vm.run", 12345);
        counter("vm.steps", 777);
        hist("solver.conflicts", 3);
        hist("solver.conflicts", 200);
        event("solver.query", || {
            vec![
                ("outcome", Field::Str("sat".to_string())),
                ("cache_hit", Field::Bool(true)),
                ("conflicts", Field::U64(3)),
            ]
        });
        let profile = disarm(token);
        let mut lines = Vec::new();
        render_cell(&profile, &mut lines);
        assert_eq!(lines.len(), 4, "span + event + counter + hist");
        for line in &lines {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // Round-trip: the parsed values carry the recorded data exactly.
        let span = json::parse(&lines[0]).expect("span json");
        let span = span.as_obj().expect("obj");
        assert_eq!(span["stage"].as_str(), Some("vm.run"));
        assert_eq!(span["ns"].as_u64(), Some(12345));
        assert_eq!(span["round"].as_u64(), Some(1));
        let event_line = json::parse(&lines[1]).expect("event json");
        let fields = event_line.as_obj().expect("obj")["fields"]
            .as_obj()
            .expect("fields obj")
            .clone();
        assert_eq!(fields["outcome"].as_str(), Some("sat"));
        assert_eq!(fields["cache_hit"], Json::Bool(true));
        assert_eq!(fields["conflicts"].as_u64(), Some(3));
        let hist_line = json::parse(&lines[3]).expect("hist json");
        let hist_obj = hist_line.as_obj().expect("obj");
        assert_eq!(hist_obj["count"].as_u64(), Some(2));
        assert_eq!(hist_obj["sum"].as_u64(), Some(203));
        assert_eq!(hist_obj["min"].as_u64(), Some(3));
        assert_eq!(hist_obj["max"].as_u64(), Some(200));
    }

    #[test]
    fn validator_rejects_schema_drift() {
        // Unknown type.
        assert!(validate_line("{\"type\":\"mystery\"}").is_err());
        // Missing required field.
        assert!(validate_line(
            "{\"type\":\"counter\",\"bomb\":\"b\",\"profile\":\"p\",\"name\":\"n\"}"
        )
        .is_err());
        // Wrongly typed field.
        assert!(validate_line(
            "{\"type\":\"counter\",\"bomb\":\"b\",\"profile\":\"p\",\"name\":\"n\",\"value\":\"9\"}"
        )
        .is_err());
        // Unknown extra field.
        assert!(validate_line(
            "{\"type\":\"counter\",\"bomb\":\"b\",\"profile\":\"p\",\"name\":\"n\",\"value\":9,\"extra\":1}"
        )
        .is_err());
        // Not an object / not JSON.
        assert!(validate_line("[1,2]").is_err());
        assert!(validate_line("{nope}").is_err());
        // The golden positive case.
        assert!(validate_line(
            "{\"type\":\"counter\",\"bomb\":\"b\",\"profile\":\"p\",\"name\":\"n\",\"value\":9}"
        )
        .is_ok());
    }

    #[test]
    fn v3_durability_fields_validate() {
        let base = "\"type\":\"cell\",\"bomb\":\"b\",\"profile\":\"p\",\"outcome\":\"Y\",\
                    \"wall_ns\":1,\"rounds\":1,\"queries\":1";
        // All durability fields present and well typed.
        assert!(validate_line(&format!(
            "{{{base},\"retries\":2,\"quarantined\":true,\"retry_backoff_ns\":30000000,\
             \"disk_cache_hits\":4,\"cache_segments_rejected\":1}}"
        ))
        .is_ok());
        // A boolean where an integer belongs is drift.
        assert!(validate_line(&format!("{{{base},\"retries\":true}}")).is_err());
        // Quarantine without a retry is semantically impossible.
        assert!(validate_line(&format!("{{{base},\"quarantined\":true}}")).is_err());
        assert!(validate_line(&format!("{{{base},\"quarantined\":true,\"retries\":0}}")).is_err());
        // Quarantined=false needs no retries.
        assert!(validate_line(&format!("{{{base},\"quarantined\":false}}")).is_ok());
        // Summary trailer accepts the checkpoint counters.
        assert!(validate_line(
            "{\"type\":\"summary\",\"cells\":1,\"spans\":0,\"events\":0,\"counters\":0,\
             \"cells_replayed\":1,\"checkpoint_io_errors\":0}"
        )
        .is_ok());
    }

    #[test]
    fn v4_scaling_fields_validate() {
        let base = "\"type\":\"cell\",\"bomb\":\"b\",\"profile\":\"p\",\"outcome\":\"Y\",\
                    \"wall_ns\":1,\"rounds\":1,\"queries\":1";
        // All scaling fields present and well typed.
        assert!(validate_line(&format!(
            "{{{base},\"propagations\":500,\"blocker_skips\":900,\"shared_cache_hits\":3,\
             \"shared_cache_stores\":2,\"shared_cache_rejected\":1}}"
        ))
        .is_ok());
        // A string where an integer belongs is drift.
        assert!(validate_line(&format!("{{{base},\"shared_cache_hits\":\"3\"}}")).is_err());
        // Blocker skips without a single propagation is impossible.
        assert!(validate_line(&format!(
            "{{{base},\"blocker_skips\":7,\"propagations\":0}}"
        ))
        .is_err());
        // A skip count beyond the watched-entries ceiling is the
        // dead-watcher re-walk pathology.
        assert!(validate_line(&format!(
            "{{{base},\"blocker_skips\":355219364,\"propagations\":10}}"
        ))
        .is_err());
        assert!(validate_line(&format!(
            "{{{base},\"blocker_skips\":40960,\"propagations\":10}}"
        ))
        .is_ok());
        // Old traces without `propagations` are not judged by the bound.
        assert!(validate_line(&format!("{{{base},\"blocker_skips\":355219364}}")).is_ok());
        // Summary trailer accepts the scheduler counters.
        assert!(validate_line(
            "{\"type\":\"summary\",\"cells\":1,\"spans\":0,\"events\":0,\"counters\":0,\
             \"sched_costed\":80,\"sched_estimated\":8}"
        )
        .is_ok());
    }

    #[test]
    fn v5_trace_arena_fields_validate() {
        let base = "\"type\":\"cell\",\"bomb\":\"b\",\"profile\":\"p\",\"outcome\":\"Y\",\
                    \"wall_ns\":1,\"rounds\":1,\"queries\":1";
        // All trace-arena fields present and well typed.
        assert!(validate_line(&format!(
            "{{{base},\"trace_steps_full\":120,\"trace_arena_bytes\":8192}}"
        ))
        .is_ok());
        // A string where an integer belongs is drift.
        assert!(validate_line(&format!("{{{base},\"trace_steps_full\":\"80\"}}")).is_err());
        // v6 removed the elision counter: it is an unknown field now.
        assert!(validate_line(&format!("{{{base},\"trace_steps_elided\":1}}")).is_err());
        // Recorded steps with an empty arena are impossible: every step
        // occupies a table row.
        assert!(validate_line(&format!(
            "{{{base},\"trace_steps_full\":1,\"trace_arena_bytes\":0}}"
        ))
        .is_err());
        // Zero steps and zero bytes is a fine (untraced) cell.
        assert!(validate_line(&format!(
            "{{{base},\"trace_steps_full\":0,\"trace_arena_bytes\":0}}"
        ))
        .is_ok());
        // Old traces without the byte counter are not judged by the bound.
        assert!(validate_line(&format!("{{{base},\"trace_steps_full\":7}}")).is_ok());
    }

    #[test]
    fn validate_lines_reports_the_offending_line_number() {
        let doc = "{\"type\":\"study_start\",\"schema\":1,\"bombs\":2,\"profiles\":[\"BAP\"]}\n\n{\"type\":\"bogus\"}\n";
        let err = validate_lines(doc).expect_err("third line is invalid");
        assert_eq!(err.0, 3);
        let ok_doc = "{\"type\":\"summary\",\"cells\":1,\"spans\":2,\"events\":3,\"counters\":4}\n";
        assert_eq!(validate_lines(ok_doc), Ok(1));
    }
}
