//! In-tree schema validators for the exported artifacts.
//!
//! CI runs the `obs_report` example and feeds the files it wrote back
//! through these checks, so a malformed export fails the build rather
//! than silently producing a trace Perfetto refuses to load. The
//! validators deliberately re-parse from text (through `json::parse`)
//! instead of inspecting observer state: they check what a consumer
//! would actually read.

use std::fmt;

use crate::json::{self, Json};

/// A schema violation found by a validator.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateError {
    /// 1-based line number for JSONL inputs; `0` for whole-document
    /// (Chrome trace) inputs.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "invalid export: {}", self.reason)
        } else {
            write!(f, "invalid export at line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for ValidateError {}

fn err(line: usize, reason: impl Into<String>) -> ValidateError {
    ValidateError {
        line,
        reason: reason.into(),
    }
}

fn parse_line(line_no: usize, line: &str) -> Result<Json, ValidateError> {
    let doc = json::parse(line).map_err(|e| err(line_no, e.to_string()))?;
    if !doc.is_obj() {
        return Err(err(line_no, "expected a JSON object"));
    }
    Ok(doc)
}

fn require_num(doc: &Json, key: &str, line: usize) -> Result<f64, ValidateError> {
    doc.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| err(line, format!("missing numeric field `{key}`")))
}

fn require_str<'a>(doc: &'a Json, key: &str, line: usize) -> Result<&'a str, ValidateError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| err(line, format!("missing string field `{key}`")))
}

/// Checks line 1 of a ring export (`events.jsonl`, `spans.jsonl`): a
/// `meta` record with a positive `capacity` and a non-negative count
/// under each of `counts`. Returns the remaining lines, numbered from 1.
fn ring_meta<'a>(
    text: &'a str,
    export: &str,
    counts: &[&str],
) -> Result<std::iter::Enumerate<std::str::Lines<'a>>, ValidateError> {
    let mut lines = text.lines().enumerate();
    let (_, meta_line) = lines
        .next()
        .ok_or_else(|| err(0, format!("empty {export} export")))?;
    let meta = parse_line(1, meta_line)?;
    if require_str(&meta, "type", 1)? != "meta" {
        return Err(err(1, "first line must be the meta record"));
    }
    let capacity = require_num(&meta, "capacity", 1)?;
    let mut out_of_range = capacity < 1.0;
    for key in counts {
        out_of_range |= require_num(&meta, key, 1)? < 0.0;
    }
    if out_of_range {
        let fields = counts.join("/");
        return Err(err(1, format!("meta capacity/{fields} out of range")));
    }
    Ok(lines)
}

/// Validates an `events.jsonl` export. Returns the number of event
/// lines (excluding the meta header).
///
/// # Errors
///
/// Returns the first schema violation found.
pub fn validate_jsonl_events(text: &str) -> Result<usize, ValidateError> {
    let lines = ring_meta(text, "events", &["dropped"])?;
    let mut count = 0usize;
    for (idx, line) in lines {
        let line_no = idx + 1;
        let doc = parse_line(line_no, line)?;
        let kind = require_str(&doc, "type", line_no)?;
        require_str(&doc, "name", line_no)?;
        require_str(&doc, "cat", line_no)?;
        require_num(&doc, "track", line_no)?;
        if !doc.get("args").is_some_and(Json::is_obj) {
            return Err(err(line_no, "missing object field `args`"));
        }
        match kind {
            "span" => {
                let t0 = require_num(&doc, "t0_s", line_no)?;
                let t1 = require_num(&doc, "t1_s", line_no)?;
                if t1 < t0 {
                    return Err(err(
                        line_no,
                        format!("span ends before it starts ({t1} < {t0})"),
                    ));
                }
            }
            "instant" => {
                require_num(&doc, "at_s", line_no)?;
            }
            other => return Err(err(line_no, format!("unknown event type `{other}`"))),
        }
        count += 1;
    }
    Ok(count)
}

const KNOWN_RULES: [&str; 6] = [
    "beta_slack",
    "qos_threshold",
    "unknown_remote_first",
    "warmup_default",
    "static",
    "forced",
];

/// Validates a `decisions.jsonl` export. Returns the number of
/// decision records.
///
/// Checks, per record: dense `seq` numbering from zero, a known rule
/// tag, a legal class/mode pair, and that β-slack / QoS decisions carry
/// a numeric margin (the acceptance criterion for the audit trail).
///
/// # Errors
///
/// Returns the first schema violation found.
pub fn validate_jsonl_decisions(text: &str) -> Result<usize, ValidateError> {
    let mut count = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let doc = parse_line(line_no, line)?;
        let seq = require_num(&doc, "seq", line_no)?;
        if seq != count as f64 {
            return Err(err(
                line_no,
                format!("non-dense seq {seq}, expected {count}"),
            ));
        }
        require_num(&doc, "at_s", line_no)?;
        require_num(&doc, "deployment_id", line_no)?;
        require_str(&doc, "app", line_no)?;
        require_str(&doc, "policy", line_no)?;
        let class = require_str(&doc, "class", line_no)?;
        if !["BE", "LC", "iBench"].contains(&class) {
            return Err(err(line_no, format!("unknown class `{class}`")));
        }
        let chosen = require_str(&doc, "chosen", line_no)?;
        if !["local", "remote"].contains(&chosen) {
            return Err(err(line_no, format!("unknown mode `{chosen}`")));
        }
        let rule = require_str(&doc, "rule", line_no)?;
        if !KNOWN_RULES.contains(&rule) {
            return Err(err(line_no, format!("unknown rule `{rule}`")));
        }
        require_num(&doc, "window_rows", line_no)?;
        if !doc.get("window_mean").is_some_and(Json::is_obj) {
            return Err(err(line_no, "missing object field `window_mean`"));
        }
        if doc.get("near_flip").and_then(Json::as_bool).is_none() {
            return Err(err(line_no, "missing boolean field `near_flip`"));
        }
        let margin = doc
            .get("margin")
            .ok_or_else(|| err(line_no, "missing field `margin`"))?;
        let margin_is_num = margin.as_num().is_some();
        if !margin_is_num && *margin != Json::Null {
            return Err(err(line_no, "`margin` must be a number or null"));
        }
        if ["beta_slack", "qos_threshold"].contains(&rule) && !margin_is_num {
            return Err(err(
                line_no,
                format!("rule `{rule}` requires a numeric margin"),
            ));
        }
        count += 1;
    }
    Ok(count)
}

/// Validates an `adaptation.jsonl` export. Returns the number of
/// records.
///
/// Checks, per record: a known kind (`capture` / `drift` / `swap`), a
/// known skip reason (or `null`) on captures, a sane residency window,
/// a known verdict on swaps, and that rejections carry at least one
/// reason.
///
/// # Errors
///
/// Returns the first schema violation found.
pub fn validate_jsonl_adaptation(text: &str) -> Result<usize, ValidateError> {
    let known_skips: Vec<&str> = crate::adapt::CaptureSkip::ALL
        .iter()
        .map(|s| s.tag())
        .collect();
    let mut count = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let doc = parse_line(line_no, line)?;
        match require_str(&doc, "type", line_no)? {
            "capture" => {
                require_str(&doc, "app", line_no)?;
                let arrived = require_num(&doc, "arrived_s", line_no)?;
                let finished = require_num(&doc, "finished_s", line_no)?;
                if finished < arrived {
                    return Err(err(
                        line_no,
                        format!("residency ends before it starts ({finished} < {arrived})"),
                    ));
                }
                let rows = require_num(&doc, "rows", line_no)?;
                require_num(&doc, "co_runners", line_no)?;
                let skip = doc
                    .get("skip")
                    .ok_or_else(|| err(line_no, "missing field `skip`"))?;
                match skip {
                    Json::Null => {
                        if rows < 1.0 {
                            return Err(err(line_no, "successful capture with zero rows"));
                        }
                    }
                    Json::Str(reason) => {
                        if !known_skips.contains(&reason.as_str()) {
                            return Err(err(line_no, format!("unknown skip reason `{reason}`")));
                        }
                    }
                    _ => return Err(err(line_no, "`skip` must be a string or null")),
                }
            }
            "drift" => {
                require_num(&doc, "at_s", line_no)?;
                require_str(&doc, "stream", line_no)?;
                let samples = require_num(&doc, "samples", line_no)?;
                if samples < 1.0 {
                    return Err(err(line_no, "drift event with no samples"));
                }
                require_num(&doc, "mean", line_no)?;
                let stat = require_num(&doc, "stat", line_no)?;
                let threshold = require_num(&doc, "threshold", line_no)?;
                if stat <= threshold {
                    return Err(err(
                        line_no,
                        format!("drift stat {stat} did not cross threshold {threshold}"),
                    ));
                }
            }
            "swap" => {
                require_num(&doc, "at_s", line_no)?;
                require_str(&doc, "target", line_no)?;
                for key in [
                    "incumbent_version",
                    "candidate_version",
                    "incumbent_mae",
                    "candidate_mae",
                    "incumbent_r2",
                    "candidate_r2",
                    "gate_margin",
                ] {
                    require_num(&doc, key, line_no)?;
                }
                let reasons = doc
                    .get("reasons")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| err(line_no, "missing array field `reasons`"))?;
                match require_str(&doc, "verdict", line_no)? {
                    "swapped" => {}
                    "rejected" => {
                        if reasons.is_empty() {
                            return Err(err(line_no, "rejection without reasons"));
                        }
                    }
                    other => return Err(err(line_no, format!("unknown verdict `{other}`"))),
                }
            }
            other => return Err(err(line_no, format!("unknown adaptation type `{other}`"))),
        }
        count += 1;
    }
    Ok(count)
}

/// Validates a `metrics.jsonl` export. Returns the number of metric
/// lines.
///
/// # Errors
///
/// Returns the first schema violation found.
pub fn validate_jsonl_metrics(text: &str) -> Result<usize, ValidateError> {
    let mut count = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let doc = parse_line(line_no, line)?;
        require_str(&doc, "name", line_no)?;
        match require_str(&doc, "type", line_no)? {
            "counter" | "gauge" => {
                require_num(&doc, "value", line_no)?;
            }
            "sketch" => {
                let n = require_num(&doc, "count", line_no)?;
                let nonfinite = require_num(&doc, "nonfinite", line_no)?;
                if nonfinite < 0.0 {
                    return Err(err(line_no, "negative `nonfinite` count"));
                }
                if n < 1.0 && nonfinite < 1.0 {
                    return Err(err(line_no, "sketch with no samples exported"));
                }
                for key in ["zero", "buckets"] {
                    require_num(&doc, key, line_no)?;
                }
                let min = require_num(&doc, "min", line_no)?;
                let p50 = require_num(&doc, "p50", line_no)?;
                let p95 = require_num(&doc, "p95", line_no)?;
                let p99 = require_num(&doc, "p99", line_no)?;
                let max = require_num(&doc, "max", line_no)?;
                if !(min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max) {
                    return Err(err(
                        line_no,
                        format!(
                            "sketch quantiles not monotone within [min, max] \
                             ({min}, {p50}, {p95}, {p99}, {max})"
                        ),
                    ));
                }
                let mean = require_num(&doc, "mean", line_no)?;
                if !(min <= mean && mean <= max) {
                    return Err(err(
                        line_no,
                        format!("sketch mean {mean} outside [{min}, {max}]"),
                    ));
                }
            }
            other => return Err(err(line_no, format!("unknown metric type `{other}`"))),
        }
        count += 1;
    }
    Ok(count)
}

const KNOWN_LANES: [&str; 3] = ["fast", "direct", "forced"];

/// Validates a `spans.jsonl` export. Returns the number of span lines
/// (excluding the meta header).
///
/// Checks the meta header, and per span: a known phase, the
/// id-derivation contract (`id = deployment_id * 4 + phase_offset`),
/// parent links (`null` on the root, the root id on children), interval
/// sanity (`t0_s <= t1_s`), and the phase-specific payload (app/class/
/// mode/drained on `lifecycle`, a known rule and lane on `decision`, a
/// sample count on `resident`).
///
/// # Errors
///
/// Returns the first schema violation found.
pub fn validate_jsonl_spans(text: &str) -> Result<usize, ValidateError> {
    let lines = ring_meta(text, "spans", &["open", "dropped"])?;
    let mut count = 0usize;
    for (idx, line) in lines {
        let line_no = idx + 1;
        let doc = parse_line(line_no, line)?;
        if require_str(&doc, "type", line_no)? != "span" {
            return Err(err(line_no, "span lines must have type `span`"));
        }
        let id = require_num(&doc, "id", line_no)?;
        let deployment = require_num(&doc, "deployment_id", line_no)?;
        let t0 = require_num(&doc, "t0_s", line_no)?;
        let t1 = require_num(&doc, "t1_s", line_no)?;
        if t1 < t0 {
            return Err(err(
                line_no,
                format!("span ends before it starts ({t1} < {t0})"),
            ));
        }
        let phase = require_str(&doc, "phase", line_no)?;
        let offset = match phase {
            "lifecycle" => 0.0,
            "queue" => 1.0,
            "decision" => 2.0,
            "resident" => 3.0,
            other => return Err(err(line_no, format!("unknown phase `{other}`"))),
        };
        if id != deployment * 4.0 + offset {
            return Err(err(
                line_no,
                format!("id {id} violates the derivation contract for phase `{phase}`"),
            ));
        }
        let parent = doc
            .get("parent")
            .ok_or_else(|| err(line_no, "missing field `parent`"))?;
        if phase == "lifecycle" {
            if *parent != Json::Null {
                return Err(err(line_no, "lifecycle root must have a null parent"));
            }
            require_str(&doc, "app", line_no)?;
            require_str(&doc, "class", line_no)?;
            require_str(&doc, "mode", line_no)?;
            if doc.get("drained").and_then(Json::as_bool).is_none() {
                return Err(err(line_no, "missing boolean field `drained`"));
            }
        } else if parent.as_num() != Some(deployment * 4.0) {
            return Err(err(line_no, "child span must point at its lifecycle root"));
        }
        if phase == "decision" {
            let rule = require_str(&doc, "rule", line_no)?;
            if !KNOWN_RULES.contains(&rule) {
                return Err(err(line_no, format!("unknown rule `{rule}`")));
            }
            let lane = require_str(&doc, "lane", line_no)?;
            if !KNOWN_LANES.contains(&lane) {
                return Err(err(line_no, format!("unknown lane `{lane}`")));
            }
        }
        if phase == "resident" && require_num(&doc, "samples", line_no)? < 0.0 {
            return Err(err(line_no, "negative sample count"));
        }
        count += 1;
    }
    Ok(count)
}

/// Validates a Chrome `trace_event` JSON document. Returns the number
/// of trace events.
///
/// Besides per-event field checks, the duration-begin/end stream
/// (`ph: "B"` / `"E"`) is checked for proper nesting: per `tid`, every
/// `E` must close the most recent open `B` by name, timestamps within
/// the B/E stream must be non-decreasing per `tid`, and no begin may be
/// left open at the end of the document.
///
/// # Errors
///
/// Returns the first schema violation found.
pub fn validate_chrome_trace(text: &str) -> Result<usize, ValidateError> {
    let doc = json::parse(text).map_err(|e| err(0, e.to_string()))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| err(0, "missing `traceEvents` array"))?;
    // Per-tid open-begin stacks and last-seen B/E timestamp. Keyed by
    // the tid's bit pattern so non-integral tids still hash stably.
    let mut stacks: std::collections::BTreeMap<u64, Vec<(String, f64)>> =
        std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let what = format!("traceEvents[{i}]");
        if !e.is_obj() {
            return Err(err(0, format!("{what} is not an object")));
        }
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| err(0, format!("{what} missing `ph`")))?;
        for key in ["name", "cat"] {
            if e.get(key).and_then(Json::as_str).is_none() {
                return Err(err(0, format!("{what} missing string `{key}`")));
            }
        }
        for key in ["ts", "pid", "tid"] {
            if e.get(key).and_then(Json::as_num).is_none() {
                return Err(err(0, format!("{what} missing numeric `{key}`")));
            }
        }
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| err(0, format!("{what} missing numeric `dur`")))?;
                if dur < 0.0 {
                    return Err(err(0, format!("{what} has negative duration")));
                }
            }
            "i" => {
                if e.get("s").and_then(Json::as_str).is_none() {
                    return Err(err(0, format!("{what} instant missing scope `s`")));
                }
            }
            "B" | "E" => {
                let name = e.get("name").and_then(Json::as_str).unwrap();
                let ts = e.get("ts").and_then(Json::as_num).unwrap();
                let tid = e.get("tid").and_then(Json::as_num).unwrap().to_bits();
                if let Some(&prev) = last_ts.get(&tid) {
                    if ts < prev {
                        return Err(err(
                            0,
                            format!("{what} timestamp {ts} rewinds its track (last {prev})"),
                        ));
                    }
                }
                last_ts.insert(tid, ts);
                let stack = stacks.entry(tid).or_default();
                if ph == "B" {
                    stack.push((name.to_owned(), ts));
                } else {
                    let Some((open_name, open_ts)) = stack.pop() else {
                        return Err(err(0, format!("{what} ends `{name}` with no open begin")));
                    };
                    if open_name != name {
                        return Err(err(
                            0,
                            format!("{what} ends `{name}` but `{open_name}` is open"),
                        ));
                    }
                    if ts < open_ts {
                        return Err(err(
                            0,
                            format!("{what} ends `{name}` before it began ({ts} < {open_ts})"),
                        ));
                    }
                }
            }
            other => return Err(err(0, format!("{what} has unsupported phase `{other}`"))),
        }
    }
    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(err(
                0,
                format!(
                    "unclosed begin `{name}` on tid {} at end of trace",
                    f64::from_bits(*tid)
                ),
            ));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{DecisionInput, DecisionRule, WindowSummary};
    use crate::export;
    use crate::observer::Observer;
    use adrias_workloads::{MemoryMode, WorkloadClass};

    fn observer() -> Observer {
        let mut obs = Observer::default();
        obs.tracer.span("engine.run", "engine", 0.0, 5.0, 0, vec![]);
        obs.registry.counter_add("sim.steps", 5);
        obs.registry.observe("sim.slowdown", 1.2);
        obs.record_decision(DecisionInput {
            at_s: 1.0,
            deployment_id: 0,
            app: "gmm".into(),
            class: WorkloadClass::BestEffort,
            window: WindowSummary::empty(),
            pred_local: Some(10.0),
            pred_remote: Some(12.0),
            rule: DecisionRule::BetaSlack { beta: 1.0 },
            chosen: MemoryMode::Local,
            policy: "adrias".into(),
        });
        obs
    }

    #[test]
    fn real_exports_validate() {
        let obs = observer();
        assert_eq!(
            validate_jsonl_events(&export::to_jsonl_events(&obs)).unwrap(),
            2
        );
        assert_eq!(
            validate_jsonl_decisions(&export::to_jsonl_decisions(&obs)).unwrap(),
            1
        );
        assert!(validate_jsonl_metrics(&export::to_jsonl_metrics(&obs)).unwrap() >= 5);
        assert_eq!(
            validate_chrome_trace(&export::to_chrome_trace(&obs)).unwrap(),
            2
        );
    }

    #[test]
    fn adaptation_export_validates_and_rejects_bad_records() {
        use crate::adapt::{CaptureRecord, CaptureSkip, DriftEvent, ModelSwapRecord, SwapVerdict};
        let mut obs = observer();
        obs.record_capture(CaptureRecord {
            app: "pca".into(),
            arrived_s: 10.0,
            finished_s: 90.0,
            rows: 80,
            co_runners: 2,
            skip: None,
        });
        obs.record_capture(CaptureRecord {
            app: "sort".into(),
            arrived_s: 300.0,
            finished_s: 301.0,
            rows: 0,
            co_runners: 0,
            skip: Some(CaptureSkip::EmptyResidency),
        });
        obs.record_drift(DriftEvent {
            at_s: 95.0,
            stream: "be.rel_err",
            samples: 10,
            mean: 0.7,
            stat: 1.3,
            threshold: 1.0,
        });
        obs.record_swap(ModelSwapRecord {
            at_s: 96.0,
            target: "be",
            verdict: SwapVerdict::Rejected,
            incumbent_version: 2,
            candidate_version: 3,
            incumbent_mae: 4.0,
            candidate_mae: 4.1,
            incumbent_r2: 0.9,
            candidate_r2: 0.89,
            gate_margin: -0.025,
            reasons: vec!["held-out MAE regressed".into()],
        });
        let text = export::to_jsonl_adaptation(&obs);
        assert_eq!(validate_jsonl_adaptation(&text).unwrap(), 4);

        let bad_skip = r#"{"type":"capture","app":"x","arrived_s":0,"finished_s":1,"rows":0,"co_runners":0,"skip":"because"}"#;
        assert!(validate_jsonl_adaptation(bad_skip)
            .unwrap_err()
            .reason
            .contains("unknown skip reason"));

        let empty_success = r#"{"type":"capture","app":"x","arrived_s":0,"finished_s":1,"rows":0,"co_runners":0,"skip":null}"#;
        assert!(validate_jsonl_adaptation(empty_success)
            .unwrap_err()
            .reason
            .contains("zero rows"));

        let weak_drift = r#"{"type":"drift","at_s":1,"stream":"be.rel_err","samples":9,"mean":0.2,"stat":0.5,"threshold":1}"#;
        assert!(validate_jsonl_adaptation(weak_drift)
            .unwrap_err()
            .reason
            .contains("did not cross"));

        let silent_rejection = r#"{"type":"swap","at_s":1,"target":"be","verdict":"rejected","incumbent_version":0,"candidate_version":1,"incumbent_mae":1,"candidate_mae":2,"incumbent_r2":0.9,"candidate_r2":0.5,"gate_margin":-1,"reasons":[]}"#;
        assert!(validate_jsonl_adaptation(silent_rejection)
            .unwrap_err()
            .reason
            .contains("without reasons"));
    }

    #[test]
    fn missing_meta_line_is_rejected() {
        let text = r#"{"type":"instant","name":"x","cat":"t","at_s":1,"track":0,"args":{}}"#;
        let e = validate_jsonl_events(text).unwrap_err();
        assert!(e.to_string().contains("meta"));
    }

    #[test]
    fn ring_meta_headers_out_of_range_are_rejected() {
        for (text, fields) in [
            (
                r#"{"type":"meta","capacity":0,"dropped":0}"#,
                "capacity/dropped",
            ),
            (
                r#"{"type":"meta","capacity":8,"dropped":-1}"#,
                "capacity/dropped",
            ),
        ] {
            let e = validate_jsonl_events(text).unwrap_err();
            assert_eq!(e.reason, format!("meta {fields} out of range"));
        }
        let spans = r#"{"type":"meta","capacity":8,"open":-1,"dropped":0}"#;
        let e = validate_jsonl_spans(spans).unwrap_err();
        assert_eq!(e.reason, "meta capacity/open/dropped out of range");
        let e = validate_jsonl_spans(r#"{"type":"meta","capacity":8,"dropped":0}"#).unwrap_err();
        assert!(e.reason.contains("`open`"), "{}", e.reason);
    }

    #[test]
    fn backwards_span_is_rejected() {
        let text = concat!(
            "{\"type\":\"meta\",\"capacity\":8,\"dropped\":0}\n",
            "{\"type\":\"span\",\"name\":\"x\",\"cat\":\"t\",\"t0_s\":5,\"t1_s\":1,\"track\":0,\"args\":{}}"
        );
        assert!(validate_jsonl_events(text)
            .unwrap_err()
            .reason
            .contains("ends before"));
    }

    #[test]
    fn non_dense_seq_is_rejected() {
        let mut obs = observer();
        obs.record_decision(DecisionInput {
            at_s: 2.0,
            deployment_id: 1,
            app: "kmeans".into(),
            class: WorkloadClass::BestEffort,
            window: WindowSummary::empty(),
            pred_local: None,
            pred_remote: None,
            rule: DecisionRule::Static,
            chosen: MemoryMode::Remote,
            policy: "all-remote".into(),
        });
        let text = export::to_jsonl_decisions(&obs);
        let tampered: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(validate_jsonl_decisions(&tampered)
            .unwrap_err()
            .reason
            .contains("non-dense"));
    }

    #[test]
    fn rule_margin_contract_is_enforced() {
        let line = r#"{"seq":0,"at_s":1,"deployment_id":0,"app":"a","policy":"p","class":"BE","chosen":"local","rule":"beta_slack","rule_param":1,"window_rows":0,"window_mean":{},"pred_local":null,"pred_remote":null,"margin":null,"near_flip":false}"#;
        assert!(validate_jsonl_decisions(line)
            .unwrap_err()
            .reason
            .contains("requires a numeric margin"));
    }

    #[test]
    fn chrome_trace_rejects_missing_fields() {
        assert!(validate_chrome_trace("{}").is_err());
        let no_dur = r#"{"traceEvents":[{"name":"x","cat":"t","ph":"X","ts":0,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(no_dur)
            .unwrap_err()
            .reason
            .contains("dur"));
    }

    fn be(ph: &str, name: &str, ts: f64, tid: u64) -> String {
        format!(
            r#"{{"name":"{name}","cat":"lifecycle","ph":"{ph}","ts":{ts},"pid":1,"tid":{tid},"args":{{}}}}"#
        )
    }

    fn trace_of(events: &[String]) -> String {
        format!(r#"{{"traceEvents":[{}]}}"#, events.join(","))
    }

    #[test]
    fn chrome_trace_accepts_properly_nested_begin_end_pairs() {
        let good = trace_of(&[
            be("B", "outer", 0.0, 1),
            be("B", "inner", 1.0, 1),
            be("E", "inner", 2.0, 1),
            // Other tracks interleave freely.
            be("B", "other", 0.5, 2),
            be("E", "other", 3.0, 2),
            be("E", "outer", 4.0, 1),
        ]);
        assert_eq!(validate_chrome_trace(&good).unwrap(), 6);
    }

    #[test]
    fn chrome_trace_golden_failing_inputs_are_rejected() {
        // Crossed pairs: E names the outer span while the inner is open.
        let crossed = trace_of(&[
            be("B", "outer", 0.0, 1),
            be("B", "inner", 1.0, 1),
            be("E", "outer", 2.0, 1),
            be("E", "inner", 3.0, 1),
        ]);
        assert!(validate_chrome_trace(&crossed)
            .unwrap_err()
            .reason
            .contains("`inner` is open"));

        // An end with nothing open on its track.
        let orphan = trace_of(&[be("E", "ghost", 1.0, 1)]);
        assert!(validate_chrome_trace(&orphan)
            .unwrap_err()
            .reason
            .contains("no open begin"));

        // A begin never closed before the document ends.
        let unclosed = trace_of(&[be("B", "forever", 0.0, 1)]);
        assert!(validate_chrome_trace(&unclosed)
            .unwrap_err()
            .reason
            .contains("unclosed begin"));

        // A timestamp that rewinds its own track.
        let rewind = trace_of(&[
            be("B", "a", 5.0, 1),
            be("E", "a", 7.0, 1),
            be("B", "b", 6.0, 1),
            be("E", "b", 8.0, 1),
        ]);
        assert!(validate_chrome_trace(&rewind)
            .unwrap_err()
            .reason
            .contains("rewinds"));
    }

    #[test]
    fn real_span_export_validates() {
        let mut obs = observer();
        obs.spans.open(crate::spans::LifecycleSpan {
            deployment_id: 0,
            app: "gmm".into(),
            class: "be",
            mode: "local",
            rule: "beta_slack",
            lane: "fast",
            arrived_s: 0.5,
            decided_s: 1.0,
            opened_tick: 1,
            finished_s: 0.0,
            samples: 0,
            drained: false,
        });
        obs.spans.close(0, 5.0, 5, false);
        let text = export::to_jsonl_spans(&obs);
        assert_eq!(validate_jsonl_spans(&text).unwrap(), 4);
        // And the nested Chrome rendering passes the pairing checks:
        // 1 engine span + 1 decision instant + 8 lifecycle B/E events.
        assert_eq!(
            validate_chrome_trace(&export::to_chrome_trace(&obs)).unwrap(),
            10
        );
    }

    #[test]
    fn span_validator_rejects_contract_violations() {
        let meta = r#"{"type":"meta","capacity":8,"open":0,"dropped":0}"#;

        let bad_id = format!(
            "{meta}\n{}",
            r#"{"type":"span","phase":"queue","id":3,"parent":0,"deployment_id":0,"t0_s":0,"t1_s":1}"#
        );
        assert!(validate_jsonl_spans(&bad_id)
            .unwrap_err()
            .reason
            .contains("derivation contract"));

        let bad_parent = format!(
            "{meta}\n{}",
            r#"{"type":"span","phase":"queue","id":5,"parent":0,"deployment_id":1,"t0_s":0,"t1_s":1}"#
        );
        assert!(validate_jsonl_spans(&bad_parent)
            .unwrap_err()
            .reason
            .contains("lifecycle root"));

        // `slow` was a lane until the uncached path moved into the
        // tests as their oracle; no policy reports it any more.
        for lane in ["warp", "slow"] {
            let bad_lane = format!(
                "{meta}\n{}",
                r#"{"type":"span","phase":"decision","id":2,"parent":0,"deployment_id":0,"t0_s":1,"t1_s":1,"rule":"static","lane":"LANE"}"#
                    .replace("LANE", lane)
            );
            assert!(validate_jsonl_spans(&bad_lane)
                .unwrap_err()
                .reason
                .contains("unknown lane"));
        }

        let backwards = format!(
            "{meta}\n{}",
            r#"{"type":"span","phase":"lifecycle","id":0,"parent":null,"deployment_id":0,"t0_s":5,"t1_s":1,"app":"a","class":"be","mode":"local","drained":false}"#
        );
        assert!(validate_jsonl_spans(&backwards)
            .unwrap_err()
            .reason
            .contains("ends before"));

        assert!(validate_jsonl_spans("")
            .unwrap_err()
            .reason
            .contains("empty"));
    }

    #[test]
    fn metrics_validator_accepts_sketches_and_rejects_bad_ones() {
        let text = export::to_jsonl_metrics(&observer());
        assert!(text.contains(r#"{"type":"sketch","name":"sim.slowdown","count":1,"#));
        assert_eq!(validate_jsonl_metrics(&text), Ok(text.lines().count()));

        // A sketch that saw only non-finite samples still exports.
        let only_nan = r#"{"type":"sketch","name":"s","count":0,"nonfinite":2,"zero":0,"mean":0,"min":0,"max":0,"p50":0,"p95":0,"p99":0,"buckets":0}"#;
        assert_eq!(validate_jsonl_metrics(only_nan), Ok(1));

        let line = |fields: &str| format!(r#"{{"type":"sketch","name":"s",{fields},"buckets":2}}"#);
        for (fields, reason) in [
            (
                r#""count":0,"nonfinite":0,"zero":0,"mean":0,"min":0,"max":0,"p50":0,"p95":0,"p99":0"#,
                "no samples",
            ),
            (
                r#""count":3,"nonfinite":0,"zero":0,"mean":5,"min":1,"max":9,"p50":5,"p95":4,"p99":9"#,
                "not monotone",
            ),
            (
                r#""count":3,"nonfinite":0,"zero":0,"mean":5,"min":6,"max":9,"p50":5,"p95":7,"p99":9"#,
                "not monotone",
            ),
            (
                r#""count":3,"nonfinite":0,"zero":0,"mean":5,"min":1,"max":8,"p50":5,"p95":7,"p99":9"#,
                "not monotone",
            ),
            (
                r#""count":3,"nonfinite":0,"zero":0,"mean":9.5,"min":1,"max":9,"p50":5,"p95":7,"p99":9"#,
                "mean 9.5 outside",
            ),
            (
                r#""count":3,"nonfinite":-1,"zero":0,"mean":5,"min":1,"max":9,"p50":5,"p95":7,"p99":9"#,
                "negative `nonfinite`",
            ),
            (
                r#""count":3,"zero":0,"mean":5,"min":1,"max":9,"p50":5,"p95":7,"p99":9"#,
                "nonfinite",
            ),
        ] {
            let got = validate_jsonl_metrics(&line(fields)).unwrap_err().reason;
            assert!(got.contains(reason), "`{fields}`: {got}");
        }

        let histogram = r#"{"type":"histogram","name":"h","count":1,"mean":1,"std":0,"min":1,"max":1,"p50":1,"p95":1,"p99":1}"#;
        assert!(validate_jsonl_metrics(histogram)
            .unwrap_err()
            .reason
            .contains("unknown metric type `histogram`"));
    }
}
