//! Exporters: JSONL for machine consumption, Chrome `trace_event` JSON
//! for timeline viewers (`chrome://tracing`, Perfetto).
//!
//! Every exporter is a pure function of the [`Observer`] state, and the
//! observer state is a pure function of the run's seeds — so same-seed
//! runs export **byte-identical** files. The only sources of
//! nondeterminism that could creep in are ruled out by construction:
//! floats render via Rust's shortest-round-trip `Display`, map iteration
//! is `BTreeMap` order, and wall-clock measurements never reach these
//! exporters.

use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::adapt::{CaptureRecord, DriftEvent, ModelSwapRecord};
use crate::audit::DecisionRecord;
use crate::json::{escape, num_f32, num_f64};
use crate::observer::Observer;
use crate::spans::{phase, LifecycleSpan};
use crate::trace::{ArgValue, TraceEvent, TraceKind};

/// Error from [`write_all`]: which file failed and why.
#[derive(Debug)]
pub struct ExportError {
    /// The file being written.
    pub path: PathBuf,
    /// The underlying I/O failure.
    pub source: std::io::Error,
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot write {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Paths produced by [`write_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportPaths {
    /// Trace events, one JSON object per line (first line is metadata).
    pub events: PathBuf,
    /// Decision audit trail, one JSON object per line.
    pub decisions: PathBuf,
    /// Metrics registry dump, one JSON object per line.
    pub metrics: PathBuf,
    /// Chrome `trace_event` JSON for timeline viewers.
    pub trace: PathBuf,
    /// Online-adaptation audit log, one JSON object per line.
    pub adaptation: PathBuf,
    /// Per-deployment lifecycle span trees, one JSON object per line.
    pub spans: PathBuf,
}

fn render_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:", escape(k));
        match v {
            ArgValue::Num(n) => out.push_str(&num_f64(*n)),
            ArgValue::Str(s) => out.push_str(&escape(s)),
        }
    }
    out.push('}');
}

fn render_event_line(out: &mut String, e: &TraceEvent) {
    match e.kind {
        TraceKind::Span { t0_s, t1_s } => {
            let _ = write!(
                out,
                r#"{{"type":"span","name":{},"cat":{},"t0_s":{},"t1_s":{},"track":{},"args":"#,
                escape(&e.name),
                escape(e.cat),
                num_f64(t0_s),
                num_f64(t1_s),
                e.track
            );
        }
        TraceKind::Instant { at_s } => {
            let _ = write!(
                out,
                r#"{{"type":"instant","name":{},"cat":{},"at_s":{},"track":{},"args":"#,
                escape(&e.name),
                escape(e.cat),
                num_f64(at_s),
                e.track
            );
        }
    }
    render_args(out, &e.args);
    out.push_str("}\n");
}

/// Renders the event trace as JSONL. The first line is a metadata
/// object carrying the ring capacity and the overflow count, so a
/// truncated trace is always identifiable.
pub fn to_jsonl_events(obs: &Observer) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"{{"type":"meta","capacity":{},"dropped":{}}}"#,
        obs.tracer.capacity(),
        obs.tracer.dropped()
    );
    for e in obs.tracer.iter() {
        render_event_line(&mut out, e);
    }
    out
}

fn render_span_lines(out: &mut String, r: &LifecycleSpan) {
    let root = r.root_id();
    let _ = writeln!(
        out,
        r#"{{"type":"span","phase":"lifecycle","id":{},"parent":null,"deployment_id":{},"t0_s":{},"t1_s":{},"app":{},"class":{},"mode":{},"drained":{}}}"#,
        root,
        r.deployment_id,
        num_f64(r.arrived_s),
        num_f64(r.finished_s),
        escape(&r.app),
        escape(r.class),
        escape(r.mode),
        r.drained,
    );
    let _ = writeln!(
        out,
        r#"{{"type":"span","phase":"queue","id":{},"parent":{},"deployment_id":{},"t0_s":{},"t1_s":{}}}"#,
        r.deployment_id * 4 + phase::QUEUE,
        root,
        r.deployment_id,
        num_f64(r.arrived_s),
        num_f64(r.decided_s),
    );
    let _ = writeln!(
        out,
        r#"{{"type":"span","phase":"decision","id":{},"parent":{},"deployment_id":{},"t0_s":{},"t1_s":{},"rule":{},"lane":{}}}"#,
        r.deployment_id * 4 + phase::DECISION,
        root,
        r.deployment_id,
        num_f64(r.decided_s),
        num_f64(r.decided_s),
        escape(r.rule),
        escape(r.lane),
    );
    let _ = writeln!(
        out,
        r#"{{"type":"span","phase":"resident","id":{},"parent":{},"deployment_id":{},"t0_s":{},"t1_s":{},"samples":{}}}"#,
        r.deployment_id * 4 + phase::RESIDENT,
        root,
        r.deployment_id,
        num_f64(r.decided_s),
        num_f64(r.finished_s),
        r.samples,
    );
}

/// Renders the lifecycle span store as JSONL: a metadata line (ring
/// capacity, still-open count, drop count) followed by four lines per
/// closed deployment — the `lifecycle` root and its `queue`, `decision`
/// and `resident` children, linked by `id`/`parent`. Span ids derive
/// from the deployment id alone, so the file is byte-identical across
/// same-seed runs and worker counts.
pub fn to_jsonl_spans(obs: &Observer) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"{{"type":"meta","capacity":{},"open":{},"dropped":{}}}"#,
        obs.spans.capacity(),
        obs.spans.open_count(),
        obs.spans.dropped()
    );
    for r in obs.spans.records() {
        render_span_lines(&mut out, r);
    }
    out
}

/// Renders the flight-recorder ring as JSONL: a metadata line (ring
/// capacity, total events ever recorded, drop count) followed by one
/// line per retained entry, oldest first.
pub fn to_jsonl_flight(obs: &Observer) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"{{"type":"meta","capacity":{},"recorded":{},"dropped":{}}}"#,
        obs.flight.capacity(),
        obs.flight.pushed(),
        obs.flight.dropped()
    );
    for e in obs.flight.iter() {
        let _ = writeln!(
            out,
            r#"{{"type":"flight","seq":{},"kind":{},"at_s":{},"deployment_id":{}}}"#,
            e.seq,
            escape(e.kind),
            num_f64(e.at_s),
            match e.deployment_id {
                Some(id) => id.to_string(),
                None => "null".to_owned(),
            },
        );
    }
    out
}

fn opt_f32(v: Option<f32>) -> String {
    match v {
        Some(x) => num_f32(x),
        None => "null".to_owned(),
    }
}

fn render_decision_line(out: &mut String, r: &DecisionRecord) {
    let i = &r.input;
    let _ = write!(
        out,
        r#"{{"seq":{},"at_s":{},"deployment_id":{},"app":{},"class":{},"policy":{},"rule":{},"rule_param":{},"window_rows":{},"window_mean":{{"#,
        r.seq,
        num_f64(i.at_s),
        i.deployment_id,
        escape(&i.app),
        escape(i.class.label()),
        escape(&i.policy),
        escape(i.rule.tag()),
        opt_f32(i.rule.parameter()),
        i.window.rows,
    );
    for (k, (name, mean)) in i.window.named_means().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", escape(name), num_f32(mean));
    }
    let _ = write!(
        out,
        r#"}},"pred_local":{},"pred_remote":{},"chosen":{},"margin":{},"near_flip":{}}}"#,
        opt_f32(i.pred_local),
        opt_f32(i.pred_remote),
        escape(i.chosen.label()),
        opt_f32(r.margin),
        r.near_flip
    );
    out.push('\n');
}

/// Renders the decision audit trail as JSONL, one record per line in
/// decision order.
pub fn to_jsonl_decisions(obs: &Observer) -> String {
    let mut out = String::new();
    for r in obs.audit.records() {
        render_decision_line(&mut out, r);
    }
    out
}

/// Renders counterexample evidence for a failed QoS oracle: every
/// audited decision that offloaded a latency-critical deployment whose
/// own predicted remote p99 violates `qos_p99_ms` (missing or
/// non-finite predictions count as violations). Each line uses the
/// same schema as [`to_jsonl_decisions`] but keeps the original `seq`
/// numbers, so every piece of evidence points back into the full audit
/// trail; a fuzzer can attach this to a shrunk failing case. Empty when
/// the oracle holds.
pub fn to_jsonl_qos_counterexamples(obs: &Observer, qos_p99_ms: f32) -> String {
    let mut out = String::new();
    for r in obs.audit.records() {
        let i = &r.input;
        let offloaded_lc =
            i.rule.tag() == "qos_threshold" && i.chosen == adrias_workloads::MemoryMode::Remote;
        let violates = match i.pred_remote {
            Some(p) => !p.is_finite() || p > qos_p99_ms,
            None => true,
        };
        if offloaded_lc && violates {
            render_decision_line(&mut out, r);
        }
    }
    out
}

fn render_capture_line(out: &mut String, r: &CaptureRecord) {
    let _ = writeln!(
        out,
        r#"{{"type":"capture","app":{},"arrived_s":{},"finished_s":{},"rows":{},"co_runners":{},"skip":{}}}"#,
        escape(&r.app),
        num_f64(r.arrived_s),
        num_f64(r.finished_s),
        r.rows,
        r.co_runners,
        match r.skip {
            Some(skip) => escape(skip.tag()),
            None => "null".to_owned(),
        },
    );
}

fn render_drift_line(out: &mut String, e: &DriftEvent) {
    let _ = writeln!(
        out,
        r#"{{"type":"drift","at_s":{},"stream":{},"samples":{},"mean":{},"stat":{},"threshold":{}}}"#,
        num_f64(e.at_s),
        escape(e.stream),
        e.samples,
        num_f64(e.mean),
        num_f64(e.stat),
        num_f64(e.threshold),
    );
}

fn render_swap_line(out: &mut String, r: &ModelSwapRecord) {
    let _ = write!(
        out,
        r#"{{"type":"swap","at_s":{},"target":{},"verdict":{},"incumbent_version":{},"candidate_version":{},"incumbent_mae":{},"candidate_mae":{},"incumbent_r2":{},"candidate_r2":{},"gate_margin":{},"reasons":["#,
        num_f64(r.at_s),
        escape(r.target),
        escape(r.verdict.tag()),
        r.incumbent_version,
        r.candidate_version,
        num_f32(r.incumbent_mae),
        num_f32(r.candidate_mae),
        num_f32(r.incumbent_r2),
        num_f32(r.candidate_r2),
        num_f32(r.gate_margin),
    );
    for (i, reason) in r.reasons.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(reason));
    }
    out.push_str("]}\n");
}

/// Renders the adaptation log as JSONL: capture records, drift events
/// and swap verdicts, each kind in insertion (sim-time) order.
pub fn to_jsonl_adaptation(obs: &Observer) -> String {
    let mut out = String::new();
    for r in obs.adapt.captures() {
        render_capture_line(&mut out, r);
    }
    for e in obs.adapt.drifts() {
        render_drift_line(&mut out, e);
    }
    for r in obs.adapt.swaps() {
        render_swap_line(&mut out, r);
    }
    out
}

/// Renders the metrics registry as JSONL: counters, then gauges, then
/// distribution (sketch) summaries, each in name order.
pub fn to_jsonl_metrics(obs: &Observer) -> String {
    let mut out = String::new();
    for (name, v) in obs.registry.counters() {
        let _ = writeln!(
            out,
            r#"{{"type":"counter","name":{},"value":{}}}"#,
            escape(name),
            v
        );
    }
    for (name, v) in obs.registry.gauges() {
        let _ = writeln!(
            out,
            r#"{{"type":"gauge","name":{},"value":{}}}"#,
            escape(name),
            num_f64(v)
        );
    }
    for (name, s) in obs.registry.sketches() {
        let _ = writeln!(
            out,
            r#"{{"type":"sketch","name":{},"count":{},"nonfinite":{},"zero":{},"mean":{},"min":{},"max":{},"p50":{},"p95":{},"p99":{},"buckets":{}}}"#,
            escape(name),
            s.count(),
            s.nonfinite(),
            s.zero_count(),
            num_f64(s.mean()),
            num_f64(s.min()),
            num_f64(s.max()),
            num_f64(s.quantile(0.5)),
            num_f64(s.quantile(0.95)),
            num_f64(s.quantile(0.99)),
            s.occupied_buckets(),
        );
    }
    out
}

/// Renders the event trace as Chrome `trace_event` JSON.
///
/// Spans become complete events (`ph: "X"`), instants become
/// thread-scoped instant events (`ph: "i"`), and closed lifecycle
/// span trees become *nested* begin/end pairs (`ph: "B"`/`"E"`): the
/// deployment's lifecycle opens, its queue / decision / resident
/// children open and close inside it, and the lifecycle closes — so
/// Perfetto renders each deployment as a proper call stack. Sim
/// seconds map to trace microseconds (the format's native unit), and
/// each track becomes a `tid` under a single `pid`.
pub fn to_chrome_trace(obs: &Observer) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for e in obs.tracer.iter() {
        sep(&mut out);
        match e.kind {
            TraceKind::Span { t0_s, t1_s } => {
                let _ = write!(
                    out,
                    r#"{{"name":{},"cat":{},"ph":"X","ts":{},"dur":{},"pid":1,"tid":{},"args":"#,
                    escape(&e.name),
                    escape(e.cat),
                    num_f64(t0_s * 1e6),
                    num_f64((t1_s - t0_s).max(0.0) * 1e6),
                    e.track
                );
            }
            TraceKind::Instant { at_s } => {
                let _ = write!(
                    out,
                    r#"{{"name":{},"cat":{},"ph":"i","s":"t","ts":{},"pid":1,"tid":{},"args":"#,
                    escape(&e.name),
                    escape(e.cat),
                    num_f64(at_s * 1e6),
                    e.track
                );
            }
        }
        render_args(&mut out, &e.args);
        out.push('}');
    }
    for (run, r) in obs.spans.iter() {
        // A deployment's own track in its first run (the one its `app`
        // span is on); later runs under the same observer reuse the
        // deployment ids and restart the sim clock, so their trees go
        // on tracks of their own.
        let tid = (*run << 32) + r.deployment_id + 1;
        let begin = |out: &mut String, name: &str, ts_s: f64| {
            let _ = write!(
                out,
                r#"{{"name":{},"cat":"lifecycle","ph":"B","ts":{},"pid":1,"tid":{},"args":"#,
                escape(name),
                num_f64(ts_s * 1e6),
                tid
            );
        };
        let end = |out: &mut String, name: &str, ts_s: f64| {
            let _ = write!(
                out,
                r#"{{"name":{},"cat":"lifecycle","ph":"E","ts":{},"pid":1,"tid":{},"args":{{}}}}"#,
                escape(name),
                num_f64(ts_s * 1e6),
                tid
            );
        };
        let root = format!("lifecycle:{}", r.app);
        let end_s = r.finished_s.max(r.decided_s);
        sep(&mut out);
        begin(&mut out, &root, r.arrived_s);
        render_args(
            &mut out,
            &[
                ("app", r.app.clone().into()),
                ("class", r.class.into()),
                ("mode", r.mode.into()),
                ("drained", ArgValue::Num(f64::from(u8::from(r.drained)))),
            ],
        );
        out.push('}');
        sep(&mut out);
        begin(&mut out, "queue", r.arrived_s);
        out.push_str("{}}");
        sep(&mut out);
        end(&mut out, "queue", r.decided_s);
        sep(&mut out);
        begin(&mut out, "decision", r.decided_s);
        render_args(&mut out, &[("rule", r.rule.into())]);
        out.push('}');
        sep(&mut out);
        end(&mut out, "decision", r.decided_s);
        sep(&mut out);
        begin(&mut out, "resident", r.decided_s);
        render_args(&mut out, &[("samples", ArgValue::Num(r.samples as f64))]);
        out.push('}');
        sep(&mut out);
        end(&mut out, "resident", end_s);
        sep(&mut out);
        end(&mut out, &root, end_s);
    }
    let _ = write!(
        out,
        r#"],"displayTimeUnit":"ms","otherData":{{"clock":"sim","dropped_events":{}}}}}"#,
        obs.tracer.dropped()
    );
    out
}

/// Renders the wall-clock self-profile in collapsed-stack ("folded")
/// format: one `label microseconds` line per profiled engine phase,
/// stack frames separated by `;` (e.g. `engine;heap;pop 1234`), ready
/// for `flamegraph.pl` or speedscope. Host-dependent by construction —
/// this file is **excluded** from the byte-compared export set. Empty
/// unless the observer was created with `record_wall`.
pub fn render_flamegraph(obs: &Observer) -> String {
    let mut out = String::new();
    for (label, ns) in obs.wall_ns.iter().flatten() {
        let _ = writeln!(out, "{label} {}", (ns + 500) / 1000);
    }
    out
}

/// Writes `contents` as `dir/name`, creating `dir` if missing, and
/// returns the file's path.
fn write_file(dir: &Path, name: &str, contents: String) -> Result<PathBuf, ExportError> {
    std::fs::create_dir_all(dir).map_err(|source| ExportError {
        path: dir.to_path_buf(),
        source,
    })?;
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => Ok(path),
        Err(source) => Err(ExportError { path, source }),
    }
}

/// Writes the collapsed-stack flamegraph file as `flame.folded` in
/// `dir` (created if missing) and returns its path.
///
/// # Errors
///
/// Returns [`ExportError`] naming the file that could not be written.
pub fn write_flamegraph(obs: &Observer, dir: &Path) -> Result<PathBuf, ExportError> {
    write_file(dir, "flame.folded", render_flamegraph(obs))
}

/// Writes a post-mortem bundle into `dir` (created if missing): the
/// flight-recorder ring (`flight.jsonl`), the QoS counterexample
/// evidence against `qos_p99_ms` (`qos_counterexamples.jsonl`), the
/// registry snapshot (`metrics.jsonl`) and the lifecycle spans
/// (`spans.jsonl`). Called by the fuzzer when an oracle fails, so the
/// failing case ships with the engine's recent history attached.
///
/// # Errors
///
/// Returns [`ExportError`] naming the file that could not be written.
pub fn write_post_mortem(obs: &Observer, dir: &Path, qos_p99_ms: f32) -> Result<(), ExportError> {
    write_file(dir, "flight.jsonl", to_jsonl_flight(obs))?;
    let evidence = to_jsonl_qos_counterexamples(obs, qos_p99_ms);
    write_file(dir, "qos_counterexamples.jsonl", evidence)?;
    write_file(dir, "metrics.jsonl", to_jsonl_metrics(obs))?;
    write_file(dir, "spans.jsonl", to_jsonl_spans(obs))?;
    Ok(())
}

/// Writes all six exports into `dir` (created if missing):
/// `events.jsonl`, `decisions.jsonl`, `metrics.jsonl`, `trace.json`,
/// `adaptation.jsonl`, `spans.jsonl`.
///
/// # Errors
///
/// Returns [`ExportError`] naming the file that could not be written.
pub fn write_all(obs: &Observer, dir: &Path) -> Result<ExportPaths, ExportError> {
    Ok(ExportPaths {
        events: write_file(dir, "events.jsonl", to_jsonl_events(obs))?,
        decisions: write_file(dir, "decisions.jsonl", to_jsonl_decisions(obs))?,
        metrics: write_file(dir, "metrics.jsonl", to_jsonl_metrics(obs))?,
        trace: write_file(dir, "trace.json", to_chrome_trace(obs))?,
        adaptation: write_file(dir, "adaptation.jsonl", to_jsonl_adaptation(obs))?,
        spans: write_file(dir, "spans.jsonl", to_jsonl_spans(obs))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{DecisionInput, DecisionRule, WindowSummary};
    use crate::json;
    use crate::observer::ObsConfig;
    use adrias_workloads::{MemoryMode, WorkloadClass};

    fn sample_observer() -> Observer {
        let mut obs = Observer::new(ObsConfig::default());
        obs.tracer.span(
            "engine.run",
            "engine",
            0.0,
            12.0,
            0,
            vec![("arrivals", 2.0.into())],
        );
        obs.tracer
            .instant("deploy", "engine", 3.0, 1, vec![("app", "gmm".into())]);
        obs.registry.counter_add("sim.steps", 12);
        obs.registry.gauge_set("engine.end_time_s", 12.0);
        obs.registry.observe("sim.slowdown", 1.5);
        obs.record_decision(DecisionInput {
            at_s: 3.0,
            deployment_id: 0,
            app: "gmm".into(),
            class: WorkloadClass::BestEffort,
            window: WindowSummary::empty(),
            pred_local: Some(90.0),
            pred_remote: Some(100.0),
            rule: DecisionRule::BetaSlack { beta: 1.0 },
            chosen: MemoryMode::Local,
            policy: "adrias".into(),
        });
        obs
    }

    #[test]
    fn every_jsonl_line_parses_as_object() {
        let obs = sample_observer();
        for text in [
            to_jsonl_events(&obs),
            to_jsonl_decisions(&obs),
            to_jsonl_metrics(&obs),
        ] {
            assert!(!text.is_empty());
            for line in text.lines() {
                assert!(json::parse(line).unwrap().is_obj(), "bad line: {line}");
            }
        }
    }

    #[test]
    fn events_meta_line_reports_overflow() {
        let mut obs = Observer {
            tracer: crate::Tracer::new(1),
            ..Observer::default()
        };
        obs.tracer.instant("a", "t", 0.0, 0, vec![]);
        obs.tracer.instant("b", "t", 1.0, 0, vec![]);
        let text = to_jsonl_events(&obs);
        let meta = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(meta.get("dropped").unwrap().as_num(), Some(1.0));
        assert_eq!(text.lines().count(), 2); // meta + one retained event
    }

    #[test]
    fn decision_line_carries_margin_and_rule() {
        let obs = sample_observer();
        let line = to_jsonl_decisions(&obs);
        let doc = json::parse(line.trim_end()).unwrap();
        assert_eq!(doc.get("rule").unwrap().as_str(), Some("beta_slack"));
        assert_eq!(doc.get("chosen").unwrap().as_str(), Some("local"));
        let margin = doc.get("margin").unwrap().as_num().unwrap();
        assert!((margin - 0.1).abs() < 1e-6);
        assert_eq!(doc.get("near_flip").unwrap().as_bool(), Some(false));
        assert!(doc.get("window_mean").unwrap().is_obj());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_span_and_instant() {
        let obs = sample_observer();
        let doc = json::parse(&to_chrome_trace(&obs)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3); // span + deploy instant + decision instant
        let span = &events[0];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("dur").unwrap().as_num(), Some(12e6));
        let inst = &events[1];
        assert_eq!(inst.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(inst.get("tid").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn qos_counterexamples_select_only_violating_offloads() {
        let mut obs = Observer::new(ObsConfig::default());
        let record = |obs: &mut Observer, pred_remote: Option<f32>, chosen: MemoryMode| {
            obs.record_decision(DecisionInput {
                at_s: 1.0,
                deployment_id: 0,
                app: "redis".into(),
                class: WorkloadClass::LatencyCritical,
                window: WindowSummary::empty(),
                pred_local: None,
                pred_remote,
                rule: DecisionRule::QosThreshold { qos_p99_ms: 5.0 },
                chosen,
                policy: "adrias".into(),
            });
        };
        record(&mut obs, Some(4.0), MemoryMode::Remote); // compliant offload
        record(&mut obs, Some(9.0), MemoryMode::Remote); // violation
        record(&mut obs, Some(9.0), MemoryMode::Local); // kept local: fine
        record(&mut obs, None, MemoryMode::Remote); // no prediction: violation
        record(&mut obs, Some(f32::NAN), MemoryMode::Remote); // NaN: violation
        let text = to_jsonl_qos_counterexamples(&obs, 5.0);
        assert_eq!(text.lines().count(), 3);
        // Evidence keeps the original audit `seq` numbers and the full
        // decision schema.
        let docs: Vec<_> = text
            .lines()
            .map(|l| json::parse(l).expect("evidence line parses"))
            .collect();
        let seqs: Vec<f64> = docs
            .iter()
            .map(|d| d.get("seq").unwrap().as_num().unwrap())
            .collect();
        assert_eq!(seqs, vec![1.0, 3.0, 4.0]);
        for d in &docs {
            assert_eq!(d.get("rule").unwrap().as_str(), Some("qos_threshold"));
            assert_eq!(d.get("chosen").unwrap().as_str(), Some("remote"));
        }
        // A healthy trail yields no evidence at all.
        assert!(to_jsonl_qos_counterexamples(&sample_observer(), 5.0).is_empty());
    }

    #[test]
    fn exports_are_deterministic_across_identical_observers() {
        let a = sample_observer();
        let b = sample_observer();
        assert_eq!(to_jsonl_events(&a), to_jsonl_events(&b));
        assert_eq!(to_jsonl_decisions(&a), to_jsonl_decisions(&b));
        assert_eq!(to_jsonl_metrics(&a), to_jsonl_metrics(&b));
        assert_eq!(to_chrome_trace(&a), to_chrome_trace(&b));
    }

    #[test]
    fn write_all_creates_the_six_files() {
        let dir = std::env::temp_dir().join("adrias_obs_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let obs = sample_observer();
        let paths = write_all(&obs, &dir).unwrap();
        for p in [
            &paths.events,
            &paths.decisions,
            &paths.metrics,
            &paths.trace,
            &paths.adaptation,
            &paths.spans,
        ] {
            assert!(p.exists(), "{} missing", p.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn closed_span_observer() -> Observer {
        let mut obs = sample_observer();
        obs.spans.open(crate::spans::LifecycleSpan {
            deployment_id: 2,
            app: "redis".into(),
            class: "lc",
            mode: "remote",
            rule: "qos_threshold",
            lane: "fast",
            arrived_s: 1.5,
            decided_s: 2.0,
            opened_tick: 2,
            finished_s: 0.0,
            samples: 0,
            drained: false,
        });
        obs.spans.close(2, 9.0, 9, false);
        obs
    }

    #[test]
    fn spans_jsonl_renders_a_linked_four_node_tree() {
        let obs = closed_span_observer();
        let text = to_jsonl_spans(&obs);
        let docs: Vec<_> = text
            .lines()
            .map(|l| json::parse(l).expect("span line parses"))
            .collect();
        assert_eq!(docs.len(), 5); // meta + 4 phases
        assert_eq!(docs[0].get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(docs[0].get("dropped").unwrap().as_num(), Some(0.0));
        let root_id = docs[1].get("id").unwrap().as_num().unwrap();
        assert_eq!(root_id, 8.0); // deployment 2 * 4 + LIFECYCLE
        assert_eq!(docs[1].get("parent"), Some(&json::Json::Null));
        assert_eq!(docs[1].get("phase").unwrap().as_str(), Some("lifecycle"));
        assert_eq!(docs[1].get("app").unwrap().as_str(), Some("redis"));
        for (doc, phase, id) in [
            (&docs[2], "queue", 9.0),
            (&docs[3], "decision", 10.0),
            (&docs[4], "resident", 11.0),
        ] {
            assert_eq!(doc.get("phase").unwrap().as_str(), Some(phase));
            assert_eq!(doc.get("id").unwrap().as_num(), Some(id));
            assert_eq!(doc.get("parent").unwrap().as_num(), Some(root_id));
        }
        assert_eq!(docs[3].get("lane").unwrap().as_str(), Some("fast"));
        assert_eq!(docs[4].get("samples").unwrap().as_num(), Some(7.0));
        // Queue waits from raw arrival to the admission tick.
        assert_eq!(docs[2].get("t0_s").unwrap().as_num(), Some(1.5));
        assert_eq!(docs[2].get("t1_s").unwrap().as_num(), Some(2.0));
    }

    #[test]
    fn sketch_lines_follow_gauges_in_metrics_jsonl() {
        let mut obs = sample_observer();
        obs.registry.observe("orchestrator.queue_wait_s", 0.5);
        obs.registry.observe("orchestrator.queue_wait_s", 1.5);
        let text = to_jsonl_metrics(&obs);
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("type")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_owned()
            })
            .collect();
        let first_sketch = kinds.iter().position(|k| k == "sketch").unwrap();
        assert_eq!(kinds[first_sketch - 1], "gauge");
        assert!(kinds[first_sketch..].iter().all(|k| k == "sketch"));
        let sketch_line = text.lines().nth(first_sketch).unwrap();
        let doc = json::parse(sketch_line).unwrap();
        assert_eq!(doc.get("count").unwrap().as_num(), Some(2.0));
        assert_eq!(doc.get("nonfinite").unwrap().as_num(), Some(0.0));
        assert_eq!(doc.get("zero").unwrap().as_num(), Some(0.0));
        assert!((doc.get("mean").unwrap().as_num().unwrap() - 1.0).abs() < 1.0 / 256.0);
        assert!(doc.get("p99").unwrap().as_num().unwrap() <= 1.5);
    }

    #[test]
    fn chrome_trace_nests_lifecycle_begin_end_pairs() {
        let obs = closed_span_observer();
        let doc = json::parse(&to_chrome_trace(&obs)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 tracer events + 8 lifecycle B/E events.
        assert_eq!(events.len(), 11);
        let be: Vec<_> = events
            .iter()
            .filter(|e| {
                let ph = e.get("ph").unwrap().as_str().unwrap();
                ph == "B" || ph == "E"
            })
            .collect();
        assert_eq!(be.len(), 8);
        // Proper nesting: B lifecycle, B queue, E queue, B decision,
        // E decision, B resident, E resident, E lifecycle.
        let shape: Vec<(String, String)> = be
            .iter()
            .map(|e| {
                (
                    e.get("ph").unwrap().as_str().unwrap().to_owned(),
                    e.get("name").unwrap().as_str().unwrap().to_owned(),
                )
            })
            .collect();
        assert_eq!(shape[0], ("B".into(), "lifecycle:redis".into()));
        assert_eq!(shape[1], ("B".into(), "queue".into()));
        assert_eq!(shape[2], ("E".into(), "queue".into()));
        assert_eq!(shape[7], ("E".into(), "lifecycle:redis".into()));
        // Timestamps are monotone within the pair stream.
        let ts: Vec<f64> = be
            .iter()
            .map(|e| e.get("ts").unwrap().as_num().unwrap())
            .collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "ts not monotone: {ts:?}"
        );
        // All eight share the deployment's tid and never leak the lane.
        for e in &be {
            assert_eq!(e.get("tid").unwrap().as_num(), Some(3.0));
            assert!(e.get("args").unwrap().get("lane").is_none());
        }
    }

    #[test]
    fn a_second_run_under_one_observer_gets_lifecycle_tracks_of_its_own() {
        // Run 1 ends; run 2 reuses deployment id 2 and restarts the sim
        // clock before run 1's tree ended.
        let mut obs = closed_span_observer();
        obs.spans.drain_open(9.0, 9);
        let again = obs.spans.records().next().unwrap().clone();
        obs.spans.open(again);
        obs.spans.close(2, 4.0, 4, false);
        let runs: Vec<u64> = obs.spans.iter().map(|(run, _)| *run).collect();
        assert_eq!(runs, [0, 1]);

        let text = to_chrome_trace(&obs);
        crate::validate::validate_chrome_trace(&text).expect("two runs, one valid trace");
        let doc = json::parse(&text).unwrap();
        let tids: std::collections::BTreeSet<u64> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("cat").unwrap().as_str() == Some("lifecycle"))
            .map(|e| e.get("tid").unwrap().as_num().unwrap() as u64)
            .collect();
        assert_eq!(tids.into_iter().collect::<Vec<_>>(), [3, (1 << 32) + 3]);
    }

    #[test]
    fn flamegraph_renders_folded_stacks_only_when_wall_enabled() {
        let mut obs = sample_observer();
        assert!(render_flamegraph(&obs).is_empty());
        obs.wall_ns = Some(
            [
                ("engine;heap;pop", 1_500_000),
                ("engine;decide;fast", 250_000),
            ]
            .map(|(label, ns)| (label.to_owned(), ns))
            .into(),
        );
        let folded = render_flamegraph(&obs);
        let lines: Vec<&str> = folded.lines().collect();
        // BTreeMap order, "<stack> <micros>" per line.
        assert_eq!(
            lines,
            vec!["engine;decide;fast 250", "engine;heap;pop 1500"]
        );
    }

    #[test]
    fn post_mortem_bundle_contains_flight_and_evidence() {
        let dir = std::env::temp_dir().join("adrias_obs_postmortem_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut obs = closed_span_observer();
        obs.flight.record("arrival", 1.5, Some(2));
        obs.flight.record("finish", 9.0, Some(2));
        obs.record_decision(DecisionInput {
            at_s: 2.0,
            deployment_id: 2,
            app: "redis".into(),
            class: WorkloadClass::LatencyCritical,
            window: WindowSummary::empty(),
            pred_local: Some(4.0),
            pred_remote: Some(9.0),
            rule: DecisionRule::QosThreshold { qos_p99_ms: 5.0 },
            chosen: MemoryMode::Remote,
            policy: "adrias".into(),
        });
        write_post_mortem(&obs, &dir, 5.0).unwrap();
        let flight = std::fs::read_to_string(dir.join("flight.jsonl")).unwrap();
        assert!(flight.lines().count() >= 3, "meta + 2 entries");
        let evidence = std::fs::read_to_string(dir.join("qos_counterexamples.jsonl")).unwrap();
        assert_eq!(evidence.lines().count(), 1, "the injected violation");
        assert!(dir.join("metrics.jsonl").exists());
        assert!(dir.join("spans.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptation_lines_parse_and_carry_their_kind() {
        use crate::adapt::{CaptureRecord, CaptureSkip, DriftEvent, ModelSwapRecord, SwapVerdict};
        let mut obs = sample_observer();
        obs.record_capture(CaptureRecord {
            app: "pca".into(),
            arrived_s: 10.0,
            finished_s: 95.5,
            rows: 85,
            co_runners: 3,
            skip: None,
        });
        obs.record_capture(CaptureRecord {
            app: "sort".into(),
            arrived_s: 700.0,
            finished_s: 701.0,
            rows: 0,
            co_runners: 0,
            skip: Some(CaptureSkip::EmptyResidency),
        });
        obs.record_drift(DriftEvent {
            at_s: 120.0,
            stream: "be.rel_err",
            samples: 11,
            mean: 0.8,
            stat: 1.7,
            threshold: 1.0,
        });
        obs.record_swap(ModelSwapRecord {
            at_s: 130.0,
            target: "be",
            verdict: SwapVerdict::Swapped,
            incumbent_version: 0,
            candidate_version: 1,
            incumbent_mae: 9.0,
            candidate_mae: 4.5,
            incumbent_r2: 0.5,
            candidate_r2: 0.8,
            gate_margin: 0.5,
            reasons: vec![],
        });
        let text = to_jsonl_adaptation(&obs);
        assert_eq!(text.lines().count(), 4);
        let docs: Vec<_> = text
            .lines()
            .map(|l| json::parse(l).expect("parses"))
            .collect();
        assert_eq!(docs[0].get("type").unwrap().as_str(), Some("capture"));
        assert_eq!(docs[0].get("skip"), Some(&json::Json::Null));
        assert_eq!(
            docs[1].get("skip").unwrap().as_str(),
            Some("empty_residency")
        );
        assert_eq!(docs[2].get("stream").unwrap().as_str(), Some("be.rel_err"));
        assert_eq!(docs[3].get("verdict").unwrap().as_str(), Some("swapped"));
        assert_eq!(docs[3].get("gate_margin").unwrap().as_num(), Some(0.5));
        // The recording helpers also bumped counters + trace events.
        assert_eq!(obs.registry.counter("adapt.captures"), 1);
        assert_eq!(
            obs.registry.counter("adapt.capture_skip.empty_residency"),
            1
        );
        assert_eq!(obs.registry.counter("adapt.drift_events"), 1);
        assert_eq!(obs.registry.counter("adapt.swaps.swapped"), 1);
    }
}
