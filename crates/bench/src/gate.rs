//! Bench-regression gate: compares freshly produced `BENCH_*.json` files
//! against the committed baselines and fails CI when the trajectory
//! regresses.
//!
//! Two rules, applied to every numeric field the walker finds (schemas in
//! DESIGN.md):
//!
//! * **wall-clock** (`wall_secs`): the fresh value may exceed the baseline
//!   by at most the tolerance (default 20 %, `BENCH_GATE_WALL_PCT`
//!   override — hosted CI runners are noisier than the bench box that
//!   produced the committed baselines). Cells whose baseline is below the
//!   one-second noise floor are skipped, not gated;
//! * **delivery** (`delivery_rate`, `loss_1pct_delivery`, `completeness`):
//!   any drop below the baseline fails (small float-formatting epsilon).
//!
//! Arrays of result cells are matched by identity fields (`scenario`,
//! `nodes`, `loss_rate`, `partition_secs`, `payload_bytes`), not by index,
//! so a smoke-row artifact gates cleanly against a full-row baseline: only
//! cells present on both sides are compared, the rest are reported as
//! skipped.
//!
//! The module also carries the **sim-vs-live divergence gate**
//! ([`divergence_check`]): a `BENCH_SOAK.json` artifact records, per chaos
//! scenario, the live cluster's outcome next to the simulator's prediction
//! of the *same* schedule, and the gate fails when the live numbers drift
//! outside a configurable [`DivergenceBand`] — or when any online
//! invariant sweep tripped during the soak.
//!
//! The vendored serde stub has no JSON support, so this module carries its
//! own small recursive-descent parser — sufficient for the machine-written
//! artifacts the benches emit.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the artifacts never need 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number behind this value, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        // The artifacts never emit \u escapes; keep them
                        // readable rather than wrong.
                        other => {
                            out.push('\\');
                            out.push(other as char);
                        }
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

/// Gate thresholds.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Allowed relative wall-clock growth (0.20 = +20 %).
    pub wall_tolerance: f64,
    /// Wall-clock fields whose *baseline* is below this many seconds are
    /// skipped, not gated: sub-second cells are dominated by scheduler and
    /// cache noise (same-machine reruns showed >60 % swings), so relative
    /// thresholds on them only produce flakes.
    pub min_wall_secs: f64,
    /// Slack on delivery comparisons, covering float formatting only.
    pub delivery_epsilon: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            wall_tolerance: 0.20,
            min_wall_secs: 1.0,
            delivery_epsilon: 1e-6,
        }
    }
}

impl GateConfig {
    /// Reads the wall tolerance from `BENCH_GATE_WALL_PCT` (a percentage,
    /// e.g. `75`), keeping the default when unset or unparsable.
    pub fn from_env() -> Self {
        let mut cfg = GateConfig::default();
        if let Ok(pct) = std::env::var("BENCH_GATE_WALL_PCT") {
            if let Ok(pct) = pct.trim().parse::<f64>() {
                cfg.wall_tolerance = pct / 100.0;
            }
        }
        cfg
    }
}

/// Outcome of gating one or more artifacts.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Human-readable regression descriptions; non-empty fails the gate.
    pub violations: Vec<String>,
    /// Numeric comparisons performed.
    pub checks: usize,
    /// Cells/fields present on only one side (informational).
    pub skipped: Vec<String>,
}

impl GateReport {
    /// True if no regression was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report for CI logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "bench_gate: {} comparisons, {} skipped, {} violations",
            self.checks,
            self.skipped.len(),
            self.violations.len()
        )
        .unwrap();
        for s in &self.skipped {
            writeln!(out, "  skipped: {s}").unwrap();
        }
        for v in &self.violations {
            writeln!(out, "  REGRESSION: {v}").unwrap();
        }
        out
    }
}

/// Fields gated as wall-clock (fresh may exceed baseline by the tolerance).
const WALL_KEYS: &[&str] = &["wall_secs"];
/// Fields gated as delivery (any drop below baseline fails).
const DELIVERY_KEYS: &[&str] = &["delivery_rate", "loss_1pct_delivery", "completeness"];
/// Fields identifying a result cell inside an array, used to match cells
/// across artifacts with different row sets.
const IDENTITY_KEYS: &[&str] = &[
    "scenario",
    "nodes",
    "no_fault_nodes",
    "loss_rate",
    "partition_secs",
    "payload_bytes",
];

fn identity_of(v: &Json) -> Option<String> {
    let mut id = String::new();
    for key in IDENTITY_KEYS {
        match v.get(key) {
            Some(Json::Str(s)) => write!(id, "{key}={s};").unwrap(),
            Some(Json::Num(n)) => write!(id, "{key}={n};").unwrap(),
            _ => {}
        }
    }
    (!id.is_empty()).then_some(id)
}

/// Compares a fresh artifact against its baseline, appending to `report`.
pub fn compare(
    path: &str,
    baseline: &Json,
    fresh: &Json,
    cfg: &GateConfig,
    report: &mut GateReport,
) {
    match (baseline, fresh) {
        (Json::Obj(base_members), Json::Obj(_)) => {
            // Two objects describing different cells must not be gated
            // against each other. This is how a smoke artifact's
            // `acceptance` block (anchored to the largest smoke row) stays
            // out of the way when the nightly full run gates against it —
            // its wall-clock belongs to a different node count.
            let (base_id, fresh_id) = (identity_of(baseline), identity_of(fresh));
            if let (Some(b), Some(f)) = (&base_id, &fresh_id) {
                if b != f {
                    report
                        .skipped
                        .push(format!("{path}: identity {b} vs {f} (different cells)"));
                    return;
                }
            }
            for (key, base_v) in base_members {
                match fresh.get(key) {
                    Some(fresh_v) => {
                        compare_field(&format!("{path}.{key}"), key, base_v, fresh_v, cfg, report)
                    }
                    None => report.skipped.push(format!("{path}.{key} (baseline only)")),
                }
            }
        }
        (Json::Arr(base_items), Json::Arr(fresh_items)) => {
            let keyed = base_items.iter().all(|v| identity_of(v).is_some())
                && fresh_items.iter().all(|v| identity_of(v).is_some());
            if keyed {
                for base_v in base_items {
                    let id = identity_of(base_v).expect("checked above");
                    match fresh_items
                        .iter()
                        .find(|f| identity_of(f).as_ref() == Some(&id))
                    {
                        Some(fresh_v) => {
                            compare(&format!("{path}[{id}]"), base_v, fresh_v, cfg, report)
                        }
                        None => report.skipped.push(format!("{path}[{id}] (baseline only)")),
                    }
                }
            } else {
                for (i, (b, f)) in base_items.iter().zip(fresh_items.iter()).enumerate() {
                    compare(&format!("{path}[{i}]"), b, f, cfg, report);
                }
                if base_items.len() != fresh_items.len() {
                    report.skipped.push(format!(
                        "{path}: length {} vs {}",
                        base_items.len(),
                        fresh_items.len()
                    ));
                }
            }
        }
        _ => {}
    }
}

/// Allowed sim-vs-live drift per soak scenario — the band the divergence
/// gate holds a `BENCH_SOAK.json` artifact to.
///
/// Delivery and completeness are gated **symmetrically**: live falling
/// below the sim prediction means the runtime is dropping deliveries, and
/// live sitting far *above* it means the fault shim is not applying the
/// adversity the simulator modelled — both are divergence. Latency is
/// gated one-sided as a ratio: the sim's testbed latency model and the
/// live interconnect are different clocks, so live being much faster than
/// the model is expected (loopback), but live p50 exceeding sim p50 by
/// more than the ratio means the runtime is stalling.
#[derive(Debug, Clone, Copy)]
pub struct DivergenceBand {
    /// Max absolute drift of live survivor delivery rate vs sim delivery.
    pub delivery_abs: f64,
    /// Max absolute drift of live survivor completeness vs sim
    /// completeness (wider: one node missing one message zeroes its
    /// contribution, so the metric is intrinsically coarser).
    pub completeness_abs: f64,
    /// Max live-p50 / sim-p50 latency ratio (one-sided; faster is fine).
    pub latency_ratio: f64,
}

impl Default for DivergenceBand {
    fn default() -> Self {
        DivergenceBand {
            delivery_abs: 0.05,
            completeness_abs: 0.15,
            latency_ratio: 25.0,
        }
    }
}

impl DivergenceBand {
    /// Reads overrides from `BRISA_DIV_DELIVERY_ABS`,
    /// `BRISA_DIV_COMPLETENESS_ABS` and `BRISA_DIV_LATENCY_RATIO`, keeping
    /// the defaults for anything unset or unparsable.
    pub fn from_env() -> Self {
        fn env_f64(key: &str, default: f64) -> f64 {
            std::env::var(key)
                .ok()
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or(default)
        }
        let d = DivergenceBand::default();
        DivergenceBand {
            delivery_abs: env_f64("BRISA_DIV_DELIVERY_ABS", d.delivery_abs),
            completeness_abs: env_f64("BRISA_DIV_COMPLETENESS_ABS", d.completeness_abs),
            latency_ratio: env_f64("BRISA_DIV_LATENCY_RATIO", d.latency_ratio),
        }
    }
}

/// Pulls a required numeric field out of a soak scenario cell, recording a
/// violation when it is missing — a soak artifact losing one of its gated
/// numbers must fail loudly, not gate an empty set.
fn require_num(
    cell: &Json,
    block: Option<&str>,
    key: &str,
    name: &str,
    report: &mut GateReport,
) -> Option<f64> {
    let holder = match block {
        Some(b) => cell.get(b),
        None => Some(cell),
    };
    let v = holder.and_then(|h| h.get(key)).and_then(Json::as_num);
    if v.is_none() {
        let where_ = block.map(|b| format!("{b}.")).unwrap_or_default();
        report
            .violations
            .push(format!("{name}: missing numeric field {where_}{key}"));
    }
    v
}

/// Gates a `BENCH_SOAK.json` artifact: every scenario's online invariant
/// sweeps must be clean and its live metrics must sit inside `band` around
/// the sim prediction recorded next to them. Appends to `report`.
pub fn divergence_check(artifact: &Json, band: &DivergenceBand, report: &mut GateReport) {
    match artifact.get("schema") {
        Some(Json::Str(s)) if s.starts_with("brisa-bench-soak/") => {}
        other => {
            report.violations.push(format!(
                "artifact is not a soak artifact (schema {other:?})"
            ));
            return;
        }
    }
    let scenarios = match artifact.get("scenarios") {
        Some(Json::Arr(items)) if !items.is_empty() => items,
        _ => {
            report
                .violations
                .push("artifact has no scenarios to gate".to_string());
            return;
        }
    };
    for cell in scenarios {
        let name = match cell.get("scenario") {
            Some(Json::Str(s)) => s.clone(),
            _ => {
                report
                    .violations
                    .push("scenario cell without a scenario name".to_string());
                continue;
            }
        };
        if let Some(v) = require_num(cell, None, "invariant_violations", &name, report) {
            report.checks += 1;
            if v != 0.0 {
                report.violations.push(format!(
                    "{name}: {v:.0} online invariant violations during the soak"
                ));
            }
        }
        let live_delivery =
            require_num(cell, Some("live"), "survivor_delivery_rate", &name, report);
        let sim_delivery = require_num(cell, Some("sim"), "delivery_rate", &name, report);
        if let (Some(live), Some(sim)) = (live_delivery, sim_delivery) {
            report.checks += 1;
            if (live - sim).abs() > band.delivery_abs {
                report.violations.push(format!(
                    "{name}: live survivor delivery {live:.4} diverges from sim {sim:.4} \
                     by more than {:.4}",
                    band.delivery_abs
                ));
            }
        }
        let live_comp = require_num(cell, Some("live"), "survivor_completeness", &name, report);
        let sim_comp = require_num(cell, Some("sim"), "completeness", &name, report);
        if let (Some(live), Some(sim)) = (live_comp, sim_comp) {
            report.checks += 1;
            if (live - sim).abs() > band.completeness_abs {
                report.violations.push(format!(
                    "{name}: live survivor completeness {live:.4} diverges from sim {sim:.4} \
                     by more than {:.4}",
                    band.completeness_abs
                ));
            }
        }
        let live_p50 = require_num(cell, Some("live"), "latency_p50_ms", &name, report);
        let sim_p50 = require_num(cell, Some("sim"), "latency_p50_ms", &name, report);
        if let (Some(live), Some(sim)) = (live_p50, sim_p50) {
            report.checks += 1;
            if sim > 0.0 && live > sim * band.latency_ratio {
                report.violations.push(format!(
                    "{name}: live p50 latency {live:.2}ms exceeds {:.0}x the sim \
                     prediction {sim:.2}ms",
                    band.latency_ratio
                ));
            }
        }
    }
}

fn compare_field(
    path: &str,
    key: &str,
    baseline: &Json,
    fresh: &Json,
    cfg: &GateConfig,
    report: &mut GateReport,
) {
    if let (Some(base), Some(new)) = (baseline.as_num(), fresh.as_num()) {
        if WALL_KEYS.contains(&key) {
            if base < cfg.min_wall_secs {
                report
                    .skipped
                    .push(format!("{path}: baseline {base:.3}s below the noise floor"));
                return;
            }
            report.checks += 1;
            let limit = base * (1.0 + cfg.wall_tolerance);
            if new > limit {
                report.violations.push(format!(
                    "{path}: wall-clock {new:.3}s exceeds baseline {base:.3}s by more than {:.0}%",
                    cfg.wall_tolerance * 100.0
                ));
            }
        } else if DELIVERY_KEYS.contains(&key) {
            report.checks += 1;
            if new < base - cfg.delivery_epsilon {
                report.violations.push(format!(
                    "{path}: delivery {new:.6} dropped below baseline {base:.6}"
                ));
            }
        }
        return;
    }
    compare(path, baseline, fresh, cfg, report);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "schema": "x/v1", "ok": true, "none": null,
      "rows": [
        {"scenario": "a", "nodes": 100, "wall_secs": 1.0, "delivery_rate": 1.0},
        {"scenario": "b", "nodes": 100, "wall_secs": 2.0, "delivery_rate": 0.99}
      ],
      "acceptance": {"loss_1pct_delivery": 1.0}
    }"#;

    #[test]
    fn parses_artifacts() {
        let v = parse(SAMPLE).unwrap();
        assert_eq!(v.get("schema"), Some(&Json::Str("x/v1".into())));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        let rows = match v.get("rows") {
            Some(Json::Arr(items)) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("wall_secs").unwrap().as_num(), Some(1.0));
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert_eq!(
            parse("[1, -2.5e1]").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(-25.0)])
        );
        assert_eq!(parse(r#""a\nb\"c""#).unwrap(), Json::Str("a\nb\"c".into()));
    }

    fn gate(baseline: &str, fresh: &str) -> GateReport {
        let mut report = GateReport::default();
        compare(
            "t",
            &parse(baseline).unwrap(),
            &parse(fresh).unwrap(),
            &GateConfig::default(),
            &mut report,
        );
        report
    }

    #[test]
    fn identical_artifacts_pass() {
        let r = gate(SAMPLE, SAMPLE);
        assert!(r.passed(), "{}", r.render());
        // 2 wall + 2 delivery + 1 acceptance.
        assert_eq!(r.checks, 5);
    }

    #[test]
    fn wall_clock_regression_fails_beyond_tolerance() {
        let fresh = SAMPLE.replace(r#""wall_secs": 1.0"#, r#""wall_secs": 1.15"#);
        assert!(gate(SAMPLE, &fresh).passed(), "+15% is inside the 20% band");
        let fresh = SAMPLE.replace(r#""wall_secs": 1.0"#, r#""wall_secs": 1.3"#);
        let r = gate(SAMPLE, &fresh);
        assert!(!r.passed());
        assert!(r.violations[0].contains("wall-clock"), "{}", r.render());
    }

    #[test]
    fn any_delivery_drop_fails() {
        let fresh = SAMPLE.replace(r#""delivery_rate": 0.99"#, r#""delivery_rate": 0.989"#);
        let r = gate(SAMPLE, &fresh);
        assert!(!r.passed());
        assert!(r.violations[0].contains("delivery"));
        // Improvements pass.
        let fresh = SAMPLE.replace(r#""delivery_rate": 0.99"#, r#""delivery_rate": 1.0"#);
        assert!(gate(SAMPLE, &fresh).passed());
    }

    #[test]
    fn footprint_columns_are_recorded_not_gated() {
        // `bytes_per_node` moves whenever the accounting or a layout does
        // (down, when the FIFO link clocks stopped outliving their
        // messages); the trajectory records it, the gate must not trip on
        // it in either direction.
        let row = |bytes: u32| {
            format!(
                r#"{{"rows": [{{"scenario": "a", "nodes": 100, "wall_secs": 2.0,
                    "delivery_rate": 1.0, "bytes_per_node": {bytes}}}]}}"#
            )
        };
        for fresh in [4447, 6200] {
            let r = gate(&row(5127), &row(fresh));
            assert!(r.passed(), "{}", r.render());
            assert_eq!(r.checks, 2, "wall + delivery only");
        }
    }

    #[test]
    fn rows_match_by_identity_not_index() {
        // Fresh artifact has the rows reversed plus an extra row; the "a"
        // row regressed its wall-clock.
        let fresh = r#"{
          "rows": [
            {"scenario": "c", "nodes": 900, "wall_secs": 9.0, "delivery_rate": 0.5},
            {"scenario": "b", "nodes": 100, "wall_secs": 2.0, "delivery_rate": 0.99},
            {"scenario": "a", "nodes": 100, "wall_secs": 5.0, "delivery_rate": 1.0}
          ],
          "acceptance": {"loss_1pct_delivery": 1.0}
        }"#;
        let r = gate(SAMPLE, fresh);
        assert_eq!(r.violations.len(), 1, "{}", r.render());
        assert!(r.violations[0].contains("[scenario=a;nodes=100;]"));
        // The baseline-only fields are reported, not failed.
        assert!(r.skipped.iter().any(|s| s.contains("schema")));
    }

    #[test]
    fn smoke_rows_gate_against_full_baseline() {
        // Baseline has a 100k row the smoke artifact does not produce.
        let baseline = r#"{"rows": [
          {"scenario": "a", "nodes": 10000, "wall_secs": 4.0, "delivery_rate": 1.0},
          {"scenario": "a", "nodes": 100000, "wall_secs": 60.0, "delivery_rate": 1.0}
        ]}"#;
        let fresh = r#"{"rows": [
          {"scenario": "a", "nodes": 10000, "wall_secs": 4.1, "delivery_rate": 1.0}
        ]}"#;
        let r = gate(baseline, fresh);
        assert!(r.passed(), "{}", r.render());
        assert!(r.skipped.iter().any(|s| s.contains("nodes=100000")));
    }

    #[test]
    fn acceptance_blocks_of_different_rows_are_not_gated() {
        // A full-run artifact anchors its acceptance to the 100k row; the
        // committed smoke baseline anchors to 10k. Wildly different
        // wall-clock, but not a regression — different cells.
        let baseline =
            r#"{"acceptance": {"no_fault_nodes": 10000, "delivery_rate": 1.0, "wall_secs": 3.2}}"#;
        let fresh = r#"{"acceptance": {"no_fault_nodes": 100000, "delivery_rate": 1.0, "wall_secs": 76.0}}"#;
        let r = gate(baseline, fresh);
        assert!(r.passed(), "{}", r.render());
        assert!(r.skipped.iter().any(|s| s.contains("different cells")));
        // Same row: gated as usual.
        let fresh_same =
            r#"{"acceptance": {"no_fault_nodes": 10000, "delivery_rate": 0.9, "wall_secs": 3.2}}"#;
        assert!(!gate(baseline, fresh_same).passed());
    }

    #[test]
    fn sub_second_wall_cells_are_noise_not_gate() {
        let baseline =
            r#"{"rows": [{"scenario": "a", "nodes": 10, "wall_secs": 0.4, "delivery_rate": 1.0}]}"#;
        let fresh =
            r#"{"rows": [{"scenario": "a", "nodes": 10, "wall_secs": 0.9, "delivery_rate": 1.0}]}"#;
        let r = gate(baseline, fresh);
        assert!(r.passed(), "{}", r.render());
        assert!(r.skipped.iter().any(|s| s.contains("noise floor")));
    }

    #[test]
    fn env_tolerance_override() {
        let cfg = GateConfig::default();
        assert!((cfg.wall_tolerance - 0.20).abs() < 1e-12);
        assert!((GateConfig::from_env().wall_tolerance - 0.20).abs() < 1e-12);
    }

    /// A healthy two-scenario soak artifact: live tracks sim closely, no
    /// invariant violations.
    const SOAK: &str = r#"{
      "schema": "brisa-bench-soak/v1",
      "scenarios": [
        {"scenario": "steady_loss_1pct", "nodes": 16, "invariant_violations": 0,
         "live": {"survivor_delivery_rate": 0.998, "survivor_completeness": 0.95,
                  "latency_p50_ms": 4.0},
         "sim": {"delivery_rate": 1.0, "completeness": 1.0, "latency_p50_ms": 60.0}},
        {"scenario": "kill_restart", "nodes": 16, "invariant_violations": 0,
         "live": {"survivor_delivery_rate": 1.0, "survivor_completeness": 1.0,
                  "latency_p50_ms": 3.5},
         "sim": {"delivery_rate": 1.0, "completeness": 1.0, "latency_p50_ms": 55.0}}
      ]
    }"#;

    fn divergence(artifact: &str, band: &DivergenceBand) -> GateReport {
        let mut report = GateReport::default();
        divergence_check(&parse(artifact).unwrap(), band, &mut report);
        report
    }

    #[test]
    fn healthy_soak_passes_the_divergence_gate() {
        let r = divergence(SOAK, &DivergenceBand::default());
        assert!(r.passed(), "{}", r.render());
        // 2 scenarios x (invariants + delivery + completeness + latency).
        assert_eq!(r.checks, 8);
    }

    #[test]
    fn dropped_delivery_trace_fails_the_gate() {
        // Live survivor delivery collapsed while sim predicts full delivery
        // — the exact signature of the runtime dropping messages.
        let broken = SOAK.replace(
            r#""survivor_delivery_rate": 0.998"#,
            r#""survivor_delivery_rate": 0.80"#,
        );
        let r = divergence(&broken, &DivergenceBand::default());
        assert!(!r.passed());
        assert!(
            r.violations[0].contains("diverges from sim"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn deliberately_broken_band_fails_even_a_healthy_trace() {
        // Zero-width delivery band: the healthy artifact's 0.002 drift must
        // now trip the gate — proof the band is actually load-bearing.
        let band = DivergenceBand {
            delivery_abs: 0.0,
            ..DivergenceBand::default()
        };
        let r = divergence(SOAK, &band);
        assert!(!r.passed(), "{}", r.render());
    }

    #[test]
    fn live_exceeding_sim_prediction_is_also_divergence() {
        // Sim predicts partition damage; live sailed through untouched —
        // the fault shim is not applying the modelled adversity.
        let inert_shim = SOAK.replace(r#""delivery_rate": 1.0"#, r#""delivery_rate": 0.85"#);
        let r = divergence(&inert_shim, &DivergenceBand::default());
        assert!(!r.passed(), "{}", r.render());
    }

    #[test]
    fn invariant_violations_fail_the_gate() {
        let broken = SOAK.replacen(
            r#""invariant_violations": 0"#,
            r#""invariant_violations": 3"#,
            1,
        );
        let r = divergence(&broken, &DivergenceBand::default());
        assert!(!r.passed());
        assert!(r.violations[0].contains("invariant"), "{}", r.render());
    }

    #[test]
    fn stalled_live_latency_fails_the_gate() {
        let stalled = SOAK.replace(r#""latency_p50_ms": 4.0"#, r#""latency_p50_ms": 2000.0"#);
        let r = divergence(&stalled, &DivergenceBand::default());
        assert!(!r.passed());
        assert!(r.violations[0].contains("latency"), "{}", r.render());
    }

    #[test]
    fn missing_gated_fields_fail_loudly() {
        let gutted = SOAK.replace(r#""survivor_delivery_rate": 0.998, "#, "");
        let r = divergence(&gutted, &DivergenceBand::default());
        assert!(!r.passed());
        assert!(r.violations[0].contains("missing"), "{}", r.render());

        let r = divergence(r#"{"schema": "x/v1"}"#, &DivergenceBand::default());
        assert!(!r.passed());
        let r = divergence(
            r#"{"schema": "brisa-bench-soak/v1", "scenarios": []}"#,
            &DivergenceBand::default(),
        );
        assert!(!r.passed());
    }
}
