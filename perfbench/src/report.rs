//! What one run reports: metrics by name and unit, operation counts,
//! correctness checks, and the final one-line JSON result.

use std::fmt::Write as _;

/// A metric a workload promises to emit.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
}

/// Shorthand for building declaration tables.
pub const fn decl(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` of `sorted` (ascending), or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    supported_rank(sorted.len(), q).map(|rank| sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `q` among `n` samples, when at
/// least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
fn supported_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The small subtraction keeps an exact product such as 0.99 × 1000 from
    // rounding up through `ceil`.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL_SAMPLES).then_some(rank)
}

/// The fewest samples that support percentile `q` under the
/// [`MIN_TAIL_SAMPLES`] rule (1000 for p99).
pub fn samples_for(q: f64) -> usize {
    (1..).find(|&n| supported_rank(n, q).is_some()).unwrap_or(usize::MAX)
}

/// Median of unsorted samples (midpoint for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: `[A-Za-z0-9_/%.-]+`, at most 16 characters.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Accumulates everything one run reports.
pub struct Report {
    /// Metrics this run must emit.
    declared: &'static [Decl],
    /// Metrics of the other mode (traced or untraced): accepted and dropped.
    inactive: &'static [Decl],
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts behind each timing metric.
    samples: Vec<(&'static str, usize)>,
    /// Percentiles withheld for too few samples.
    withheld: Vec<&'static str>,
    /// `(check, passed, detail)`.
    checks: Vec<(String, bool, String)>,
    /// Descriptive `(key, value)` pairs: inputs, host, settings.
    notes: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    /// The first few failure messages, for the run record.
    failures: Vec<String>,
}

impl Report {
    /// A report that must emit exactly the metrics in `declared`; values
    /// set for metrics in `inactive` are dropped.
    pub fn new(declared: &'static [Decl], inactive: &'static [Decl]) -> Self {
        Self {
            declared,
            inactive,
            metrics: Vec::new(),
            samples: Vec::new(),
            withheld: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records a metric value under its declared unit. A name that is not
    /// declared, or a value that is not finite, fails the run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.is_inactive(name) {
            return;
        }
        let Some(d) = self.declared.iter().find(|d| d.name == name) else {
            self.check(format!("metric {name} is declared"), false, String::new());
            return;
        };
        if !value.is_finite() {
            self.check(format!("metric {name} is finite"), false, format!("{value}"));
            return;
        }
        if !valid_name(d.name) || !valid_unit(d.unit) {
            self.check(format!("metric {name} [{}] is well-formed", d.unit), false, String::new());
            return;
        }
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, d.unit));
    }

    /// Records percentile `q` of `samples` as `name` (scaled by `scale`),
    /// with its sample count. When too few samples lie beyond the
    /// percentile the metric is withheld and the run fails.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], q: f64, scale: f64) {
        if self.is_inactive(name) {
            return;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.samples.push((name, sorted.len()));
        match percentile(&sorted, q) {
            Some(v) => self.set(name, v * scale),
            None => self.withhold(name, q, sorted.len()),
        }
    }

    /// Withholds percentile `q` of `name`: only `n` samples stand behind it.
    pub fn withhold(&mut self, name: &'static str, q: f64, n: usize) {
        self.withheld.push(name);
        self.check(
            format!("{name} has {MIN_TAIL_SAMPLES} samples beyond p{}", q * 100.0),
            false,
            format!("{n} samples"),
        );
    }

    /// Percentiles withheld for too few samples.
    pub fn withheld(&self) -> &[&'static str] {
        &self.withheld
    }

    /// Failed checks other than withheld percentiles.
    pub fn failed_checks(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|(name, ok, _)| !ok && !self.withheld.iter().any(|w| name.starts_with(w)))
            .map(|(name, _, _)| name.as_str())
            .collect()
    }

    /// Records a percentile estimated elsewhere (a server histogram) from
    /// `count` observations, under the same sample rule as
    /// [`set_percentile`](Self::set_percentile).
    pub fn set_estimated_percentile(
        &mut self,
        name: &'static str,
        count: usize,
        q: f64,
        value: f64,
    ) {
        if self.is_inactive(name) {
            return;
        }
        self.samples.push((name, count));
        if supported_rank(count, q).is_some() {
            self.set(name, value);
        } else {
            self.withhold(name, q, count);
        }
    }

    fn is_inactive(&self, name: &str) -> bool {
        !self.declared.iter().any(|d| d.name == name)
            && self.inactive.iter().any(|d| d.name == name)
    }

    /// Records `setup_s` as the median of repeated set-ups, noting each.
    pub fn set_setup(&mut self, reps: &[f64]) {
        self.note("setup_reps_s", join(reps, |s| format!("{s:.3}")));
        self.samples("setup_s", reps.len());
        if let Some(m) = median(reps) {
            self.set("setup_s", m);
        }
    }

    /// Records a count of samples that stands behind a derived metric.
    pub fn samples(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n));
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    /// Records a descriptive note (host, input, setting).
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.push((key.into(), value.into()));
    }

    /// Counts one attempted operation and, if it failed, the failure.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts operations that were attempted and succeeded elsewhere (for
    /// example on client threads).
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one attempted operation that failed.
    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(message);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Completed operations over attempted ones (1 when nothing was tried).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// Declared metrics that were not emitted.
    pub fn missing(&self) -> Vec<&'static str> {
        self.declared
            .iter()
            .filter(|d| !self.metrics.iter().any(|(n, _, _)| *n == d.name))
            .map(|d| d.name)
            .collect()
    }

    /// True when every check passed and every declared metric was emitted.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok) && self.missing().is_empty()
    }

    /// The value of an emitted metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| *n == name).map(|&(_, v, _)| v)
    }

    /// The one-line result the benchmark prints last.
    pub fn result_line(&self) -> String {
        let metrics = join(&self.metrics, |(name, value, unit)| {
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", quote(name), quote(unit))
        });
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// Human-readable lines printed before the result line.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (k, v) in &self.notes {
            lines.push(format!("# {k}: {v}"));
        }
        for (name, value, unit) in &self.metrics {
            let n = self.samples.iter().find(|(s, _)| s == name).map(|&(_, n)| n);
            let n = n.map(|n| format!("  (n={n})")).unwrap_or_default();
            lines.push(format!("{name:<34} {value:>14.6} {unit}{n}"));
        }
        for (name, ok, detail) in &self.checks {
            lines.push(format!("check {}: {name} {detail}", if *ok { "ok  " } else { "FAIL" }));
        }
        for m in self.missing() {
            lines.push(format!("check FAIL: metric {m} emitted"));
        }
        for f in &self.failures {
            lines.push(format!("failed op: {f}"));
        }
        lines
    }

    /// The run record as a JSON object (without spans).
    pub fn record_json(&self) -> String {
        let notes = join(&self.notes, |(k, v)| format!("{}: {}", quote(k), quote(v)));
        let samples = join(&self.samples, |(k, n)| format!("{}: {n}", quote(k)));
        let checks = join(&self.checks, |(name, ok, detail)| {
            format!(
                "{{\"check\": {}, \"passed\": {ok}, \"detail\": {}}}",
                quote(name),
                quote(detail)
            )
        });
        let failures = join(&self.failures, |f| quote(f));
        format!(
            "{{\"notes\": {{{notes}}}, \"samples\": {{{samples}}}, \"checks\": [{checks}], \"failures\": [{failures}], \"result\": {}}}",
            self.result_line()
        )
    }
}

fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(", ")
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(percentile(&samples[..999], 0.99), None);
        // p50 needs 20 samples.
        assert_eq!(percentile(&samples[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.50), None);
        assert_eq!(samples_for(0.99), 1000);
        assert_eq!(samples_for(0.50), 20);
    }

    #[test]
    fn withheld_percentile_fails_the_run() {
        const D: &[Decl] = &[decl("lat_p99_ms", "ms")];
        let mut r = Report::new(D, &[]);
        r.set_percentile("lat_p99_ms", &[1.0; 500], 0.99, 1e3);
        assert!(!r.correct());
        assert_eq!(r.missing(), vec!["lat_p99_ms"]);
        let mut r = Report::new(D, &[]);
        r.set_percentile("lat_p99_ms", &[0.002; 1000], 0.99, 1e3);
        assert!(r.correct());
        assert_eq!(r.value("lat_p99_ms"), Some(2.0));
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "get_p50_ms", "store.cache.hit_ratio", "par-x", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "a b", "a/b", "ε", "x:y", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "MB/s", "%", "count", "req/s", "x"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "×", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn undeclared_or_non_finite_metrics_fail() {
        const D: &[Decl] = &[decl("a", "s")];
        let mut r = Report::new(D, &[]);
        r.set("b", 1.0);
        r.set("a", f64::NAN);
        assert!(!r.correct());
        // A metric of the other mode is accepted and dropped.
        const OTHER: &[Decl] = &[decl("b", "s")];
        let mut r = Report::new(D, OTHER);
        r.set("a", 1.0);
        r.set("b", 1.0);
        r.set_percentile("b", &[1.0], 0.99, 1.0);
        assert!(r.correct());
        assert_eq!(r.value("b"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        const D: &[Decl] = &[decl("setup_s", "s")];
        let mut r = Report::new(D, &[]);
        r.op::<(), &str>("x", Ok(()));
        r.set("setup_s", 0.8127);
        let line = r.result_line();
        let json = mdz_bench::json::Json::parse(&line).expect("valid JSON");
        let mdz_bench::json::Json::Obj(pairs) = &json else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = json.get("metrics").and_then(|m| m.get("setup_s")).expect("metric");
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(0.8127));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("s"));
        assert!(!line.contains('\n'));
    }
}
