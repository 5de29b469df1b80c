//! Metric records, the subtraction arithmetic behind per-layer costs, and
//! the result line.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, e.g. `s`, `ns/access` or `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) read as 0, and the
    /// empty sum's -0 reads as 0.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value + 0.0 } else { 0.0 },
        }
    }
}

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Layer costs by subtraction. Each layer is the difference between a run
/// that includes it and one that does not; timing noise can make such a
/// difference negative. A negative difference is reported as 0 and
/// recorded here, so the result shows how many layers were clamped.
#[derive(Debug, Default)]
pub struct Ladder {
    clamped: Vec<String>,
}

impl Ladder {
    /// `with - without`, clamped at 0; a clamp is recorded and logged.
    pub fn diff(&mut self, layer: &str, with: f64, without: f64) -> f64 {
        let d = with - without;
        if d >= 0.0 {
            return d;
        }
        eprintln!("perfbench: layer {layer} measured {d:.6}s (< 0); reported as 0 (noise)");
        self.clamped.push(layer.to_string());
        0.0
    }

    /// The layers clamped so far.
    pub fn clamped(&self) -> &[String] {
        &self.clamped
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Geometric mean of the positive values; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 0 => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        n => v[n / 2],
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The `(name, unit)` of every metric `BENCHMARK.json` declares under
/// `key`. A small scanner, not a JSON parser: it relies on the file's
/// shape, where each metric is a flat object inside the key's list.
pub fn declared(text: &str, key: &str) -> Result<Vec<(String, String)>, String> {
    let missing = || format!("BENCHMARK.json has no {key} list");
    let start = text.find(&format!("\"{key}\"")).ok_or_else(missing)?;
    let open = start + text[start..].find('[').ok_or_else(missing)?;
    let close = open + text[open..].find(']').ok_or_else(missing)?;
    text[open + 1..close]
        .split('}')
        .filter(|object| object.contains('{'))
        .map(
            |object| match (field(object, "name"), field(object, "unit")) {
                (Some(name), Some(unit)) => Ok((name, unit)),
                _ => Err(format!("a {key} entry lacks a name or unit")),
            },
        )
        .collect()
}

/// The string value of `"key"` in a flat JSON object's text.
fn field(object: &str, key: &str) -> Option<String> {
    let after = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
    let value = after
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    Some(value[..value.find('"')?].to_string())
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_grammar() {
        for good in [
            "wall_s",
            "sim.policy_ns_per_decision.ship-pc",
            "0x",
            "a.b-c_d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", "ns%", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn ladder_never_reports_a_negative_layer_and_flags_clamps() {
        let mut ladder = Ladder::default();
        assert_eq!(ladder.diff("l1", 3.0, 1.0), 2.0);
        assert!(ladder.clamped().is_empty());
        assert_eq!(ladder.diff("l2", 1.0, 1.5), 0.0);
        assert_eq!(ladder.diff("llc", 0.0, 0.0), 0.0);
        assert_eq!(ladder.clamped(), ["l2".to_string()]);
    }

    #[test]
    fn statistics_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 98), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50), 2.0);
        assert_eq!(percentile(&[4.0, 3.0, 2.0, 1.0], 0), 1.0);
        assert!((geomean(&[1.0, 4.0, 0.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(Metric::new("x", "s", f64::NAN).value, 0.0);
    }

    #[test]
    fn declared_metrics_are_scanned_per_object() {
        let text = r#"{"end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"unit": "MiB", "name": "peak_rss_mib"}
          ],
          "per_layer": [{"name": "x", "unit": "count", "better": "lower"}]}"#;
        assert_eq!(
            declared(text, "end_to_end").unwrap(),
            [
                ("wall_s".to_string(), "s".to_string()),
                ("peak_rss_mib".to_string(), "MiB".to_string())
            ]
        );
        assert_eq!(declared(text, "per_layer").unwrap().len(), 1);
        assert!(declared(text, "workloads").is_err());
        assert!(declared(r#"{"per_layer": [{"name": "x"}]}"#, "per_layer").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(4, 0, &[Metric::new("wall_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(4, 1, &[]).starts_with("{\"correct\": false"));
    }
}
