//! Named metrics and the one-line JSON result.

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// The metrics in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`. Values print with every
/// digit Rust's shortest round-trip formatting gives. Fails on a
/// non-finite value, which JSON cannot carry.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut cells = Vec::with_capacity(metrics.entries.len());
    for (name, value, unit) in &metrics.entries {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        // Debug formatting is the shortest round-trip form (`1.0`,
        // `9.5e-10`), which JSON accepts as is.
        cells.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        cells.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("latency_s_p50", 0.012345678901234, "s");
        m.push("rel_residual_max", 9.5e-10, "ratio");
        let j = result_json(true, 120, 0, &m).unwrap();
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": {\"latency_s_p50\": {\"value\": 0.012345678901234, \"unit\": \"s\"}, \"rel_residual_max\": {\"value\": 9.5e-10, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut m = Metrics::default();
        m.push("x", f64::NAN, "s");
        assert!(result_json(true, 1, 0, &m).is_err());
    }
}
