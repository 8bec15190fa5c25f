//! Run records, summary statistics and the output formats.

use std::fmt::Write as _;

/// One named measurement. `None` means unmeasured (printed as `null`).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: value.is_finite().then_some(value),
    }
}

/// Operations attempted and the reasons of those that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        eprintln!("FAILED: {what}");
        self.failures.push(what);
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub lanes: usize,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

/// Median; NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match ones computed from the run records in
/// Python. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v: Vec<f64> = values.to_vec();
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// A number as JSON: full precision, `null` when unmeasured.
pub fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".into(),
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_object<'a>(entries: impl Iterator<Item = (String, &'a Metric)>) -> String {
    let body: Vec<String> = entries
        .map(|(key, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&key),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl RunReport {
    /// Human-readable rows: workload, metric, value, unit.
    pub fn print_table(&self) {
        let pass = if self.traced { "traced" } else { "untraced" };
        println!(
            "# {} ({pass}, seed {}, {} lanes): {} attempted, {} failed",
            self.workload,
            self.seed,
            self.lanes,
            self.tally.attempted,
            self.tally.failures.len()
        );
        for m in &self.metrics {
            let value = m.value.map_or("null".to_string(), |v| format!("{v:.6}"));
            println!(
                "  {:<18} {:<32} {:>16} {}",
                self.workload, m.name, value, m.unit
            );
        }
    }

    /// One JSON object per run, the record `compare` and `summary` read.
    pub fn json_record(&self) -> String {
        let failures: Vec<String> = self.tally.failures.iter().map(|f| json_string(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"lanes\": {}, \"host_lanes\": {}, \
             \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}}}",
            json_string(self.workload),
            self.seed,
            u8::from(self.traced),
            self.lanes,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            self.tally.attempted,
            self.tally.failures.len(),
            failures.join(", "),
            metrics_object(self.metrics.iter().map(|m| (m.name.to_string(), m)))
        )
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
/// Metric keys carry a `workload/` prefix when several workloads ran.
pub fn result_line(reports: &[RunReport]) -> String {
    let attempted: u64 = reports.iter().map(|r| r.tally.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.tally.failures.len()).sum();
    let first = reports.first().map(|r| r.workload);
    let single = reports.iter().all(|r| Some(r.workload) == first);
    let metrics = metrics_object(reports.iter().flat_map(|r| {
        r.metrics.iter().map(move |m| {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}/{}", r.workload, m.name)
            };
            (key, m)
        })
    }));
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
