//! The benchmark's contract (`BENCHMARK.json`, compiled in) and the bound
//! check `fedbench compare` applies between two result files.

use crate::json::{self, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    /// The `BENCHMARK.json` this binary was built beside.
    pub fn embedded() -> Contract {
        Contract::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid")
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = json::parse(text)?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .map(Value::items)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k).and_then(Value::as_str).ok_or(format!("{key}: missing {k}"))
                    };
                    Ok(MetricDef {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        lower_is_better: field("better")? == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: doc.get("run_seconds").and_then(Value::as_f64).ok_or("run_seconds")?,
            workloads: doc
                .get("workloads")
                .map(Value::items)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(String::from))
                .collect(),
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    pub fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map_or("", |m| m.unit.as_str())
    }
}

/// By what share of `base` the value `new` is worse (negative: better).
pub fn worse_by(def: &MetricDef, base: f64, new: f64) -> f64 {
    let delta = if def.lower_is_better { new - base } else { base - new };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

/// Compares result file `new` against `base` (both as written by
/// `fedbench run --out`). Returns the report and whether every end-to-end
/// metric stayed within its bound, no answer check failed that passed
/// before, and no workload or metric went missing.
pub fn compare(contract: &Contract, base: &Value, new: &Value) -> (String, bool) {
    let mut report = String::new();
    let mut ok = true;
    let mut breach = |report: &mut String, line: String| {
        report.push_str(&format!("BREACH  {line}\n"));
        ok = false;
    };
    for workload in &contract.workloads {
        let side = |doc: &Value| doc.get("results").and_then(|r| r.get(workload)).cloned();
        let (Some(a), Some(b)) = (side(base), side(new)) else {
            breach(&mut report, format!("{workload}: missing from a result file"));
            continue;
        };
        let failed = |r: &Value| r.get("failed").and_then(Value::as_f64).unwrap_or(f64::INFINITY);
        if failed(&b) > failed(&a) {
            breach(
                &mut report,
                format!("{workload}: failed operations rose from {} to {}", failed(&a), failed(&b)),
            );
        }
        for def in &contract.end_to_end {
            let value = |r: &Value| {
                r.get("metrics")
                    .and_then(|m| m.get(&def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (value(&a), value(&b)) else {
                breach(&mut report, format!("{workload}.{}: missing", def.name));
                continue;
            };
            let worse = worse_by(def, va, vb);
            let bound = def.bound.unwrap_or(0.0);
            let line = format!(
                "{workload}.{}: {va} -> {vb} {} ({:+.2} % worse, bound {:.0} %)",
                def.name,
                def.unit,
                worse * 100.0,
                bound * 100.0
            );
            if worse > bound {
                breach(&mut report, line);
            } else {
                report.push_str(&format!("ok      {line}\n"));
            }
        }
    }
    (report, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{
        "run_seconds": 20,
        "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [
            {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}
        ],
        "per_layer": [{"name": "layer.count", "unit": "count", "better": "lower"}]
    }"#;

    fn results(lat: f64, qps: f64, failed: u64) -> Value {
        json::parse(&format!(
            r#"{{"results": {{"w": {{"correct": true, "attempted": 9, "failed": {failed},
            "metrics": {{"lat": {{"value": {lat}, "unit": "us"}},
                         "qps": {{"value": {qps}, "unit": "1/s"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn worse_by_follows_the_direction() {
        let c = Contract::parse(CONTRACT).unwrap();
        let (lat, qps) = (&c.end_to_end[0], &c.end_to_end[1]);
        assert!((worse_by(lat, 100.0, 105.0) - 0.05).abs() < 1e-12);
        assert!((worse_by(lat, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(qps, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(qps, 100.0, 120.0) < 0.0);
        assert_eq!(worse_by(lat, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(lat, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn bounds_are_applied_per_metric() {
        let c = Contract::parse(CONTRACT).unwrap();
        let base = results(100.0, 1000.0, 0);
        assert!(compare(&c, &base, &results(109.0, 950.0, 0)).1, "within both bounds");
        assert!(compare(&c, &base, &results(50.0, 2000.0, 0)).1, "better is never a breach");
        let (report, ok) = compare(&c, &base, &results(111.0, 1000.0, 0));
        assert!(!ok && report.contains("BREACH  w.lat"), "{report}");
        let (report, ok) = compare(&c, &base, &results(100.0, 890.0, 0));
        assert!(!ok && report.contains("BREACH  w.qps"), "{report}");
    }

    #[test]
    fn failures_and_gaps_are_breaches() {
        let c = Contract::parse(CONTRACT).unwrap();
        let base = results(100.0, 1000.0, 0);
        assert!(!compare(&c, &base, &results(100.0, 1000.0, 1)).1, "failed rose");
        assert!(!compare(&c, &base, &json::parse(r#"{"results": {}}"#).unwrap()).1);
        let gap = json::parse(r#"{"results": {"w": {"failed": 0, "metrics": {}}}}"#).unwrap();
        assert!(!compare(&c, &base, &gap).1, "metric missing");
    }

    #[test]
    fn contract_lookup() {
        let c = Contract::parse(CONTRACT).unwrap();
        assert_eq!(c.run_seconds, 20.0);
        assert_eq!(c.workloads, ["w"]);
        assert_eq!(c.unit("lat"), "us");
        assert_eq!(c.unit("layer.count"), "count");
        assert_eq!(c.per_layer[0].bound, None);
    }
}
