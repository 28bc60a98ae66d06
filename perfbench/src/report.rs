//! The result schema: the one JSON object a run prints as its last line.
//!
//! `{"correct": true, "attempted": 120, "failed": 0, "metrics":
//! {"step_ms.p50": {"value": 81.2, "unit": "ms"}, ...}}`

use serde::Value;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// A run's verdict and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Timed training steps attempted.
    pub attempted: u64,
    /// Steps that returned an error or a non-finite loss.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Compact single-line JSON.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::String(m.unit.clone())),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        let v = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&v).expect("a value tree always renders")
    }

    /// Parses [`RunResult::to_json`] output, rejecting any other shape
    /// (extra or missing keys, non-numeric values, `attempted < 1`).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let top = object(&v, &["correct", "attempted", "failed", "metrics"])?;
        let Value::Bool(correct) = *top[0] else {
            return Err("`correct` is not a boolean".into());
        };
        let attempted = count(top[1]).ok_or("`attempted` is not a whole number")?;
        let failed = count(top[2]).ok_or("`failed` is not a whole number")?;
        if attempted < 1 || failed > attempted {
            return Err(format!(
                "bad counts: attempted {attempted}, failed {failed}"
            ));
        }
        let Value::Object(entries) = top[3] else {
            return Err("`metrics` is not an object".into());
        };
        let metrics = entries
            .iter()
            .map(|(name, body)| {
                let f = object(body, &["value", "unit"])?;
                let value = match f[0] {
                    Value::Float(x) => *x,
                    Value::Int(i) => *i as f64,
                    Value::UInt(u) => *u as f64,
                    _ => return Err(format!("metric `{name}` has no numeric value")),
                };
                let unit = f[1]
                    .as_str()
                    .ok_or(format!("metric `{name}` has no unit"))?;
                Ok(Metric::new(name, value, unit))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// The fields of an object with exactly `keys`, in `keys` order.
fn object<'v>(v: &'v Value, keys: &[&str]) -> Result<Vec<&'v Value>, String> {
    let entries = v.as_object().ok_or("expected an object")?;
    if entries.len() != keys.len() {
        return Err(format!("expected exactly the keys {keys:?}"));
    }
    keys.iter()
        .map(|k| {
            entries
                .iter()
                .find_map(|(name, val)| (name == k).then_some(val))
                .ok_or(format!("missing key `{k}`"))
        })
        .collect()
}

fn count(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}
