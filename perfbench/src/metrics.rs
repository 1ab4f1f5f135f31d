//! Named metrics with units, and the shared timing helpers.

use std::time::Instant;

use fingers_server::Json;

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends (or replaces) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// `{name: {"value": v, "unit": u}}` for the metrics in `names`
    /// (every metric when `names` is `None`); `Err` names a missing one.
    pub fn to_json(&self, names: Option<&[&str]>) -> Result<Json, String> {
        let pick: Vec<&(String, f64, &'static str)> = match names {
            None => self.0.iter().collect(),
            Some(names) => names
                .iter()
                .map(|n| {
                    self.0
                        .iter()
                        .find(|(m, _, _)| m == n)
                        .ok_or_else(|| format!("metric {n} was not measured"))
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(Json::Obj(
            pick.into_iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj([("value", Json::F64(*v)), ("unit", Json::str(*u))]),
                    )
                })
                .collect(),
        ))
    }
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_replaces_and_selects() {
        let mut m = Metrics::default();
        m.set("qps", 1.0, "1/s");
        m.set("setup_s", 2.0, "s");
        m.set("qps", 3.0, "1/s");
        assert_eq!(m.iter().count(), 2);
        assert_eq!(m.iter().next(), Some(&("qps".to_owned(), 3.0, "1/s")));
        let j = m.to_json(Some(&["setup_s"])).expect("present");
        assert_eq!(j.render(), r#"{"setup_s":{"value":2,"unit":"s"}}"#);
        assert!(m.to_json(Some(&["missing"])).is_err());
    }
}
