//! Outcome accounting: every attempted query ends ok, refused (the daemon
//! answered with a non-`ok` status), failed (engine or transport error),
//! or wrong (a count that differs from the reference). `error_rate` is the
//! share of attempts that did not end ok.

use fingers_server::Json;

/// How one attempted query ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Counts equal the reference.
    Ok,
    /// A non-`ok` response (overloaded, cancelled, any error kind).
    Refused(String),
    /// The engine or the transport failed.
    Failed(String),
    /// Counts differ from the reference.
    Wrong {
        /// Reference counts.
        expected: Vec<u64>,
        /// Counts the system returned.
        got: Vec<u64>,
    },
}

/// Classifies a daemon response line against the reference counts.
pub fn classify_response(line: &str, expected: &[u64]) -> (Outcome, Option<f64>) {
    let Ok(v) = Json::parse(line) else {
        return (
            Outcome::Failed(format!("unparsable response {line:?}")),
            None,
        );
    };
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        let kind = v
            .get("kind")
            .or_else(|| v.get("status"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        return (Outcome::Refused(kind.to_owned()), None);
    }
    let wall_ms = match v.get("wall_ms") {
        Some(Json::F64(f)) => Some(*f),
        Some(Json::U64(n)) => Some(*n as f64),
        _ => None,
    };
    let got: Vec<u64> = v
        .get("counts")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default();
    (classify_counts(expected, got), wall_ms)
}

/// `Ok` when `got` equals `expected`, else `Wrong`.
pub fn classify_counts(expected: &[u64], got: Vec<u64>) -> Outcome {
    if got == expected {
        Outcome::Ok
    } else {
        Outcome::Wrong {
            expected: expected.to_vec(),
            got,
        }
    }
}

/// Running totals over a workload's attempts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that ended ok.
    pub ok: u64,
    /// Non-`ok` daemon responses.
    pub refused: u64,
    /// Engine or transport failures.
    pub failed: u64,
    /// Wrong counts.
    pub wrong: u64,
    /// The first few problems, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one outcome; `what` names the query for the notes.
    pub fn record(&mut self, what: &str, outcome: &Outcome) {
        self.attempted += 1;
        let note = match outcome {
            Outcome::Ok => {
                self.ok += 1;
                return;
            }
            Outcome::Refused(kind) => {
                self.refused += 1;
                format!("{what}: refused ({kind})")
            }
            Outcome::Failed(e) => {
                self.failed += 1;
                format!("{what}: failed ({e})")
            }
            Outcome::Wrong { expected, got } => {
                self.wrong += 1;
                format!("{what}: wrong count {got:?}, reference {expected:?}")
            }
        };
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Adds `other`'s totals to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.refused += other.refused;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }

    /// Attempts that did not end ok.
    pub fn not_ok(&self) -> u64 {
        self.refused + self.failed + self.wrong
    }

    /// Share of attempts that did not end ok (0 when nothing was tried).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.not_ok() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rate_counts_refused_and_wrong() {
        let mut t = Tally::default();
        let ok = r#"{"status":"ok","op":"count","counts":[5,7],"total":12,"wall_ms":1.5}"#;
        let (o, wall) = classify_response(ok, &[5, 7]);
        assert_eq!(o, Outcome::Ok);
        assert_eq!(wall, Some(1.5));
        t.record("a", &o);
        let overloaded = r#"{"status":"error","kind":"overloaded","message":"queue full"}"#;
        let (o, _) = classify_response(overloaded, &[5, 7]);
        assert_eq!(o, Outcome::Refused("overloaded".into()));
        t.record("b", &o);
        let (o, _) = classify_response(ok, &[5, 8]);
        assert!(matches!(o, Outcome::Wrong { .. }));
        t.record("c", &o);
        let (o, _) = classify_response(r#"{"status":"cancelled","reason":"deadline"}"#, &[1]);
        assert_eq!(o, Outcome::Refused("cancelled".into()));
        t.record("d", &o);
        t.record("e", &Outcome::Failed("read failed".into()));
        assert_eq!(t.attempted, 5);
        assert_eq!((t.ok, t.refused, t.wrong, t.failed), (1, 2, 1, 1));
        assert!((t.error_rate() - 0.8).abs() < 1e-12);
        assert_eq!(t.notes.len(), 4);
    }

    #[test]
    fn clean_run_has_zero_error_rate() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        t.record("a", &classify_counts(&[3], vec![3]));
        assert_eq!(t.error_rate(), 0.0);
        let mut u = Tally::default();
        u.record("b", &classify_counts(&[3], vec![4]));
        t.merge(u);
        assert_eq!(t.attempted, 2);
        assert!((t.error_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn garbage_response_is_a_failure() {
        let (o, _) = classify_response("not json", &[1]);
        assert!(matches!(o, Outcome::Failed(_)));
    }
}
