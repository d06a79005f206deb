//! The run result: the one-line summary printed last on stdout, and the
//! full result file that also records the run conditions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value (only what the result file needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest text that reads back to the same
            // bits, and never an exponent or NaN: non-finite is null.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_text(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    // Reading back is only needed by the round-trip tests.
    #[cfg(test)]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i).copied() {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    m.insert(k, self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            // Non-finite numbers are written as null.
            Some(b'n') => self.lit("null", Json::Num(f64::NAN)),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.push(hex);
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences whole.
                    let start = self.i - 1;
                    let len = match b {
                        0xF0..=0xFF => 4,
                        0xE0..=0xEF => 3,
                        0xC0..=0xDF => 2,
                        _ => 1,
                    };
                    let end = (start + len).min(self.s.len());
                    out.push_str(
                        std::str::from_utf8(&self.s[start..end]).map_err(|e| e.to_string())?,
                    );
                    self.i = end;
                }
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run conditions: thread counts, query/pass/sample counts, …
    pub conditions: BTreeMap<String, Json>,
    /// The first failed checks, verbatim.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    pub fn condition(&mut self, key: &str, value: impl Into<f64>) {
        self.conditions.insert(key.into(), Json::Num(value.into()));
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut o = BTreeMap::new();
                    o.insert("value".to_string(), Json::Num(m.value));
                    o.insert("unit".to_string(), Json::Str(m.unit.clone()));
                    (m.name.clone(), Json::Obj(o))
                })
                .collect(),
        )
    }

    /// The summary line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn summary(&self) -> Json {
        let mut o = BTreeMap::new();
        o.insert("correct".into(), Json::Bool(self.correct));
        o.insert("attempted".into(), Json::Num(self.attempted as f64));
        o.insert("failed".into(), Json::Num(self.failed as f64));
        o.insert("metrics".into(), self.metrics_json());
        Json::Obj(o)
    }

    /// The result file: the summary plus workload, seed, mode, run
    /// conditions and failed checks.
    pub fn full(&self) -> Json {
        let Json::Obj(mut o) = self.summary() else {
            unreachable!("summary is an object")
        };
        o.insert("workload".into(), Json::Str(self.workload.clone()));
        o.insert("seed".into(), Json::Num(self.seed as f64));
        o.insert("trace".into(), Json::Bool(self.trace));
        o.insert("conditions".into(), Json::Obj(self.conditions.clone()));
        o.insert(
            "failures".into(),
            Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
        );
        Json::Obj(o)
    }

    /// Reads back a result file written from [`RunResult::full`].
    #[cfg(test)]
    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let j = Json::parse(text)?;
        let field = |k: &str| j.get(k).ok_or_else(|| format!("missing {k}"));
        let num = |k: &str| {
            field(k)?
                .num()
                .ok_or_else(|| format!("{k} is not a number"))
        };
        let boolean = |k: &str| match field(k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{k} is not a bool")),
        };
        let Json::Str(workload) = field("workload")? else {
            return Err("workload is not a string".into());
        };
        let Json::Obj(ms) = field("metrics")? else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in ms {
            let value = m
                .get("value")
                .and_then(Json::num)
                .ok_or_else(|| format!("{name}: no value"))?;
            let Some(Json::Str(unit)) = m.get("unit") else {
                return Err(format!("{name}: no unit"));
            };
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit: unit.clone(),
            });
        }
        let Json::Obj(conditions) = field("conditions")? else {
            return Err("conditions is not an object".into());
        };
        let Json::Arr(fs) = field("failures")? else {
            return Err("failures is not an array".into());
        };
        let failures = fs
            .iter()
            .map(|f| match f {
                Json::Str(s) => Ok(s.clone()),
                _ => Err("failure is not a string".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            workload: workload.clone(),
            seed: num("seed")? as u64,
            trace: boolean("trace")?,
            correct: boolean("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            conditions: conditions.clone(),
            failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut r = RunResult {
            workload: "serve_job".into(),
            seed: 42,
            trace: false,
            correct: true,
            attempted: 1233,
            failed: 0,
            ..Default::default()
        };
        r.metric("plan_ms_p50", 14.318_273_615_2, "ms");
        r.metric("queries_per_s", 1.0 / 3.0, "1/s");
        r.metric("tiny", 1.5e-9, "s");
        r.condition("available_parallelism", 2u32);
        r.conditions
            .insert("note".into(), Json::Str("quote \" and \\ é".into()));
        r.failures.push("job_01a: \"bad\"\tplan".into());
        r
    }

    #[test]
    fn result_file_round_trips_bit_for_bit() {
        let r = sample();
        let text = r.full().to_text();
        let back = RunResult::from_json(&text).unwrap();
        // Metrics come back sorted by name; compare as sets.
        let mut want = r.metrics.clone();
        want.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(back.metrics, want);
        for (a, b) in back.metrics.iter().zip(&want) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
        }
        assert_eq!(
            RunResult {
                metrics: want,
                ..r.clone()
            },
            back
        );
    }

    #[test]
    fn summary_has_exactly_the_four_keys() {
        let Json::Obj(o) = sample().summary() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = o.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let line = sample().summary().to_text();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), sample().summary());
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_text(), "null");
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1, 2] x").is_err());
    }
}
