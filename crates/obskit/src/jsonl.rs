//! JSONL serialization of trace events — hand-rolled, since this crate is
//! dependency-free by design.
//!
//! Each event is one JSON object per line with an `"ev"` discriminator:
//!
//! ```text
//! {"ev":"span_start","id":2,"parent":1,"name":"predict","t_ns":120}
//! {"ev":"span_end","id":2,"name":"predict","dur_ns":815}
//! {"ev":"counter","name":"eval.items","value":24}
//! {"ev":"gauge","name":"ex_pct","value":61.5}
//! {"ev":"histogram","name":"lat","count":2,"sum":300,"min":100,"max":200,"buckets":[[7,1],[8,1]]}
//! {"ev":"meta","name":"experiment.e1","fields":{"seed":"2023"}}
//! ```
//!
//! The parser accepts exactly what the serializer emits (plus insignificant
//! whitespace); `parse -> serialize` round-trips bit-for-bit.

use crate::event::Event;
use std::fmt::Write as _;

/// Append `s` to `out` escaped as the body of a JSON string literal
/// (without the quotes). The workspace's one JSON string escaper.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` escaped as the body of a JSON string literal (without the quotes);
/// see [`json_escape_into`].
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Serialize a float the way JSON expects (always with a decimal point or
/// exponent so it parses back as a float).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no Inf/NaN; encode as null and parse back as 0.
        "null".to_string()
    }
}

/// Serialize one event as a single JSON line (no trailing newline).
pub fn to_json_line(ev: &Event) -> String {
    let mut s = String::with_capacity(64);
    let field = |s: &mut String, name: &str| {
        s.push('"');
        s.push_str(name);
        s.push_str("\":");
    };
    s.push('{');
    match ev {
        Event::SpanStart {
            id,
            parent,
            name,
            t_ns,
        } => {
            s.push_str("\"ev\":\"span_start\",");
            field(&mut s, "id");
            let _ = write!(s, "{id},");
            if let Some(p) = parent {
                field(&mut s, "parent");
                let _ = write!(s, "{p},");
            }
            field(&mut s, "name");
            s.push('"');
            json_escape_into(&mut s, name);
            s.push_str("\",");
            field(&mut s, "t_ns");
            let _ = write!(s, "{t_ns}");
        }
        Event::SpanEnd { id, name, dur_ns } => {
            s.push_str("\"ev\":\"span_end\",");
            field(&mut s, "id");
            let _ = write!(s, "{id},");
            field(&mut s, "name");
            s.push('"');
            json_escape_into(&mut s, name);
            s.push_str("\",");
            field(&mut s, "dur_ns");
            let _ = write!(s, "{dur_ns}");
        }
        Event::Counter { name, value } => {
            s.push_str("\"ev\":\"counter\",");
            field(&mut s, "name");
            s.push('"');
            json_escape_into(&mut s, name);
            s.push_str("\",");
            field(&mut s, "value");
            let _ = write!(s, "{value}");
        }
        Event::Gauge { name, value } => {
            s.push_str("\"ev\":\"gauge\",");
            field(&mut s, "name");
            s.push('"');
            json_escape_into(&mut s, name);
            s.push_str("\",");
            field(&mut s, "value");
            s.push_str(&fmt_f64(*value));
        }
        Event::Histogram {
            name,
            count,
            sum,
            min,
            max,
            buckets,
        } => {
            s.push_str("\"ev\":\"histogram\",");
            field(&mut s, "name");
            s.push('"');
            json_escape_into(&mut s, name);
            s.push_str("\",");
            let _ = write!(
                s,
                "\"count\":{count},\"sum\":{sum},\"min\":{min},\"max\":{max},"
            );
            field(&mut s, "buckets");
            s.push('[');
            for (i, (b, n)) in buckets.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{b},{n}]");
            }
            s.push(']');
        }
        Event::Meta { name, fields } => {
            s.push_str("\"ev\":\"meta\",");
            field(&mut s, "name");
            s.push('"');
            json_escape_into(&mut s, name);
            s.push_str("\",");
            field(&mut s, "fields");
            s.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push('"');
                json_escape_into(&mut s, k);
                s.push_str("\":\"");
                json_escape_into(&mut s, v);
                s.push('"');
            }
            s.push('}');
        }
    }
    s.push('}');
    s
}

// ---- parsing ----

/// A minimal JSON value (only the shapes the serializer emits).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    /// Integer token (no `.`/`e`), kept exact — `u64::MAX` must round-trip.
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\r' | b'\n') {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => {
                if self.b[self.i..].starts_with(b"null") {
                    self.i += 4;
                    Ok(Json::Null)
                } else {
                    Err(format!("bad literal at byte {}", self.i))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let e = *self.b.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.b[self.i..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let tok = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        if !tok.contains(['.', 'e', 'E']) {
            if let Ok(i) = tok.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        tok.parse::<f64>().map(Json::Num).map_err(|e| e.to_string())
    }
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(n) => Some(*n as u64),
            Json::Null => Some(0),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            Json::Null => Some(0.0),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse one JSONL line into an [`Event`].
pub fn parse_jsonl_line(line: &str) -> Result<Event, String> {
    let mut p = Parser {
        b: line.as_bytes(),
        i: 0,
    };
    let v = p.object()?;
    let kind = v
        .get("ev")
        .and_then(Json::as_str)
        .ok_or("missing \"ev\" field")?;
    let name = || -> Result<String, String> {
        Ok(v.get("name")
            .and_then(Json::as_str)
            .ok_or("missing \"name\"")?
            .to_string())
    };
    let num = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing {key:?}"))
    };
    match kind {
        "span_start" => Ok(Event::SpanStart {
            id: num("id")?,
            parent: v.get("parent").and_then(Json::as_u64),
            name: name()?,
            t_ns: num("t_ns")?,
        }),
        "span_end" => Ok(Event::SpanEnd {
            id: num("id")?,
            name: name()?,
            dur_ns: num("dur_ns")?,
        }),
        "counter" => Ok(Event::Counter {
            name: name()?,
            value: num("value")?,
        }),
        "gauge" => Ok(Event::Gauge {
            name: name()?,
            value: v
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("missing \"value\"")?,
        }),
        "histogram" => {
            let buckets = match v.get("buckets") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|pair| match pair {
                        Json::Arr(bn) if bn.len() == 2 => Ok((
                            bn[0].as_u64().ok_or("bad bucket index")? as u32,
                            bn[1].as_u64().ok_or("bad bucket count")?,
                        )),
                        _ => Err("bad bucket pair".to_string()),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("missing \"buckets\"".into()),
            };
            Ok(Event::Histogram {
                name: name()?,
                count: num("count")?,
                sum: num("sum")?,
                min: num("min")?,
                max: num("max")?,
                buckets,
            })
        }
        "meta" => {
            let fields = match v.get("fields") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(k, val)| {
                        Ok((
                            k.clone(),
                            val.as_str().ok_or("meta value not a string")?.to_string(),
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                _ => return Err("missing \"fields\"".into()),
            };
            Ok(Event::Meta {
                name: name()?,
                fields,
            })
        }
        other => Err(format!("unknown event kind {other:?}")),
    }
}

/// Parse a whole JSONL document (blank lines ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_jsonl_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Counter name under which [`parse_jsonl_lossy`] reports the number of
/// lines it skipped.
pub const SKIPPED_LINES_COUNTER: &str = "obskit.jsonl.skipped_lines";

/// Parse a JSONL document leniently: malformed, truncated or non-event
/// lines are skipped and returned as `line N: reason` warnings instead of
/// failing the whole parse. A crashed run's partial trace (whose final
/// line is typically cut mid-object) still yields every intact event.
///
/// When any line was skipped, a synthetic
/// [`Event::Counter`] named [`SKIPPED_LINES_COUNTER`] carrying the skip
/// count is appended to the returned events, so data loss shows up in
/// the *metrics* of everything built on the lossy parse (profiles,
/// expositions), not only in stderr warnings.
pub fn parse_jsonl_lossy(text: &str) -> (Vec<Event>, Vec<String>) {
    let mut events = Vec::new();
    let mut warnings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_jsonl_line(line) {
            Ok(ev) => events.push(ev),
            Err(e) => warnings.push(format!("line {}: {e}", i + 1)),
        }
    }
    if !warnings.is_empty() {
        events.push(Event::Counter {
            name: SKIPPED_LINES_COUNTER.to_string(),
            value: warnings.len() as u64,
        });
    }
    (events, warnings)
}

/// Serialize a trace with every span timestamp and duration zeroed.
///
/// Two runs of the same workload differ only in their timings, and
/// [`Event`] equality already ignores them; this is the byte-level
/// counterpart, letting determinism tests compare whole trace files with a
/// plain string (or file) equality check.
pub fn canonical_jsonl(events: &[Event]) -> String {
    let mut s = String::new();
    for ev in events {
        let canon = match ev.clone() {
            Event::SpanStart {
                id, parent, name, ..
            } => Event::SpanStart {
                id,
                parent,
                name,
                t_ns: 0,
            },
            Event::SpanEnd { id, name, .. } => Event::SpanEnd {
                id,
                name,
                dur_ns: 0,
            },
            other => other,
        };
        s.push_str(&to_json_line(&canon));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "run".into(),
                t_ns: 0,
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                name: "predict".into(),
                t_ns: 120,
            },
            Event::SpanEnd {
                id: 2,
                name: "predict".into(),
                dur_ns: 815,
            },
            Event::SpanEnd {
                id: 1,
                name: "run".into(),
                dur_ns: 1000,
            },
            Event::Counter {
                name: "eval.items".into(),
                value: 24,
            },
            Event::Gauge {
                name: "ex_pct".into(),
                value: 61.5,
            },
            Event::Gauge {
                name: "whole".into(),
                value: -3.0,
            },
            Event::Histogram {
                name: "lat".into(),
                count: 2,
                sum: 300,
                min: 100,
                max: 200,
                buckets: vec![(7, 1), (8, 1)],
            },
            Event::Meta {
                name: "experiment.e1".into(),
                fields: vec![
                    ("seed".into(), "2023".into()),
                    ("scale".into(), "quick".into()),
                ],
            },
            Event::Histogram {
                name: "extreme".into(),
                count: 2,
                sum: u64::MAX,
                min: 0,
                max: u64::MAX,
                buckets: vec![(0, 1), (64, 1)],
            },
        ]
    }

    #[test]
    fn events_round_trip() {
        for ev in samples() {
            let line = to_json_line(&ev);
            let back = parse_jsonl_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(ev, back, "{line}");
        }
    }

    #[test]
    fn serialized_timestamps_round_trip_exactly() {
        // Event equality ignores times, so check them via re-serialization.
        let ev = Event::SpanStart {
            id: 9,
            parent: Some(3),
            name: "x".into(),
            t_ns: 123456789,
        };
        let line = to_json_line(&ev);
        assert_eq!(line, to_json_line(&parse_jsonl_line(&line).unwrap()));
    }

    #[test]
    fn document_round_trips() {
        let doc: String = samples().iter().map(|e| to_json_line(e) + "\n").collect();
        let back = parse_jsonl(&doc).unwrap();
        assert_eq!(back, samples());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("\r\t\u{1}"), "\\r\\t\\u0001");
    }

    #[test]
    fn strings_are_escaped() {
        let ev = Event::Meta {
            name: "weird \"name\"\n".into(),
            fields: vec![("k\\".into(), "v\t".into())],
        };
        let line = to_json_line(&ev);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(ev, parse_jsonl_line(&line).unwrap());
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        let err =
            parse_jsonl("{\"ev\":\"counter\",\"name\":\"a\",\"value\":1}\nnot json").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        assert!(parse_jsonl_line("{}").is_err());
        assert!(parse_jsonl_line("{\"ev\":\"nope\",\"name\":\"x\"}").is_err());
    }

    #[test]
    fn lossy_parse_skips_truncated_lines() {
        let good = Event::Counter {
            name: "a".into(),
            value: 1,
        };
        let line = to_json_line(&good);
        // Simulate a crashed writer: one intact line, one cut mid-object,
        // one non-JSON line.
        let doc = format!("{line}\n{}\nnot json\n{line}\n", &line[..line.len() / 2]);
        let (events, warnings) = parse_jsonl_lossy(&doc);
        // Intact events, plus a synthetic counter reporting the skips.
        let skip_counter = Event::Counter {
            name: SKIPPED_LINES_COUNTER.into(),
            value: 2,
        };
        assert_eq!(events, vec![good.clone(), good, skip_counter]);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].starts_with("line 2"), "{warnings:?}");
        assert!(warnings[1].starts_with("line 3"), "{warnings:?}");
    }

    #[test]
    fn lossy_parse_of_clean_input_adds_no_counter() {
        let good = Event::Counter {
            name: "a".into(),
            value: 1,
        };
        let doc = format!("{}\n", to_json_line(&good));
        let (events, warnings) = parse_jsonl_lossy(&doc);
        assert_eq!(events, vec![good]);
        assert!(warnings.is_empty());
    }

    #[test]
    fn canonical_jsonl_zeroes_times_only() {
        let a = canonical_jsonl(&samples());
        let mut shifted = samples();
        for ev in &mut shifted {
            match ev {
                Event::SpanStart { t_ns, .. } => *t_ns += 12345,
                Event::SpanEnd { dur_ns, .. } => *dur_ns += 999,
                _ => {}
            }
        }
        let b = canonical_jsonl(&shifted);
        assert_eq!(a, b, "canonical form must be timing-independent");
        assert!(a.contains("\"t_ns\":0"));
        assert!(a.contains("\"dur_ns\":0"));
        // Non-span content is untouched.
        assert!(a.contains("\"value\":24"));
        // Canonical output is itself a valid trace.
        assert_eq!(parse_jsonl(&a).unwrap(), samples());
    }

    #[test]
    fn blank_lines_are_ignored() {
        let ev = Event::Counter {
            name: "a".into(),
            value: 1,
        };
        let doc = format!("\n{}\n\n", to_json_line(&ev));
        assert_eq!(parse_jsonl(&doc).unwrap(), vec![ev]);
    }
}
