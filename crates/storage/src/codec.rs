//! Record serialization codecs.
//!
//! Storage platforms need a durable representation of data quanta:
//!
//! * the **native codec** — a loss-free, type-tagged, line-oriented text
//!   format used by the simulated HDFS store and the MapReduce-like
//!   platform's phase spills;
//! * a **CSV reader** — for Cartilage's `ParseCsv` step (values are
//!   inferred as `Int`, then `Float`, then `Str`).

use std::sync::Arc;

use rheem_core::data::{Record, Value};
use rheem_core::error::{Result, RheemError};

/// Field separator in the native format (ASCII unit separator).
const FIELD_SEP: char = '\u{1f}';

/// Encode one record into a single native-format line (no trailing newline).
fn encode_record(record: &Record) -> String {
    let mut out = String::new();
    for (i, v) in record.fields().iter().enumerate() {
        if i > 0 {
            out.push(FIELD_SEP);
        }
        match v {
            Value::Null => out.push('N'),
            Value::Bool(b) => {
                out.push_str(if *b { "B1" } else { "B0" });
            }
            Value::Int(i) => {
                out.push('I');
                out.push_str(&i.to_string());
            }
            Value::Float(x) => {
                // Hex bit pattern: exact round trip, NaN payloads included.
                out.push('F');
                out.push_str(&format!("{:016x}", x.to_bits()));
            }
            Value::Str(s) => {
                out.push('S');
                out.push_str(&escape(s));
            }
        }
    }
    out
}

/// Decode one native-format line into a record.
fn decode_record(line: &str) -> Result<Record> {
    if line.is_empty() {
        return Ok(Record::empty());
    }
    let mut fields = Vec::new();
    for token in line.split(FIELD_SEP) {
        let mut chars = token.chars();
        let tag = chars.next().ok_or_else(|| bad(token, "empty field"))?;
        let payload = chars.as_str();
        let v = match tag {
            'N' => Value::Null,
            'B' => match payload {
                "1" => Value::Bool(true),
                "0" => Value::Bool(false),
                _ => return Err(bad(token, "bool payload")),
            },
            'I' => Value::Int(
                payload
                    .parse::<i64>()
                    .map_err(|_| bad(token, "int payload"))?,
            ),
            'F' => {
                let bits =
                    u64::from_str_radix(payload, 16).map_err(|_| bad(token, "float payload"))?;
                Value::Float(f64::from_bits(bits))
            }
            'S' => Value::Str(Arc::from(unescape(payload)?.as_str())),
            _ => return Err(bad(token, "unknown tag")),
        };
        fields.push(v);
    }
    Ok(Record::new(fields))
}

fn bad(token: &str, what: &str) -> RheemError {
    RheemError::Storage(format!("corrupt record field ({what}): {token:?}"))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            FIELD_SEP => out.push_str("\\u"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('u') => out.push(FIELD_SEP),
            other => {
                return Err(RheemError::Storage(format!(
                    "bad escape sequence \\{other:?}"
                )))
            }
        }
    }
    Ok(out)
}

/// Encode a batch of records, one line each.
pub fn encode_batch(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&encode_record(r));
        out.push('\n');
    }
    out
}

/// Decode a native-format batch (inverse of [`encode_batch`]).
pub fn decode_batch(text: &str) -> Result<Vec<Record>> {
    text.lines().map(decode_record).collect()
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

/// Parse CSV text into records with type inference per field:
/// empty → `Null`, else `Int`, else `Float`, else `Str`.
pub(crate) fn from_csv(text: &str) -> Result<Vec<Record>> {
    let mut records = Vec::new();
    for line in text.lines() {
        records.push(Record::new(parse_csv_line(line)?));
    }
    Ok(records)
}

fn parse_csv_line(line: &str) -> Result<Vec<Value>> {
    let mut fields = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        let mut field = String::new();
        let quoted = chars.peek() == Some(&'"');
        if quoted {
            chars.next();
            loop {
                match chars.next() {
                    Some('"') => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            break;
                        }
                    }
                    Some(c) => field.push(c),
                    None => {
                        return Err(RheemError::Storage(format!(
                            "unterminated quoted CSV field in {line:?}"
                        )))
                    }
                }
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c == ',' {
                    break;
                }
                field.push(c);
                chars.next();
            }
        }
        fields.push(infer_value(&field, quoted));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => {
                return Err(RheemError::Storage(format!(
                    "unexpected character {c:?} after CSV field in {line:?}"
                )))
            }
        }
    }
    Ok(fields)
}

fn infer_value(field: &str, quoted: bool) -> Value {
    if quoted {
        return Value::str(field);
    }
    if field.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = field.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(x) = field.parse::<f64>() {
        return Value::Float(x);
    }
    Value::str(field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::rec;

    fn tricky_records() -> Vec<Record> {
        vec![
            rec![1i64, "plain", 2.5, true],
            Record::new(vec![
                Value::Null,
                Value::str("with,comma"),
                Value::str("with\nnewline"),
                Value::str("with\"quote"),
            ]),
            Record::new(vec![
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::str(format!("sep{}inside", '\u{1f}')),
                Value::str("back\\slash"),
            ]),
            Record::empty(),
        ]
    }

    #[test]
    fn native_codec_round_trips_everything() {
        let records = tricky_records();
        let text = encode_batch(&records);
        let back = decode_batch(&text).unwrap();
        assert_eq!(records, back);
    }

    #[test]
    fn native_codec_preserves_nan_bits() {
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        let r = Record::new(vec![Value::Float(weird)]);
        let back = decode_record(&encode_record(&r)).unwrap();
        if let Value::Float(x) = back.get(0).unwrap() {
            assert_eq!(x.to_bits(), weird.to_bits());
        } else {
            panic!("expected float");
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        assert!(decode_record("Xwhat").is_err());
        assert!(decode_record("Inotanumber").is_err());
        assert!(decode_record("B7").is_err());
        assert!(decode_record("Fzz").is_err());
        assert!(decode_record("Sbad\\escape\\q").is_err());
    }

    #[test]
    fn empty_record_round_trips() {
        let r = Record::empty();
        assert_eq!(decode_record(&encode_record(&r)).unwrap(), r);
    }

    #[test]
    fn csv_quoting() {
        let back = from_csv("1,alice,3.5\n,\"a,b\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], rec![1i64, "alice", 3.5]);
        assert_eq!(back[1].get(0).unwrap(), &Value::Null);
        assert_eq!(back[1].str(1).unwrap(), "a,b");
        assert_eq!(back[1].str(2).unwrap(), "say \"hi\"");
    }

    #[test]
    fn csv_type_inference() {
        let rows = from_csv("1,2.5,x,,true\n").unwrap();
        let r = &rows[0];
        assert_eq!(r.int(0).unwrap(), 1);
        assert_eq!(r.float(1).unwrap(), 2.5);
        assert_eq!(r.str(2).unwrap(), "x");
        assert!(r.get(3).unwrap().is_null());
        // No bool inference from CSV — "true" stays a string.
        assert_eq!(r.str(4).unwrap(), "true");
    }

    #[test]
    fn csv_quoted_numbers_stay_strings() {
        let rows = from_csv("\"42\",42\n").unwrap();
        assert_eq!(rows[0].str(0).unwrap(), "42");
        assert_eq!(rows[0].int(1).unwrap(), 42);
    }

    #[test]
    fn csv_unterminated_quote_is_error() {
        assert!(from_csv("\"oops,1\n").is_err());
    }
}
