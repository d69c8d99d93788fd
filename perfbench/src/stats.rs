//! Sample statistics and the result-line encoding.

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even counts); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// above it, as `(value, percentile)`: the value is the 11th-largest
/// sample and the percentile is the share of samples at or below it.
/// `None` when there are too few samples for any such percentile.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let idx = n - 1 - TAIL_BEYOND;
    Some((s[idx], 100.0 * (idx + 1) as f64 / n as f64))
}

/// A layer's self time: its span minus the time its children account
/// for, clamped at zero (children measured in separate calls can sum past
/// a noisy parent).
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    (total - children.iter().sum::<f64>()).max(0.0)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values are written as 0 so the line always parses.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                v,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&(1..=10).map(f64::from).collect::<Vec<_>>()), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (v, p) = tail(&eleven).unwrap();
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-9);
        // 100 samples: the 90th percentile, with exactly ten above it.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (v, p) = tail(&hundred).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(hundred.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        assert_eq!(self_time(10.0, &[3.0, 2.5]), 4.5);
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(1.0, &[0.7, 0.6]), 0.0);
    }

    #[test]
    fn result_line_is_well_formed_json() {
        let metrics = [
            Metric {
                name: "iter_ms_p50".into(),
                value: 1.25,
                unit: "ms",
            },
            Metric {
                name: "odd \"name\"\n".into(),
                value: f64::NAN,
                unit: "1/s",
            },
        ];
        let line = result_json(12, 1, &metrics);
        let v = json::parse(&line).expect("result line parses");
        let obj = v.object().unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(obj[0].1, json::Value::Bool(false), "a failure is incorrect");
        assert_eq!(obj[1].1, json::Value::Num(12.0));
        let m = obj[3].1.object().unwrap();
        assert_eq!(m[0].0, "iter_ms_p50");
        let p50 = m[0].1.object().unwrap();
        assert_eq!(p50[0], ("value".into(), json::Value::Num(1.25)));
        assert_eq!(p50[1], ("unit".into(), json::Value::Str("ms".into())));
        assert_eq!(m[1].0, "odd \"name\"\n");
        assert!(json::parse(&result_json(0, 0, &[])).is_some());
        assert!(
            json::parse("{\"a\": 1,}").is_none(),
            "validator rejects junk"
        );
    }

    /// A strict little JSON reader, enough to check the result line.
    mod json {
        #[derive(Debug, PartialEq)]
        pub enum Value {
            Bool(bool),
            Num(f64),
            Str(String),
            Obj(Vec<(String, Value)>),
        }

        impl Value {
            pub fn object(&self) -> Option<&[(String, Value)]> {
                match self {
                    Value::Obj(o) => Some(o),
                    _ => None,
                }
            }
        }

        pub fn parse(s: &str) -> Option<Value> {
            let mut p = Parser(s.as_bytes(), 0);
            let v = p.value()?;
            p.ws();
            (p.1 == s.len()).then_some(v)
        }

        struct Parser<'a>(&'a [u8], usize);

        impl Parser<'_> {
            fn ws(&mut self) {
                while self.1 < self.0.len() && self.0[self.1].is_ascii_whitespace() {
                    self.1 += 1;
                }
            }

            fn eat(&mut self, lit: &str) -> bool {
                self.ws();
                let ok = self.0[self.1..].starts_with(lit.as_bytes());
                if ok {
                    self.1 += lit.len();
                }
                ok
            }

            fn value(&mut self) -> Option<Value> {
                self.ws();
                match *self.0.get(self.1)? {
                    b'{' => self.object(),
                    b'"' => self.string().map(Value::Str),
                    b't' if self.eat("true") => Some(Value::Bool(true)),
                    b'f' if self.eat("false") => Some(Value::Bool(false)),
                    _ => self.number(),
                }
            }

            fn object(&mut self) -> Option<Value> {
                self.eat("{");
                let mut fields = Vec::new();
                if self.eat("}") {
                    return Some(Value::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    if !self.eat(":") {
                        return None;
                    }
                    fields.push((k, self.value()?));
                    if self.eat("}") {
                        return Some(Value::Obj(fields));
                    }
                    if !self.eat(",") {
                        return None;
                    }
                }
            }

            fn string(&mut self) -> Option<String> {
                if self.0.get(self.1) != Some(&b'"') {
                    return None;
                }
                self.1 += 1;
                let mut out = String::new();
                loop {
                    let c = *self.0.get(self.1)?;
                    self.1 += 1;
                    match c {
                        b'"' => return Some(out),
                        b'\\' => {
                            let e = *self.0.get(self.1)?;
                            self.1 += 1;
                            match e {
                                b'"' | b'\\' | b'/' => out.push(e as char),
                                b'u' => {
                                    let hex = std::str::from_utf8(self.0.get(self.1..self.1 + 4)?)
                                        .ok()?;
                                    out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                                    self.1 += 4;
                                }
                                _ => return None,
                            }
                        }
                        c if c < 0x20 => return None,
                        c => out.push(c as char),
                    }
                }
            }

            fn number(&mut self) -> Option<Value> {
                let start = self.1;
                while self.1 < self.0.len()
                    && matches!(
                        self.0[self.1],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.1 += 1;
                }
                let text = std::str::from_utf8(&self.0[start..self.1]).ok()?;
                let v: f64 = text.parse().ok()?;
                v.is_finite().then_some(Value::Num(v))
            }
        }
    }
}
