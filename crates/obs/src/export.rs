//! Trace exporters: a machine-readable JSON trace and a collapsed-stack
//! ("folded") profile for flamegraph tooling.
//!
//! Both formats are hand-rolled — this crate takes no dependencies — and
//! only ever emit integers, `null`, and span names drawn from
//! [`crate::names`] (plain ASCII identifiers), so no string escaping is
//! required beyond what `escape` provides defensively.
//!
//! # JSON schema (version 1)
//!
//! ```json
//! {
//!   "version": 1,
//!   "dropped_spans": 0,
//!   "counters": { "instances": 9, "unique_cores": 6 },
//!   "spans": [
//!     { "id": 0, "name": "prepare", "parent": null,
//!       "start_ns": 0, "dur_ns": 123456 }
//!   ]
//! }
//! ```
//!
//! `counters` lists only non-zero counters. `spans` is in recording order;
//! `parent` indexes into the same array. Times are integer nanoseconds from
//! the recorder epoch.
//!
//! # Folded format
//!
//! One line per distinct stack, `root;child;leaf <self-ns>`, where self
//! time is the span's duration minus its retained children's — exactly what
//! `flamegraph.pl` / `inferno-flamegraph` consume. Nanosecond units keep
//! sub-millisecond pipelines from collapsing to empty output.

use crate::{Counter, Recorder};

/// Escapes a string for a JSON string literal. Span and counter names are
/// static ASCII identifiers, so this is defensive rather than load-bearing.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn to_json(rec: &Recorder) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n");
    out.push_str(&format!("  \"dropped_spans\": {},\n", rec.dropped_spans()));

    out.push_str("  \"counters\": {");
    let mut first = true;
    for c in Counter::ALL {
        let v = rec.counter(c);
        if v == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", escape(c.name()), v));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"spans\": [");
    for (i, s) in rec.spans().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n    {{ \"id\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"dur_ns\": {} }}",
            i,
            escape(s.name),
            parent,
            s.start.as_nanos(),
            s.dur.as_nanos()
        ));
    }
    if !rec.spans().is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

pub(crate) fn to_folded(rec: &Recorder) -> String {
    let spans = rec.spans();
    // Self time = duration minus the duration of retained children.
    let mut self_ns: Vec<i128> = spans.iter().map(|s| s.dur.as_nanos() as i128).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p as usize] -= s.dur.as_nanos() as i128;
        }
    }
    // Identical stacks merge; BTreeMap keeps the output deterministic.
    let mut stacks: std::collections::BTreeMap<String, u128> = std::collections::BTreeMap::new();
    for (i, _) in spans.iter().enumerate() {
        let self_time = self_ns[i].max(0) as u128;
        if self_time == 0 {
            continue;
        }
        let mut frames = Vec::new();
        let mut cur = Some(i as u32);
        while let Some(id) = cur {
            let s = &spans[id as usize];
            frames.push(s.name);
            cur = s.parent;
        }
        frames.reverse();
        *stacks.entry(frames.join(";")).or_insert(0) += self_time;
    }
    let mut out = String::new();
    for (stack, ns) in stacks {
        out.push_str(&format!("{stack} {ns}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{Counter, Recorder};

    fn sample() -> Recorder {
        let mut rec = Recorder::new();
        rec.record(Counter::Instances, 4);
        let root = rec.begin("prepare");
        let core = rec.begin("prepare_core");
        let h = rec.begin("hscan");
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.end(h);
        rec.end(core);
        rec.end(root);
        rec
    }

    #[test]
    fn json_has_schema_fields_and_nonzero_counters_only() {
        let rec = sample();
        let json = rec.to_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"instances\": 4"));
        assert!(!json.contains("\"disk_hits\""), "zero counters omitted");
        assert!(json.contains("\"name\": \"prepare\""));
        assert!(json.contains("\"parent\": null"));
        assert!(
            json.contains("\"parent\": 1"),
            "hscan nests under prepare_core"
        );
    }

    #[test]
    fn json_of_empty_recorder_is_well_formed() {
        let rec = Recorder::new();
        let json = rec.to_json();
        assert!(json.contains("\"counters\": {},"));
        assert!(json.contains("\"spans\": []"));
    }

    #[test]
    fn folded_emits_full_stacks_with_positive_self_time() {
        let rec = sample();
        let folded = rec.to_folded();
        assert!(
            folded.contains("prepare;prepare_core;hscan "),
            "leaf stack present: {folded:?}"
        );
        for line in folded.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("stack SP value");
            assert!(!stack.is_empty());
            assert!(ns.parse::<u128>().expect("integer ns") > 0);
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(super::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(super::escape("\u{1}"), "\\u0001");
    }
}
