//! Chrome `trace_event` export.
//!
//! [`render`] serializes a drained timeline into the JSON Object Format of
//! the Chrome trace-event specification: a top-level object with a
//! `traceEvents` array. The file loads directly in `chrome://tracing` and
//! in Perfetto (<https://ui.perfetto.dev>, *Open trace file*).
//!
//! Spans become complete events (`"ph": "X"`) with microsecond `ts`/`dur`,
//! and instants become thread-scoped instant events (`"ph": "i"`). All events share `pid` 1; the `tid`
//! is the dense thread id assigned by the recorder, so each worker thread
//! renders as its own track. Span and instant args become the event's
//! `"args"` object, which `facadeprof` reads back.
//!
//! ```
//! facade_trace::set_enabled(true);
//! let _span = facade_trace::span!("render_me");
//! drop(_span);
//! let json = facade_trace::chrome::render(&facade_trace::drain());
//! assert!(json.starts_with("{\"traceEvents\":["));
//! assert!(json.contains("\"name\":\"render_me\""));
//! assert!(json.ends_with("]}\n"));
//! ```

use crate::{ArgValue, EventKind, TraceEvent};
use std::fmt::Write as _;

/// Renders events (as returned by [`crate::drain`]) to Chrome trace JSON.
pub fn render(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        write_json_string(&mut out, event.name);
        let _ = write!(out, ",\"pid\":1,\"tid\":{}", event.tid);
        let _ = write!(out, ",\"ts\":{}", Micros(event.ts_ns));
        match event.kind {
            EventKind::Span { dur_ns } => {
                let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", Micros(dur_ns));
                write_args(&mut out, &event.args);
            }
            EventKind::Instant => {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
                write_args(&mut out, &event.args);
            }
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Nanoseconds rendered as microseconds with fractional precision, the unit
/// the trace-event format expects for `ts` and `dur`.
struct Micros(u64);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let whole = self.0 / 1_000;
        let frac = self.0 % 1_000;
        if frac == 0 {
            write!(f, "{whole}")
        } else {
            write!(f, "{whole}.{frac:03}")
        }
    }
}

/// A finite JSON number; non-finite floats degrade to 0 (JSON has no NaN).
struct Num(f64);

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "0")
        }
    }
}

fn write_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(out, key);
        out.push(':');
        match value {
            ArgValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::Float(v) => {
                let _ = write!(out, "{}", Num(*v));
            }
            ArgValue::Str(v) => write_json_string(out, v),
            ArgValue::Text(v) => write_json_string(out, v),
        }
    }
    out.push('}');
}

/// Appends `s` to `out` as a quoted JSON string: quotes, backslashes and
/// control characters escaped, everything else passed through as UTF-8.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&metrics::json::escape(s));
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            tid,
            ts_ns,
            kind: EventKind::Span { dur_ns },
            args: Vec::new(),
        }
    }

    #[test]
    fn renders_complete_events_in_microseconds() {
        let mut ev = span("gc_minor", 1, 1_500, 2_000_000);
        ev.args = vec![("promoted_bytes", ArgValue::UInt(4096))];
        let json = render(&[ev]);
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2000"), "{json}");
        assert!(
            json.contains("\"args\":{\"promoted_bytes\":4096}"),
            "{json}"
        );
    }

    #[test]
    fn renders_instants() {
        let events = vec![TraceEvent {
            name: "fault_injected",
            tid: 2,
            ts_ns: 0,
            kind: EventKind::Instant,
            args: vec![("kind", ArgValue::Str("pool_acquire"))],
        }];
        let json = render(&events);
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""), "{json}");
    }

    #[test]
    fn escapes_strings() {
        let mut ev = span("weird", 1, 0, 1);
        ev.args = vec![("cause", ArgValue::Text("a \"quote\"\nnewline".into()))];
        let json = render(&[ev]);
        assert!(json.contains(r#""cause":"a \"quote\"\nnewline""#), "{json}");
    }

    #[test]
    fn empty_timeline_is_valid_json() {
        assert_eq!(render(&[]), "{\"traceEvents\":[]}\n");
    }

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        write_json_string(&mut out, s);
        out
    }

    #[test]
    fn json_string_escapes_quotes_and_backslashes() {
        assert_eq!(escaped(r#"say "hi""#), r#""say \"hi\"""#);
        assert_eq!(escaped(r"C:\temp\x"), r#""C:\\temp\\x""#);
        // A backslash before a quote must produce two independent escapes,
        // not swallow one another.
        assert_eq!(escaped("\\\""), r#""\\\"""#);
        assert_eq!(escaped(""), "\"\"");
    }

    #[test]
    fn json_string_escapes_named_control_characters() {
        assert_eq!(escaped("a\nb"), r#""a\nb""#);
        assert_eq!(escaped("a\rb"), r#""a\rb""#);
        assert_eq!(escaped("a\tb"), r#""a\tb""#);
    }

    #[test]
    fn json_string_escapes_remaining_control_characters_as_unicode() {
        // Every C0 control without a short escape must become \u00XX; the
        // printable boundary (0x20, space) must pass through untouched.
        assert_eq!(escaped("\u{0}"), r#""\u0000""#);
        assert_eq!(escaped("\u{1b}"), r#""\u001b""#);
        assert_eq!(escaped("\u{1f}"), r#""\u001f""#);
        assert_eq!(escaped(" "), "\" \"");
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let out = escaped(&c.to_string());
            assert!(
                out.starts_with("\"\\"),
                "control char {:#x} must be escaped, got {out}",
                c as u32
            );
        }
    }

    #[test]
    fn json_string_passes_multibyte_utf8_through() {
        assert_eq!(escaped("héap π 页"), "\"héap π 页\"");
    }
}
