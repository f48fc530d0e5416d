//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each public call
//! it makes into the program — nothing inside the crates is instrumented —
//! kept in memory, and written once at the end as Chrome-trace JSON
//! through the repository's own `chrometrace` exporter.  A layer's self
//! time is its span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use mbb_obs::{Counters, Profile, SpanRecord};

/// Times calls, and records them as spans when tracing.
pub struct Meter {
    trace: Option<Trace>,
}

struct Trace {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<(usize, Instant)>,
}

impl Meter {
    /// A meter that only times (the untraced runs).
    pub fn plain() -> Meter {
        Meter { trace: None }
    }

    /// A meter that also records spans.
    pub fn traced() -> Meter {
        Meter { trace: Some(Trace { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }) }
    }

    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Runs `f`, returning its value and wall seconds; a span `name`
    /// is recorded around it when tracing.
    pub fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.open(name);
        let start = Instant::now();
        let v = std::hint::black_box(f());
        let secs = start.elapsed().as_secs_f64();
        self.close();
        (v, secs)
    }

    /// Opens a span (no-op when not tracing).
    pub fn open(&mut self, name: &str) {
        if let Some(t) = &mut self.trace {
            let now = Instant::now();
            t.spans.push(SpanRecord {
                name: name.to_string(),
                parent: t.open.last().map(|&(i, _)| i),
                depth: t.open.len(),
                start_ns: now.duration_since(t.origin).as_nanos() as u64,
                wall_ns: 0,
                cpu_ns: None,
                delta: Counters::default(),
            });
            t.open.push((t.spans.len() - 1, now));
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(t) = &mut self.trace {
            let (i, start) = t.open.pop().expect("close matches an open span");
            t.spans[i].wall_ns = start.elapsed().as_nanos() as u64;
        }
    }

    /// Attaches simulated-traffic counts to the most recently opened span.
    pub fn annotate(&mut self, counts: Counters) {
        if let Some(t) = &mut self.trace {
            if let Some(s) = t.spans.last_mut() {
                s.delta = counts;
            }
        }
    }

    /// Number of spans recorded so far (a cursor for [`Meter::self_ms`]).
    pub fn mark(&self) -> usize {
        self.trace.as_ref().map_or(0, |t| t.spans.len())
    }

    /// Self time in ms per span name, summed over the spans recorded
    /// since `from`.
    pub fn self_ms(&self, from: usize) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let Some(t) = &self.trace else { return out };
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.wall_ns;
            }
        }
        for (i, s) in t.spans.iter().enumerate().skip(from) {
            let own = s.wall_ns.saturating_sub(child_ns[i]);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The recorded spans as a profile for the Chrome-trace exporter.
    pub fn into_profile(self) -> Option<Profile> {
        self.trace.map(|t| Profile {
            wall_ns: t.origin.elapsed().as_nanos() as u64,
            cpu_ns: None,
            spans: t.spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut m = Meter::traced();
        m.open("outer");
        m.call("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
        std::thread::sleep(std::time::Duration::from_millis(5));
        m.close();
        let st = m.self_ms(0);
        assert!(st["inner"] >= 20.0, "{st:?}");
        assert!(st["outer"] >= 5.0 && st["outer"] < st["inner"], "{st:?}");
        let p = m.into_profile().unwrap();
        assert_eq!(p.spans[1].parent, Some(0));
        assert_eq!(p.spans[1].depth, 1);
    }

    #[test]
    fn a_plain_meter_records_nothing() {
        let mut m = Meter::plain();
        let (v, secs) = m.call("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(m.self_ms(0).is_empty());
        assert!(m.into_profile().is_none());
    }
}
