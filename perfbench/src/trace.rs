//! The benchmark's own spans: recorded around calls into each layer, kept
//! in memory, and written out with the run record when the run ends.
//!
//! Spans are recorded only in traced runs; an untraced run's tracer drops
//! every span without touching the clock, so end-to-end numbers are taken
//! with tracing off.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Spans caused by one request share its identifier.
    pub request: Option<u64>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// In-memory span store.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Records an interval measured by the caller; returns its id (`None`
    /// when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name, parent, request, start, end });
        Some(self.spans.len() - 1)
    }

    /// Sets the end of a span opened with `start == end`.
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end = end;
        }
    }

    /// A span's duration minus the part of it its direct children cover.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(Instant, Instant)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort();
        let mut covered = 0.0;
        let mut cursor = span.start;
        for (a, b) in children {
            let a = a.max(cursor);
            if b > a {
                covered += b.duration_since(a).as_secs_f64();
                cursor = b;
            }
        }
        span.seconds() - covered
    }

    /// Every span as a JSON array; times are microseconds since the run
    /// started.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"request\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
                us(s.start),
                us(s.end)
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", None, None, now, now), None);
        assert_eq!(t.to_json(), "[]");
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(true);
        let s = Instant::now();
        let ms = |n| s + Duration::from_millis(n);
        let root = t.record("root", None, None, s, ms(100)).unwrap();
        // Overlapping children cover [10, 50); one more covers [60, 70).
        t.record("a", Some(root), Some(1), ms(10), ms(40));
        t.record("b", Some(root), Some(1), ms(30), ms(50));
        t.record("c", Some(root), None, ms(60), ms(70));
        let own = t.self_seconds(root);
        assert!((own - 0.050).abs() < 1e-9, "{own}");
    }
}
