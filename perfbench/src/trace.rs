//! In-memory span recording for traced runs.
//!
//! A span is one call into a layer: its name, start, end and the span
//! that caused it. Spans stay in memory while the run executes and are
//! written out once, when it ends. A disabled tracer records nothing, so
//! the measured (untraced) runs pay only a branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Laid out by the benchmark from a duration the layer reported,
    /// not timed around a call (the engine phases inside a builder).
    pub synthetic: bool,
}

/// Span recorder for one thread of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run, merged back with
    /// [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Self::new(self.enabled, self.origin)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting at `start`; close it with [`Tracer::close`].
    /// Returns `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, start: Instant) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            synthetic: false,
        });
        Some(id)
    }

    /// Sets the end of an open span.
    pub fn close(&mut self, id: Option<u32>, end: Instant) {
        if let Some(id) = id {
            let end_ns = self.ns(end);
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Records a finished span in one call.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        let id = self.open(name, parent, start);
        self.close(id, end);
        id
    }

    /// Lays out child spans of `parent` back to back from its start,
    /// one per `(name, seconds)`, clamped to the parent's end. Used for
    /// layer time a callee reports but the benchmark cannot wrap.
    pub fn record_phases(&mut self, parent: Option<u32>, phases: &[(&'static str, f64)]) {
        let Some(pid) = parent else { return };
        let (mut at, end) = {
            let p = &self.spans[pid as usize];
            (p.start_ns, p.end_ns)
        };
        for &(name, secs) in phases {
            let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
            let stop = (at + (secs * 1e9) as u64).min(end);
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: at,
                end_ns: stop,
                synthetic: true,
            });
            at = stop;
        }
    }

    /// Copies another thread's spans into this tracer, renumbering them.
    /// Its top-level spans become children of `under`.
    pub fn absorb(&mut self, other: &Tracer, under: Option<u32>) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        for s in &other.spans {
            let mut s = s.clone();
            s.id += offset;
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => under,
            };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in seconds: each span's duration minus
    /// the part of it its children cover (overlapping children, such as
    /// two threads under one root, are counted once).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The trace file body: every span tagged with its workload and run.
    pub fn to_value(&self, workload: &str, run: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(u64::from(s.id))),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
                    ),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    ("synthetic".into(), Value::Bool(s.synthetic)),
                    ("workload".into(), Value::Str(workload.into())),
                    ("run".into(), Value::Str(run.into())),
                ])
            })
            .collect();
        let self_time = self
            .self_times()
            .into_iter()
            .map(|(name, secs)| (name.to_string(), Value::Float(secs)))
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("run".into(), Value::Str(run.into())),
            ("self_time_s".into(), Value::Object(self_time)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_once() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(true, t0);
        let root = tr.record("root", None, t0, t0 + Duration::from_millis(10));
        let mut other = tr.fork();
        other.record("a", None, t0, t0 + Duration::from_millis(4));
        tr.record(
            "b",
            root,
            t0 + Duration::from_millis(2),
            t0 + Duration::from_millis(6),
        );
        tr.absorb(&other, root);
        let st = tr.self_times();
        assert!((st["root"] - 0.004).abs() < 1e-9, "{st:?}");
        assert!((st["a"] - 0.004).abs() < 1e-9);
        assert_eq!(tr.spans()[2].parent, root);
    }

    #[test]
    fn phases_are_clamped_inside_their_parent() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(true, t0);
        let p = tr.record("build", None, t0, t0 + Duration::from_millis(5));
        tr.record_phases(p, &[("map", 0.003), ("reduce", 0.004)]);
        let s = tr.spans();
        assert_eq!(s[2].end_ns, s[0].end_ns);
        assert!(s.iter().skip(1).all(|c| c.parent == p && c.synthetic));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(false, t0);
        assert_eq!(tr.record("x", None, t0, t0), None);
        assert!(tr.spans().is_empty());
    }
}
