//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Each span is a direct child of either an operation (op-phase spans,
//! whose sum is compared with the op's wall time) or of a set-up. The
//! program itself is not instrumented; spans sit at the public API.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which root a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    Setup(u32),
    Op(u64),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub parent: Parent,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// Span recorder. While `on` is false, [`Trace::layer`] only calls its
/// closure.
#[derive(Debug)]
pub struct Trace {
    pub on: bool,
    parent: Parent,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            on: false,
            parent: Parent::Setup(0),
            spans: Vec::new(),
        }
    }

    /// Sets the root that following spans belong to.
    pub fn enter(&mut self, parent: Parent) {
        self.parent = parent;
    }

    /// Runs `f` inside a span of `layer` when tracing is on.
    pub fn layer<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            parent: self.parent,
            start,
            end,
        });
        r
    }

    /// Mean duration per call of every layer, in milliseconds.
    pub fn layer_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut acc: BTreeMap<&'static str, (f64, u32)> = BTreeMap::new();
        for s in &self.spans {
            let e = acc.entry(s.layer).or_default();
            e.0 += s.dur().as_secs_f64() * 1e3;
            e.1 += 1;
        }
        acc.into_iter()
            .map(|(k, (sum, n))| (k, sum / f64::from(n)))
            .collect()
    }

    /// Sum of op-phase span durations of op `op`.
    pub fn op_covered(&self, op: u64) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent == Parent::Op(op))
            .map(Span::dur)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_attributes_to_the_current_root() {
        let mut t = Trace::new();
        assert_eq!(t.layer("a", || 1), 1);
        assert!(t.layer_ms().is_empty());
        t.on = true;
        t.enter(Parent::Op(3));
        t.layer("a", || std::thread::sleep(Duration::from_millis(2)));
        t.layer("b", || std::thread::sleep(Duration::from_millis(5)));
        assert!(t.op_covered(3) >= Duration::from_millis(7));
        assert_eq!(t.op_covered(4), Duration::ZERO);
        let ms = t.layer_ms();
        assert!(ms["a"] >= 2.0 && ms["b"] >= 5.0);
    }
}
