//! Host-time spans the benchmark records around its own calls into the
//! library's public functions. Nothing inside the library is
//! instrumented: a span covers exactly one call made from this crate.
//!
//! Every rank is a fiber on one OS thread, so a span around a call that
//! parks also contains other ranks' execution. Spans therefore carry a
//! [`Kind`]: per-rank time is summed only for calls that never park; a
//! call that may park is reduced to its cluster-wide span, from the
//! earliest rank's entry to the latest rank's exit of its k-th occurrence.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// How the host time of a span may be aggregated across ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The call never parks its rank: the span is that rank's own time.
    Local,
    /// The call may park: only the cluster-wide span is meaningful.
    Parks,
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    /// Index of the enclosing span on the same rank.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// What one rank (or the main thread) recorded.
#[derive(Default, Debug)]
pub struct Log {
    /// Layer spans; empty unless tracing is on.
    pub spans: Vec<Span>,
    /// End-to-end op spans, recorded with tracing on or off.
    pub ops: Vec<(u64, u64)>,
    /// Entry into the first measured op and exit from the measured phase.
    pub phase: (u64, u64),
}

/// Span recorder of one rank. Timestamps are nanoseconds since the
/// repetition's epoch, shared by every rank so spans compare across ranks.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    log: RefCell<Log>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            log: RefCell::new(Log::default()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a layer span named `name` (a plain call when
    /// tracing is off).
    pub fn span<R>(&self, name: &'static str, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut log = self.log.borrow_mut();
            let parent = self.open.borrow().last().copied();
            log.spans.push(Span {
                name,
                kind,
                parent,
                start: 0,
                end: 0,
            });
            log.spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = self.now();
        let r = f();
        let end = self.now();
        self.open.borrow_mut().pop();
        let mut log = self.log.borrow_mut();
        log.spans[idx].start = start;
        log.spans[idx].end = end;
        r
    }

    /// Run `f` as one end-to-end op.
    pub fn op<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.log.borrow_mut().ops.push((start, end));
        r
    }

    pub fn phase_start(&self) {
        let t = self.now();
        self.log.borrow_mut().phase.0 = t;
    }

    pub fn phase_end(&self) {
        let t = self.now();
        self.log.borrow_mut().phase.1 = t;
    }

    pub fn into_log(self) -> Log {
        self.log.into_inner()
    }
}

/// Cluster-wide op spans: the k-th op runs from the earliest rank's entry
/// to the latest rank's exit, over the ranks that took part in it.
pub fn cluster_ops(logs: &[&Log]) -> Vec<(u64, u64)> {
    let n = logs.iter().map(|l| l.ops.len()).max().unwrap_or(0);
    (0..n)
        .map(|k| {
            let mut span = (u64::MAX, 0);
            for op in logs.iter().filter_map(|l| l.ops.get(k)) {
                span.0 = span.0.min(op.0);
                span.1 = span.1.max(op.1);
            }
            span
        })
        .collect()
}

/// Host nanoseconds per span name over one repetition: `(total, self)`,
/// where self time is the span minus the part of it its child spans
/// cover. [`Kind::Local`] spans are summed over ranks; [`Kind::Parks`]
/// spans are reduced to cluster-wide spans first, and their self time
/// subtracts only cluster-wide children. Ranks drift apart, so the
/// cluster-wide spans of consecutive children overlap: their union is
/// subtracted, not their sum.
pub fn layer_ns(logs: &[&Log]) -> BTreeMap<&'static str, (f64, f64)> {
    type Key = (&'static str, usize);
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    // Cluster-wide intervals of parking spans, keyed by (name, k).
    let mut cluster: BTreeMap<Key, (u64, u64, Option<Key>)> = BTreeMap::new();
    for log in logs {
        let mut occurrence: BTreeMap<&'static str, usize> = BTreeMap::new();
        let keys: Vec<Key> = log
            .spans
            .iter()
            .map(|s| {
                let k = occurrence.entry(s.name).or_insert(0);
                *k += 1;
                (s.name, *k - 1)
            })
            .collect();
        let mut local_children = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if let (Kind::Local, Some(p)) = (s.kind, s.parent) {
                if log.spans[p].kind == Kind::Local {
                    local_children[p] += s.end - s.start;
                }
            }
        }
        for (i, s) in log.spans.iter().enumerate() {
            match s.kind {
                Kind::Local => {
                    let e = out.entry(s.name).or_default();
                    let d = s.end - s.start;
                    e.0 += d as f64;
                    e.1 += d.saturating_sub(local_children[i]) as f64;
                }
                Kind::Parks => {
                    let parent = s
                        .parent
                        .filter(|&p| log.spans[p].kind == Kind::Parks)
                        .map(|p| keys[p]);
                    let e = cluster.entry(keys[i]).or_insert((u64::MAX, 0, parent));
                    e.0 = e.0.min(s.start);
                    e.1 = e.1.max(s.end);
                }
            }
        }
    }
    let mut children: BTreeMap<Key, Vec<(u64, u64)>> = BTreeMap::new();
    for &(start, end, parent) in cluster.values() {
        if let Some(p) = parent {
            children.entry(p).or_default().push((start, end));
        }
    }
    for (key, &(start, end, _)) in &cluster {
        let d = end - start;
        let covered = children
            .get_mut(key)
            .map_or(0, |c| covered_ns(c, (start, end)));
        let e = out.entry(key.0).or_default();
        e.0 += d as f64;
        e.1 += (d - covered) as f64;
    }
    out
}

/// Nanoseconds of `within` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], within: (u64, u64)) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, within.0);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(within.1));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, kind: Kind, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            name,
            kind,
            parent,
            start: s,
            end: e,
        }
    }

    #[test]
    fn parking_spans_reduce_to_cluster_spans_and_self_time() {
        let a = Log {
            spans: vec![
                span("ksp", Kind::Parks, None, 0, 100),
                span("pc", Kind::Parks, Some(0), 10, 40),
                span("pc", Kind::Parks, Some(0), 50, 70),
            ],
            ..Log::default()
        };
        let b = Log {
            spans: vec![
                span("ksp", Kind::Parks, None, 5, 110),
                span("pc", Kind::Parks, Some(0), 20, 45),
                span("pc", Kind::Parks, Some(0), 60, 80),
            ],
            ..Log::default()
        };
        let l = layer_ns(&[&a, &b]);
        assert_eq!(l["ksp"], (110.0, 110.0 - 35.0 - 30.0));
        assert_eq!(l["pc"], (65.0, 65.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut c = vec![(10, 40), (30, 60), (90, 120)];
        assert_eq!(covered_ns(&mut c, (0, 100)), 50 + 10);
    }

    #[test]
    fn local_spans_sum_over_ranks() {
        let a = Log {
            spans: vec![
                span("send", Kind::Local, None, 0, 10),
                span("build", Kind::Local, Some(0), 2, 5),
            ],
            ..Log::default()
        };
        let b = Log {
            spans: vec![span("send", Kind::Local, None, 0, 4)],
            ..Log::default()
        };
        let l = layer_ns(&[&a, &b]);
        assert_eq!(l["send"], (14.0, 11.0));
        assert_eq!(l["build"], (3.0, 3.0));
    }

    #[test]
    fn ops_take_earliest_entry_and_latest_exit() {
        let a = Log {
            ops: vec![(0, 10), (20, 30)],
            ..Log::default()
        };
        let b = Log {
            ops: vec![(2, 12)],
            ..Log::default()
        };
        assert_eq!(cluster_ops(&[&a, &b]), vec![(0, 12), (20, 30)]);
    }
}
