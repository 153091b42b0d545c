//! Property tests of type commit at the edges of 64-bit arithmetic:
//!
//! * every construction over extreme counts, strides, sizes and nesting
//!   returns — `Ok` with a size equal to the exact (128-bit) product of
//!   its counts, or an `Err` — within a bounded time, because dense runs
//!   commit in time proportional to the segments they produce;
//! * a type whose exact size does not fit in `i64` is an error, never a
//!   wrapped value;
//! * on small parameters the committed segments, lower bound and extent
//!   equal a naive piece-by-piece flattening in 128-bit arithmetic, so the
//!   run-collapsing commit produces exactly the type map it replaces.

use std::time::{Duration, Instant};

use ncd_datatype::{Datatype, Segment, TypeError};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Wall-clock budget for one commit. Real cases take microseconds; a
/// commit that walked an extreme count piece by piece would not return.
const COMMIT_BUDGET: Duration = Duration::from_secs(5);

/// Naive flattening stops (and skips the comparison) past this many steps.
const STEP_BUDGET: usize = 20_000;

#[derive(Clone, Debug)]
enum Spec {
    Double,
    Byte,
    Contiguous(usize, Box<Spec>),
    Vector(usize, usize, i64, Box<Spec>),
    Hvector(usize, usize, i64, Box<Spec>),
    /// `(size, subsize, start)` per dimension.
    Subarray(Vec<(usize, usize, usize)>, Box<Spec>),
    Resized(i64, i64, Box<Spec>),
}

const EXTREME_COUNTS: [usize; 5] = [1 << 31, 1 << 40, 1 << 62, i64::MAX as usize, usize::MAX];
const EXTREME_STRIDES: [i64; 5] = [1 << 40, i64::MAX / 2, i64::MIN / 2, i64::MAX, i64::MIN];

/// Counts: small, or (when `extreme`) also far beyond the segment limit.
fn count(extreme: bool) -> BoxedStrategy<usize> {
    if extreme {
        prop_oneof![0usize..4, (0usize..5).prop_map(|i| EXTREME_COUNTS[i])].boxed()
    } else {
        (0usize..5).boxed()
    }
}

fn stride(extreme: bool) -> BoxedStrategy<i64> {
    if extreme {
        prop_oneof![-3i64..5, (0usize..5).prop_map(|i| EXTREME_STRIDES[i])].boxed()
    } else {
        (-3i64..7).boxed()
    }
}

fn dims(extreme: bool) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    let dim = (count(extreme), count(extreme), count(extreme));
    proptest::collection::vec(dim, 1..4).prop_map(|dims| {
        dims.into_iter()
            .map(|(size, sub, start)| {
                let size = size.max(1);
                let sub = sub.min(size);
                (size, sub, start.min(size - sub))
            })
            .collect()
    })
}

fn arb_spec(extreme: bool) -> impl Strategy<Value = Spec> {
    let leaf = prop_oneof![Just(Spec::Double), Just(Spec::Byte)];
    let extent = if extreme {
        prop_oneof![0i64..40, Just(i64::MAX)].boxed()
    } else {
        (0i64..40).boxed()
    };
    leaf.prop_recursive(3, 64, 4, move |inner| {
        prop_oneof![
            (count(extreme), inner.clone()).prop_map(|(n, t)| Spec::Contiguous(n, Box::new(t))),
            (
                count(extreme),
                count(extreme),
                stride(extreme),
                inner.clone()
            )
                .prop_map(|(c, b, s, t)| Spec::Vector(c, b, s, Box::new(t))),
            (
                count(extreme),
                count(extreme),
                stride(extreme),
                inner.clone()
            )
                .prop_map(|(c, b, s, t)| Spec::Hvector(c, b, s, Box::new(t))),
            (dims(extreme), inner.clone()).prop_map(|(d, t)| Spec::Subarray(d, Box::new(t))),
            (-4i64..5, extent.clone(), inner.clone()).prop_map(|(lb, ext, t)| Spec::Resized(
                lb,
                ext,
                Box::new(t)
            )),
        ]
    })
}

fn build(spec: &Spec) -> Result<Datatype, TypeError> {
    Ok(match spec {
        Spec::Double => Datatype::double(),
        Spec::Byte => Datatype::byte(),
        Spec::Contiguous(n, t) => Datatype::contiguous(*n, &build(t)?)?,
        Spec::Vector(c, b, s, t) => Datatype::vector(*c, *b, *s, &build(t)?)?,
        Spec::Hvector(c, b, s, t) => Datatype::hvector(*c, *b, *s, &build(t)?)?,
        Spec::Subarray(dims, t) => {
            let sizes: Vec<usize> = dims.iter().map(|d| d.0).collect();
            let subs: Vec<usize> = dims.iter().map(|d| d.1).collect();
            let starts: Vec<usize> = dims.iter().map(|d| d.2).collect();
            Datatype::subarray(&sizes, &subs, &starts, &build(t)?)?
        }
        Spec::Resized(lb, ext, t) => Datatype::resized(*lb, *ext, &build(t)?)?,
    })
}

/// Exact packed size of one instance (saturating far above `i64`).
fn exact_size(spec: &Spec) -> i128 {
    match spec {
        Spec::Double => 8,
        Spec::Byte => 1,
        Spec::Contiguous(n, t) => (*n as i128).saturating_mul(exact_size(t)),
        Spec::Vector(c, b, _, t) | Spec::Hvector(c, b, _, t) => (*c as i128)
            .saturating_mul(*b as i128)
            .saturating_mul(exact_size(t)),
        Spec::Subarray(dims, t) => dims
            .iter()
            .fold(exact_size(t), |acc, d| acc.saturating_mul(d.1 as i128)),
        Spec::Resized(_, _, t) => exact_size(t),
    }
}

/// True when every parameter of `spec` is small (no extreme value).
fn is_small(spec: &Spec) -> bool {
    match spec {
        Spec::Double | Spec::Byte => true,
        Spec::Contiguous(n, t) => *n < 5 && is_small(t),
        Spec::Vector(c, b, s, t) | Spec::Hvector(c, b, s, t) => {
            *c < 5 && *b < 5 && s.unsigned_abs() < 7 && is_small(t)
        }
        Spec::Subarray(dims, t) => dims.iter().all(|d| d.0 < 5) && is_small(t),
        Spec::Resized(_, ext, t) => *ext < 40 && is_small(t),
    }
}

/// A type map in 128-bit arithmetic: coalesced `(offset, len)` pieces plus
/// lower bound and extent.
struct Naive {
    pieces: Vec<(i128, i128)>,
    lb: i128,
    extent: i128,
}

/// Naive flattening: every child instance emitted piece by piece, with
/// the coalescing rule of an MPI flattened iovec. `None` once the step
/// budget is spent or 128-bit arithmetic overflows.
struct Flattener {
    steps: usize,
}

impl Flattener {
    fn step(&mut self) -> Option<()> {
        self.steps += 1;
        (self.steps <= STEP_BUDGET).then_some(())
    }

    /// `n` instances of `c`, instance `i` at `at + i * c.extent`.
    fn run(&mut self, out: &mut Vec<(i128, i128)>, c: &Naive, at: i128, n: usize) -> Option<()> {
        for i in 0..n {
            self.step()?;
            let base = at.checked_add((i as i128).checked_mul(c.extent)?)?;
            for &(o, len) in &c.pieces {
                let off = base.checked_add(o)?;
                match out.last_mut() {
                    Some(last) if last.0 + last.1 == off => last.1 += len,
                    _ => out.push((off, len)),
                }
            }
        }
        Some(())
    }

    /// Row-major subarray walk, one dimension per level.
    fn rows(
        &mut self,
        out: &mut Vec<(i128, i128)>,
        dims: &[(usize, usize, usize)],
        strides: &[i128],
        c: &Naive,
        at: i128,
    ) -> Option<()> {
        let (_, sub, start) = dims[0];
        let here = at.checked_add((start as i128).checked_mul(strides[0])?)?;
        if dims.len() == 1 {
            return self.run(out, c, here, sub);
        }
        for i in 0..sub {
            self.step()?;
            let next = here.checked_add((i as i128).checked_mul(strides[0])?)?;
            self.rows(out, &dims[1..], &strides[1..], c, next)?;
        }
        Some(())
    }

    fn flatten(&mut self, spec: &Spec) -> Option<Naive> {
        let mut out = Vec::new();
        let mut resized = None;
        match spec {
            Spec::Double => out.push((0, 8)),
            Spec::Byte => out.push((0, 1)),
            Spec::Contiguous(n, t) => {
                let c = self.flatten(t)?;
                self.run(&mut out, &c, 0, *n)?;
            }
            Spec::Vector(count, b, s, t) | Spec::Hvector(count, b, s, t) => {
                let c = self.flatten(t)?;
                let stride = match spec {
                    Spec::Vector(..) => (*s as i128).checked_mul(c.extent)?,
                    _ => *s as i128,
                };
                for i in 0..*count {
                    self.step()?;
                    self.run(&mut out, &c, (i as i128).checked_mul(stride)?, *b)?;
                }
            }
            Spec::Subarray(dims, t) => {
                let c = self.flatten(t)?;
                let mut strides = vec![c.extent; dims.len()];
                for d in (0..dims.len() - 1).rev() {
                    strides[d] = strides[d + 1].checked_mul(dims[d + 1].0 as i128)?;
                }
                self.rows(&mut out, dims, &strides, &c, 0)?;
            }
            Spec::Resized(lb, ext, t) => {
                out = self.flatten(t)?.pieces;
                resized = Some((*lb as i128, *ext as i128));
            }
        }
        let (lb, extent) = resized.unwrap_or_else(|| {
            let lb = out.iter().map(|p| p.0).min().unwrap_or(0);
            let ub = out.iter().map(|p| p.0 + p.1).max().unwrap_or(0);
            (lb, ub - lb)
        });
        Some(Naive {
            pieces: out,
            lb,
            extent,
        })
    }
}

fn as_pieces(segments: &[Segment]) -> Vec<(i128, i128)> {
    segments
        .iter()
        .map(|s| (s.offset as i128, s.len as i128))
        .collect()
}

/// Commit `spec` within the time budget and check it against the exact
/// size and, where the naive flattening finishes, the naive type map.
fn check(spec: &Spec) -> Result<(), TestCaseError> {
    let t0 = Instant::now();
    let built = build(spec);
    let took = t0.elapsed();
    prop_assert!(
        took < COMMIT_BUDGET,
        "commit took {:?} for {:?}",
        took,
        spec
    );
    let size = exact_size(spec);
    match &built {
        Ok(dt) => {
            prop_assert_eq!(dt.size() as i128, size, "size of {:?}", spec);
            let summed: i128 = dt.segments().iter().map(|s| s.len as i128).sum();
            prop_assert_eq!(summed, size, "segments of {:?}", spec);
            prop_assert!(dt.extent() >= 0, "negative extent for {:?}", spec);
            for s in dt.segments() {
                prop_assert!(s.offset.checked_add(s.len as i64).is_some());
            }
        }
        Err(e) => {
            prop_assert!(
                !is_small(spec),
                "small type {:?} failed to commit: {}",
                spec,
                e
            );
            prop_assert!(
                matches!(
                    e,
                    TypeError::Overflow { .. } | TypeError::TooManySegments { .. }
                ),
                "unexpected error {} for {:?}",
                e,
                spec
            );
        }
    }
    if size > i64::MAX as i128 {
        prop_assert!(built.is_err(), "{:?} must not wrap its size {}", spec, size);
    }
    let reference = Flattener { steps: 0 }.flatten(spec);
    if let (Ok(dt), Some(reference)) = (&built, reference) {
        prop_assert_eq!(
            as_pieces(dt.segments()),
            reference.pieces,
            "type map of {:?}",
            spec
        );
        prop_assert_eq!(dt.lb() as i128, reference.lb, "lb of {:?}", spec);
        prop_assert_eq!(
            dt.extent() as i128,
            reference.extent,
            "extent of {:?}",
            spec
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn commit_terminates_and_never_wraps(spec in arb_spec(true)) {
        check(&spec)?;
    }

    #[test]
    fn small_types_commit_to_the_naive_type_map(spec in arb_spec(false)) {
        check(&spec)?;
    }
}
