//! MPI-style derived datatype descriptions.
//!
//! A [`Datatype`] is a recursive description of a (possibly noncontiguous)
//! memory layout, mirroring the MPI derived-datatype constructors:
//! contiguous, vector/hvector, indexed/hindexed/indexed-block, struct,
//! subarray and resized, over a handful of primitive types.
//!
//! Types are *committed at construction*: the tree is flattened into an
//! ordered list of coalesced contiguous [`Segment`]s (the *type map*), which
//! is what the pack engines and cursors consume. Flattening once and walking
//! a flat array is how production MPI implementations process datatypes
//! (MPICH's "dataloops" serve the same purpose), and it is the structure the
//! paper's context/search discussion is about: a *context* is a position in
//! this walk, and *searching* is re-walking the segment list from the start.

use std::sync::Arc;

use crate::error::{Result, TypeError};

/// Hard cap on materialized segments per type instance, to keep pathological
/// constructions from exhausting memory. Generous enough for every workload
/// in the paper (the largest, the 1024x1024 transpose column type, needs
/// 1024 segments per instance).
pub const MAX_SEGMENTS: usize = 1 << 24;

/// Primitive (leaf) datatypes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Primitive {
    Double,
    Float,
    Int32,
    Int64,
    UInt8,
    Char,
}

impl Primitive {
    /// Size in bytes.
    pub fn size(self) -> usize {
        match self {
            Primitive::Double | Primitive::Int64 => 8,
            Primitive::Float | Primitive::Int32 => 4,
            Primitive::UInt8 | Primitive::Char => 1,
        }
    }
}

/// One maximal contiguous piece of a flattened datatype, in pack order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Byte displacement from the start of the buffer (for replica 0).
    pub offset: i64,
    /// Length in bytes.
    pub len: usize,
}

impl Segment {
    pub fn end(&self) -> i64 {
        self.offset + self.len as i64
    }
}

/// A field of a struct datatype: `count` copies of `dtype` starting at byte
/// displacement `disp`.
#[derive(Clone, Debug)]
pub struct StructField {
    pub disp: i64,
    pub count: usize,
    pub dtype: Datatype,
}

#[derive(Clone, Debug)]
enum Kind {
    Primitive(Primitive),
    Contiguous {
        count: usize,
        child: Datatype,
    },
    Vector {
        count: usize,
        blocklen: usize,
        /// Stride between block starts, in units of the child extent.
        stride: i64,
        child: Datatype,
    },
    Hvector {
        count: usize,
        blocklen: usize,
        /// Stride between block starts, in bytes.
        stride_bytes: i64,
        child: Datatype,
    },
    /// Blocks of `(displacement in child extents, block length in children)`.
    Indexed {
        blocks: Vec<(i64, usize)>,
        child: Datatype,
    },
    /// Blocks of `(displacement in bytes, block length in children)`.
    Hindexed {
        blocks: Vec<(i64, usize)>,
        child: Datatype,
    },
    IndexedBlock {
        blocklen: usize,
        /// Displacements in child extents.
        disps: Vec<i64>,
        child: Datatype,
    },
    Struct {
        fields: Vec<StructField>,
    },
    Subarray {
        sizes: Vec<usize>,
        subsizes: Vec<usize>,
        starts: Vec<usize>,
        child: Datatype,
    },
    Resized {
        lb: i64,
        extent: i64,
        child: Datatype,
    },
}

#[derive(Debug)]
struct Inner {
    kind: Kind,
    /// Packed size in bytes of one instance (sum of segment lengths).
    size: usize,
    /// Lower bound of the type map, in bytes.
    lb: i64,
    /// Extent: spacing between consecutive instances in an array of this
    /// type, in bytes.
    extent: i64,
    /// Flattened, coalesced type map for one instance (replica 0).
    segments: Vec<Segment>,
}

/// A committed derived datatype. Cheap to clone (`Arc` inside).
#[derive(Clone, Debug)]
pub struct Datatype(Arc<Inner>);

impl Datatype {
    // ----- primitive constructors -------------------------------------

    pub fn double() -> Datatype {
        Self::primitive(Primitive::Double)
    }

    pub fn float() -> Datatype {
        Self::primitive(Primitive::Float)
    }

    pub fn int32() -> Datatype {
        Self::primitive(Primitive::Int32)
    }

    pub fn int64() -> Datatype {
        Self::primitive(Primitive::Int64)
    }

    pub fn byte() -> Datatype {
        Self::primitive(Primitive::UInt8)
    }

    pub fn primitive(p: Primitive) -> Datatype {
        let size = p.size();
        Datatype(Arc::new(Inner {
            kind: Kind::Primitive(p),
            size,
            lb: 0,
            extent: size as i64,
            segments: vec![Segment {
                offset: 0,
                len: size,
            }],
        }))
    }

    // ----- derived constructors ---------------------------------------

    /// `count` consecutive copies of `child` (MPI_Type_contiguous).
    pub fn contiguous(count: usize, child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::Contiguous {
            count,
            child: child.clone(),
        })
    }

    /// `count` blocks of `blocklen` children, block starts `stride` child
    /// extents apart (MPI_Type_vector).
    pub fn vector(
        count: usize,
        blocklen: usize,
        stride: i64,
        child: &Datatype,
    ) -> Result<Datatype> {
        Self::commit(Kind::Vector {
            count,
            blocklen,
            stride,
            child: child.clone(),
        })
    }

    /// Like [`Datatype::vector`] but with the stride in bytes
    /// (MPI_Type_create_hvector).
    pub fn hvector(
        count: usize,
        blocklen: usize,
        stride_bytes: i64,
        child: &Datatype,
    ) -> Result<Datatype> {
        Self::commit(Kind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child: child.clone(),
        })
    }

    /// Blocks of `(displacement in child extents, blocklen)` (MPI_Type_indexed).
    pub fn indexed(blocks: &[(i64, usize)], child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::Indexed {
            blocks: blocks.to_vec(),
            child: child.clone(),
        })
    }

    /// Blocks of `(displacement in bytes, blocklen)` (MPI_Type_create_hindexed).
    pub fn hindexed(blocks: &[(i64, usize)], child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::Hindexed {
            blocks: blocks.to_vec(),
            child: child.clone(),
        })
    }

    /// Fixed-length blocks at the given displacements, in child extents
    /// (MPI_Type_create_indexed_block).
    pub fn indexed_block(blocklen: usize, disps: &[i64], child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::IndexedBlock {
            blocklen,
            disps: disps.to_vec(),
            child: child.clone(),
        })
    }

    /// Heterogeneous fields at explicit byte displacements
    /// (MPI_Type_create_struct).
    pub fn structure(fields: &[StructField]) -> Result<Datatype> {
        Self::commit(Kind::Struct {
            fields: fields.to_vec(),
        })
    }

    /// An n-dimensional subarray of an n-dimensional array in row-major (C)
    /// order (MPI_Type_create_subarray).
    pub fn subarray(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        child: &Datatype,
    ) -> Result<Datatype> {
        Self::commit(Kind::Subarray {
            sizes: sizes.to_vec(),
            subsizes: subsizes.to_vec(),
            starts: starts.to_vec(),
            child: child.clone(),
        })
    }

    /// Override lower bound and extent (MPI_Type_create_resized).
    pub fn resized(lb: i64, extent: i64, child: &Datatype) -> Result<Datatype> {
        Self::commit(Kind::Resized {
            lb,
            extent,
            child: child.clone(),
        })
    }

    // ----- accessors ----------------------------------------------------

    /// Packed size in bytes of one instance.
    pub fn size(&self) -> usize {
        self.0.size
    }

    /// Extent in bytes (spacing between array elements of this type).
    pub fn extent(&self) -> i64 {
        self.0.extent
    }

    /// Lower bound in bytes.
    pub fn lb(&self) -> i64 {
        self.0.lb
    }

    /// Name of the outermost constructor (for diagnostics and reports).
    pub fn constructor_name(&self) -> &'static str {
        match &self.0.kind {
            Kind::Primitive(_) => "primitive",
            Kind::Contiguous { .. } => "contiguous",
            Kind::Vector { .. } => "vector",
            Kind::Hvector { .. } => "hvector",
            Kind::Indexed { .. } => "indexed",
            Kind::Hindexed { .. } => "hindexed",
            Kind::IndexedBlock { .. } => "indexed_block",
            Kind::Struct { .. } => "struct",
            Kind::Subarray { .. } => "subarray",
            Kind::Resized { .. } => "resized",
        }
    }

    /// Number of maximal contiguous segments per instance — the length of
    /// the type *signature* the engines walk.
    pub fn num_segments(&self) -> usize {
        self.0.segments.len()
    }

    /// The flattened type map of one instance.
    pub fn segments(&self) -> &[Segment] {
        &self.0.segments
    }

    /// Average contiguous segment length in bytes (density measure); 0 for
    /// empty types.
    pub fn avg_segment_len(&self) -> usize {
        if self.0.segments.is_empty() {
            0
        } else {
            self.0.size / self.0.segments.len()
        }
    }

    /// True if every byte of the type map is one contiguous run starting at
    /// offset 0 whose length equals the extent — the fast-path test used to
    /// skip datatype processing entirely.
    pub fn is_contiguous(&self) -> bool {
        self.0.segments.len() <= 1
            && self.0.lb == 0
            && self.0.extent == self.0.size as i64
            && self
                .0
                .segments
                .first()
                .is_none_or(|s| s.offset == 0 && s.len == self.0.size)
    }

    // ----- commit (flatten) ----------------------------------------------

    fn commit(kind: Kind) -> Result<Datatype> {
        validate(&kind)?;
        let mut sink = Sink::new(MAX_SEGMENTS);
        flatten(&kind, 0, &mut sink)?;
        let segments = sink.segs;
        // Each segment's length fits in i64 (the sink checks), so the
        // casts below are exact.
        let size = segments
            .iter()
            .try_fold(0i64, |acc, s| acc.checked_add(s.len as i64))
            .ok_or(overflow("size"))? as usize;
        let (lb, extent) = match &kind {
            Kind::Resized { lb, extent, .. } => (*lb, *extent),
            _ => {
                // "True extent": from the lowest to the highest byte touched.
                let lb = segments.iter().map(|s| s.offset).min().unwrap_or(0);
                let ub = segments.iter().map(Segment::end).max().unwrap_or(0);
                // Constructors that replicate a child must preserve the
                // child's own (possibly resized) spacing at the tail; using
                // the touched-byte bound is the MPI "true extent", which is
                // what all workloads in this workspace rely on.
                (lb, ub.checked_sub(lb).ok_or(overflow("extent"))?)
            }
        };
        Ok(Datatype(Arc::new(Inner {
            kind,
            size,
            lb,
            extent,
            segments,
        })))
    }
}

fn validate(kind: &Kind) -> Result<()> {
    let fail = |msg: String| Err(TypeError::Invalid(msg));
    match kind {
        Kind::Primitive(_) | Kind::Contiguous { .. } => Ok(()),
        // Overlapping vector blocks (|stride| < blocklen) are legal for
        // sends in MPI; we follow and accept them unconditionally.
        Kind::Vector { .. } => Ok(()),
        Kind::Hvector { .. } | Kind::Indexed { .. } | Kind::Hindexed { .. } => Ok(()),
        Kind::IndexedBlock { .. } | Kind::Struct { .. } => Ok(()),
        Kind::Subarray {
            sizes,
            subsizes,
            starts,
            ..
        } => {
            if sizes.is_empty() {
                return fail("subarray needs at least one dimension".into());
            }
            if sizes.len() != subsizes.len() || sizes.len() != starts.len() {
                return fail(format!(
                    "subarray dimension mismatch: sizes={}, subsizes={}, starts={}",
                    sizes.len(),
                    subsizes.len(),
                    starts.len()
                ));
            }
            for d in 0..sizes.len() {
                if starts[d]
                    .checked_add(subsizes[d])
                    .is_none_or(|end| end > sizes[d])
                {
                    return fail(format!(
                        "subarray dim {d}: start {} + subsize {} exceeds size {}",
                        starts[d], subsizes[d], sizes[d]
                    ));
                }
            }
            Ok(())
        }
        Kind::Resized { extent, .. } => {
            if *extent < 0 {
                fail("negative extents are not supported".into())
            } else {
                Ok(())
            }
        }
    }
}

fn overflow(what: &'static str) -> TypeError {
    TypeError::Overflow { what }
}

/// Checked byte-displacement arithmetic.
fn add(a: i64, b: i64) -> Result<i64> {
    a.checked_add(b).ok_or(overflow("displacement"))
}

fn mul(a: i64, b: i64) -> Result<i64> {
    a.checked_mul(b).ok_or(overflow("displacement"))
}

fn to_i64(n: usize) -> Result<i64> {
    i64::try_from(n).map_err(|_| overflow("displacement"))
}

/// Coalescing segment sink: adjacent-in-memory, consecutive-in-pack-order
/// pieces are merged, exactly like an MPI implementation's flattened iovec.
/// Every stored segment's length and end fit in `i64`.
struct Sink {
    segs: Vec<Segment>,
    limit: usize,
}

impl Sink {
    fn new(limit: usize) -> Self {
        Sink {
            segs: Vec::new(),
            limit,
        }
    }

    fn too_many(&self) -> TypeError {
        TypeError::TooManySegments {
            segments: self.limit + 1,
            limit: self.limit,
        }
    }

    fn push(&mut self, offset: i64, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let len_i = i64::try_from(len).map_err(|_| overflow("size"))?;
        add(offset, len_i)?;
        if let Some(last) = self.segs.last_mut() {
            if last.end() == offset {
                last.len = last
                    .len
                    .checked_add(len)
                    .filter(|&l| i64::try_from(l).is_ok())
                    .ok_or(overflow("size"))?;
                return Ok(());
            }
        }
        if self.segs.len() >= self.limit {
            return Err(self.too_many());
        }
        self.segs.push(Segment { offset, len });
        Ok(())
    }
}

/// Emit `unit` (segments relative to its start) displaced by `base`.
fn emit(unit: &[Segment], base: i64, sink: &mut Sink) -> Result<()> {
    for s in unit {
        sink.push(add(base, s.offset)?, s.len)?;
    }
    Ok(())
}

/// Emit `n` copies of the coalesced `unit`, copy `i` displaced by
/// `base + i * stride`.
///
/// A dense unit — one segment exactly `stride` long — tiles memory, so
/// its copies are one segment, emitted in O(1). Any other unit adds at
/// least one segment per copy after the first: the segments of a
/// coalesced unit never abut each other, and a lone segment whose length
/// is not the stride never abuts its next copy. So a run that cannot fit
/// under the sink's limit is refused before it is walked.
fn replicate(unit: &[Segment], stride: i64, base: i64, n: usize, sink: &mut Sink) -> Result<()> {
    if n == 0 || unit.is_empty() {
        return Ok(());
    }
    if let [seg] = unit {
        if seg.len as i64 == stride {
            let len = seg.len.checked_mul(n).ok_or(overflow("size"))?;
            return sink.push(add(base, seg.offset)?, len);
        }
    }
    if sink.segs.len().saturating_add(n - 1) > sink.limit {
        return Err(sink.too_many());
    }
    let mut copy = base;
    for i in 0..n {
        if i > 0 {
            copy = add(copy, stride)?;
        }
        emit(unit, copy, sink)?;
    }
    Ok(())
}

/// `n` consecutive copies of a committed child starting at `base`.
fn flatten_child_run(child: &Datatype, base: i64, n: usize, sink: &mut Sink) -> Result<()> {
    replicate(child.segments(), child.extent(), base, n, sink)
}

/// `count` blocks of `blocklen` children, block starts `stride` bytes
/// apart: one block is flattened once, then replicated (so abutting
/// blocks of a dense child coalesce like a dense child run).
fn flatten_blocks(
    child: &Datatype,
    blocklen: usize,
    count: usize,
    stride: i64,
    base: i64,
    sink: &mut Sink,
) -> Result<()> {
    if count == 0 {
        return Ok(());
    }
    let mut block = Sink::new(sink.limit);
    flatten_child_run(child, 0, blocklen, &mut block)?;
    replicate(&block.segs, stride, base, count, sink)
}

fn flatten(kind: &Kind, base: i64, sink: &mut Sink) -> Result<()> {
    match kind {
        Kind::Primitive(p) => sink.push(base, p.size()),
        Kind::Contiguous { count, child } => flatten_child_run(child, base, *count, sink),
        Kind::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            // The stride only matters from the second block on.
            let stride = if *count > 1 {
                mul(*stride, child.extent())?
            } else {
                0
            };
            flatten_blocks(child, *blocklen, *count, stride, base, sink)
        }
        Kind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => flatten_blocks(child, *blocklen, *count, *stride_bytes, base, sink),
        Kind::Indexed { blocks, child } => {
            for &(disp, blocklen) in blocks {
                let at = add(base, mul(disp, child.extent())?)?;
                flatten_child_run(child, at, blocklen, sink)?;
            }
            Ok(())
        }
        Kind::Hindexed { blocks, child } => {
            for &(disp, blocklen) in blocks {
                flatten_child_run(child, add(base, disp)?, blocklen, sink)?;
            }
            Ok(())
        }
        Kind::IndexedBlock {
            blocklen,
            disps,
            child,
        } => {
            for &disp in disps {
                let at = add(base, mul(disp, child.extent())?)?;
                flatten_child_run(child, at, *blocklen, sink)?;
            }
            Ok(())
        }
        Kind::Struct { fields } => {
            for f in fields {
                flatten_child_run(&f.dtype, add(base, f.disp)?, f.count, sink)?;
            }
            Ok(())
        }
        Kind::Subarray {
            sizes,
            subsizes,
            starts,
            child,
        } => {
            let unit = subarray_walk(sizes, subsizes, starts, child, sink.limit)?;
            emit(&unit, base, sink)
        }
        Kind::Resized { child, .. } => emit(child.segments(), base, sink),
    }
}

/// Flatten a row-major (C order) subarray relative to the array start:
/// the innermost run of children once, then each dimension's unit
/// replicated along the next outer dimension.
fn subarray_walk(
    sizes: &[usize],
    subsizes: &[usize],
    starts: &[usize],
    child: &Datatype,
    limit: usize,
) -> Result<Vec<Segment>> {
    let last = sizes.len() - 1;
    let ext = child.extent();
    let mut unit = Sink::new(limit);
    flatten_child_run(
        child,
        mul(to_i64(starts[last])?, ext)?,
        subsizes[last],
        &mut unit,
    )?;
    // Bytes between consecutive indices of dimension `d`.
    let mut stride = ext;
    for d in (0..last).rev() {
        stride = mul(stride, to_i64(sizes[d + 1])?)?;
        let mut outer = Sink::new(limit);
        let at = mul(to_i64(starts[d])?, stride)?;
        replicate(&unit.segs, stride, at, subsizes[d], &mut outer)?;
        unit = outer;
    }
    Ok(unit.segs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(Datatype::double().size(), 8);
        assert_eq!(Datatype::float().size(), 4);
        assert_eq!(Datatype::int32().size(), 4);
        assert_eq!(Datatype::int64().size(), 8);
        assert_eq!(Datatype::byte().size(), 1);
        assert!(Datatype::double().is_contiguous());
    }

    #[test]
    fn contiguous_coalesces_to_one_segment() {
        let t = Datatype::contiguous(10, &Datatype::double()).unwrap();
        assert_eq!(t.size(), 80);
        assert_eq!(t.extent(), 80);
        assert_eq!(t.num_segments(), 1);
        assert!(t.is_contiguous());
    }

    #[test]
    fn vector_column_of_matrix() {
        // First column of an 8x8 matrix of 3-double elements (paper Fig 6):
        // element = contiguous(3 doubles); column = vector(count=8,
        // blocklen=1, stride=8) of elements.
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        let col = Datatype::vector(8, 1, 8, &elem).unwrap();
        assert_eq!(col.size(), 8 * 24);
        assert_eq!(col.num_segments(), 8);
        assert_eq!(col.segments()[0], Segment { offset: 0, len: 24 });
        assert_eq!(
            col.segments()[1],
            Segment {
                offset: 8 * 24,
                len: 24
            }
        );
        // Extent spans to the end of the last block.
        assert_eq!(col.extent(), 7 * 8 * 24 + 24);
        assert!(!col.is_contiguous());
    }

    #[test]
    fn vector_with_blocklen_equal_stride_is_contiguous() {
        let t = Datatype::vector(4, 3, 3, &Datatype::double()).unwrap();
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.size(), 96);
    }

    #[test]
    fn hvector_matches_vector_when_stride_scaled() {
        let d = Datatype::double();
        let v = Datatype::vector(5, 2, 4, &d).unwrap();
        let h = Datatype::hvector(5, 2, 32, &d).unwrap();
        assert_eq!(v.segments(), h.segments());
        assert_eq!(v.size(), h.size());
    }

    #[test]
    fn indexed_blocks() {
        let d = Datatype::double();
        let t = Datatype::indexed(&[(0, 2), (5, 1), (9, 3)], &d).unwrap();
        assert_eq!(t.size(), 48);
        assert_eq!(t.num_segments(), 3);
        assert_eq!(t.segments()[1], Segment { offset: 40, len: 8 });
        assert_eq!(
            t.segments()[2],
            Segment {
                offset: 72,
                len: 24
            }
        );
    }

    #[test]
    fn indexed_adjacent_blocks_coalesce() {
        let d = Datatype::double();
        let t = Datatype::indexed(&[(0, 2), (2, 3)], &d).unwrap();
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.size(), 40);
    }

    #[test]
    fn hindexed_is_byte_displaced() {
        let d = Datatype::double();
        let t = Datatype::hindexed(&[(4, 1), (100, 2)], &d).unwrap();
        assert_eq!(t.segments()[0], Segment { offset: 4, len: 8 });
        assert_eq!(
            t.segments()[1],
            Segment {
                offset: 100,
                len: 16
            }
        );
    }

    #[test]
    fn indexed_block_type() {
        let d = Datatype::double();
        let t = Datatype::indexed_block(2, &[0, 10, 20], &d).unwrap();
        assert_eq!(t.size(), 48);
        assert_eq!(t.num_segments(), 3);
        assert_eq!(t.segments()[1].offset, 80);
    }

    #[test]
    fn struct_fields_at_displacements() {
        let t = Datatype::structure(&[
            StructField {
                disp: 0,
                count: 1,
                dtype: Datatype::int32(),
            },
            StructField {
                disp: 8,
                count: 2,
                dtype: Datatype::double(),
            },
        ])
        .unwrap();
        assert_eq!(t.size(), 20);
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.segments()[1], Segment { offset: 8, len: 16 });
    }

    #[test]
    fn subarray_2d_interior_block() {
        // 4x6 array of doubles, take the 2x3 block starting at (1,2).
        let t = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], &Datatype::double()).unwrap();
        assert_eq!(t.size(), 2 * 3 * 8);
        assert_eq!(t.num_segments(), 2);
        assert_eq!(
            t.segments()[0],
            Segment {
                offset: (6 + 2) * 8,
                len: 24
            }
        );
        assert_eq!(
            t.segments()[1],
            Segment {
                offset: (12 + 2) * 8,
                len: 24
            }
        );
    }

    #[test]
    fn subarray_full_row_coalesces() {
        let t = Datatype::subarray(&[4, 6], &[2, 6], &[1, 0], &Datatype::double()).unwrap();
        // Two full adjacent rows are one contiguous run.
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.size(), 96);
    }

    #[test]
    fn subarray_3d() {
        let t =
            Datatype::subarray(&[3, 4, 5], &[2, 2, 2], &[0, 1, 1], &Datatype::double()).unwrap();
        assert_eq!(t.size(), 8 * 8);
        assert_eq!(t.num_segments(), 4); // 2x2 rows of length-2 runs
        assert_eq!(t.segments()[0].offset, (5 + 1) as i64 * 8);
    }

    #[test]
    fn subarray_validation() {
        let d = Datatype::double();
        assert!(Datatype::subarray(&[4], &[5], &[0], &d).is_err());
        assert!(Datatype::subarray(&[4], &[2], &[3], &d).is_err());
        assert!(Datatype::subarray(&[4, 4], &[2], &[0], &d).is_err());
        assert!(Datatype::subarray(&[], &[], &[], &d).is_err());
    }

    #[test]
    fn resized_overrides_extent() {
        // A column datatype resized so that consecutive instances are one
        // element apart — the standard idiom for sending many columns.
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        let col = Datatype::vector(8, 1, 8, &elem).unwrap();
        let col_r = Datatype::resized(0, 24, &col).unwrap();
        assert_eq!(col_r.extent(), 24);
        assert_eq!(col_r.size(), col.size());
        assert_eq!(col_r.segments(), col.segments());
        assert!(Datatype::resized(0, -8, &col).is_err());
    }

    #[test]
    fn nested_vector_of_vectors() {
        let inner = Datatype::vector(2, 1, 2, &Datatype::double()).unwrap(); // 2 doubles, gap between
        let outer = Datatype::contiguous(3, &inner).unwrap();
        assert_eq!(outer.size(), 3 * 16);
        // inner extent = 24 (true extent 0..24); instances at 0, 24, 48 with
        // segments at +0 and +16. The +16 segment of one instance abuts the
        // +0 segment of the next, so they coalesce: (0,8) (16,16) (40,16)
        // (64,8).
        assert_eq!(outer.num_segments(), 4);
        assert_eq!(
            outer.segments()[1],
            Segment {
                offset: 16,
                len: 16
            }
        );
    }

    #[test]
    fn empty_types() {
        let t = Datatype::contiguous(0, &Datatype::double()).unwrap();
        assert_eq!(t.size(), 0);
        assert_eq!(t.num_segments(), 0);
        assert_eq!(t.extent(), 0);
        let v = Datatype::vector(3, 0, 5, &Datatype::double()).unwrap();
        assert_eq!(v.size(), 0);
    }

    #[test]
    fn avg_segment_len() {
        let elem = Datatype::contiguous(3, &Datatype::double()).unwrap();
        let col = Datatype::vector(8, 1, 8, &elem).unwrap();
        assert_eq!(col.avg_segment_len(), 24);
        assert_eq!(
            Datatype::contiguous(0, &Datatype::double())
                .unwrap()
                .avg_segment_len(),
            0
        );
    }

    #[test]
    fn overflowing_vector_stride_is_an_error() {
        // 4 blocks at stride (i64::MAX / 2) * 8 bytes: the displacement
        // does not fit in i64 and must not wrap into a small extent.
        let err = Datatype::vector(4, 1, i64::MAX / 2, &Datatype::double()).unwrap_err();
        assert!(matches!(err, TypeError::Overflow { .. }), "{err}");
        let err = Datatype::contiguous(usize::MAX, &Datatype::double()).unwrap_err();
        assert!(matches!(err, TypeError::Overflow { what: "size" }), "{err}");
        let err = Datatype::subarray(&[usize::MAX], &[1], &[usize::MAX], &Datatype::double());
        assert!(err.is_err(), "start + subsize overflows");
    }

    #[test]
    fn dense_runs_commit_to_one_segment_without_walking() {
        let d = Datatype::double();
        let t = Datatype::contiguous(1 << 40, &d).unwrap();
        assert_eq!(
            t.segments(),
            &[Segment {
                offset: 0,
                len: 8 << 40
            }]
        );
        assert_eq!((t.size(), t.extent()), (8 << 40, 8 << 40));
        // Abutting vector blocks of a dense child coalesce the same way.
        let v = Datatype::vector(1 << 40, 3, 3, &d).unwrap();
        assert_eq!(
            v.segments(),
            &[Segment {
                offset: 0,
                len: 24 << 40
            }]
        );
        let h = Datatype::hvector(1 << 40, 2, 16, &d).unwrap();
        assert_eq!(
            h.segments(),
            &[Segment {
                offset: 0,
                len: 16 << 40
            }]
        );
        // A run of a non-dense child that cannot fit is refused up front.
        let col = Datatype::vector(2, 1, 2, &d).unwrap();
        assert!(matches!(
            Datatype::contiguous(1 << 40, &col),
            Err(TypeError::TooManySegments { .. })
        ));
    }

    #[test]
    fn segment_limit_enforced() {
        // A vector with many single-byte blocks far apart. Keep it under
        // the real MAX_SEGMENTS but verify the error path via a tiny sink.
        let mut sink = Sink::new(2);
        sink.push(0, 1).unwrap();
        sink.push(10, 1).unwrap();
        assert!(matches!(
            sink.push(20, 1),
            Err(TypeError::TooManySegments { .. })
        ));
    }
}
