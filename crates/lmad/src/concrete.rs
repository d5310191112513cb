//! Fully concrete LMADs and index functions, used by the runtime.
//!
//! During final code generation "the actual structure of the LMAD for a
//! given array is inlined for every array access" (paper §VII). Our
//! runtime's equivalent is these small, flat structs whose `index`
//! computation is a handful of multiply-adds, plus fast paths the kernels
//! use to keep per-access cost minimal.

/// A concrete LMAD: `offset + {(card : stride), ...}`, outer dimension
/// first. Strides may be negative (e.g. reversed dimensions).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConcreteLmad {
    pub offset: i64,
    /// `(cardinality, stride)` pairs.
    pub dims: Vec<(i64, i64)>,
}

impl ConcreteLmad {
    pub fn row_major(shape: &[i64]) -> ConcreteLmad {
        let mut dims = Vec::with_capacity(shape.len());
        let mut stride = 1i64;
        for &d in shape.iter().rev() {
            dims.push((d, stride));
            stride *= d;
        }
        dims.reverse();
        ConcreteLmad { offset: 0, dims }
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    pub fn shape(&self) -> Vec<i64> {
        self.dims.iter().map(|&(c, _)| c).collect()
    }

    pub fn num_points(&self) -> i64 {
        self.dims.iter().map(|&(c, _)| c).product()
    }

    /// `L(y1..yq) = offset + Σ yi·si`.
    #[inline]
    pub fn apply(&self, idx: &[i64]) -> i64 {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut out = self.offset;
        for (y, &(_, s)) in idx.iter().zip(&self.dims) {
            out += y * s;
        }
        out
    }

    /// Enumerate all points of the LMAD (set semantics) in logical
    /// (row-major over the cardinalities) order.
    pub fn points(&self) -> Vec<i64> {
        let n = self.num_points().max(0) as usize;
        let mut out = Vec::with_capacity(n);
        let mut idx = vec![0i64; self.dims.len()];
        if self.dims.iter().any(|&(c, _)| c <= 0) {
            return out;
        }
        loop {
            out.push(self.apply(&idx));
            // increment mixed-radix counter
            let mut d = self.dims.len();
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < self.dims[d].0 {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    pub fn is_row_major_contiguous(&self) -> bool {
        let mut stride = 1i64;
        for &(c, s) in self.dims.iter().rev() {
            if s != stride {
                return false;
            }
            stride *= c;
        }
        true
    }

    /// Element offset of flat logical position `flat` (row-major over the
    /// cardinalities): fused unrank + apply, no allocation. This is the
    /// strided access plan's inner loop.
    #[inline]
    pub fn offset_of_flat(&self, mut flat: i64) -> i64 {
        let mut off = self.offset;
        for &(c, s) in self.dims.iter().rev() {
            off += flat.rem_euclid(c) * s;
            flat = flat.div_euclid(c);
        }
        off
    }
}

/// Result of a brute-force comparison of two concrete footprints, used by
/// the checked VM to cross-check the compiler's symbolic non-overlap
/// verdicts at runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FootprintCheck {
    /// The two footprints share no element offset.
    Disjoint,
    /// Both footprints contain this offset (the smallest common one).
    Overlap(i64),
    /// A footprint exceeds the enumeration cap; nothing was decided.
    TooLarge,
}

/// Brute-force footprint intersection of two concrete LMADs (set
/// semantics, like [`ConcreteLmad::points`]). `cap` bounds the number of
/// points enumerated per side.
pub fn footprint_check(a: &ConcreteLmad, b: &ConcreteLmad, cap: i64) -> FootprintCheck {
    if a.num_points().max(0) > cap || b.num_points().max(0) > cap {
        return FootprintCheck::TooLarge;
    }
    let set: std::collections::HashSet<i64> = a.points().into_iter().collect();
    let mut first: Option<i64> = None;
    for p in b.points() {
        if set.contains(&p) {
            first = Some(first.map_or(p, |q| q.min(p)));
        }
    }
    match first {
        Some(off) => FootprintCheck::Overlap(off),
        None => FootprintCheck::Disjoint,
    }
}

/// Unrank a flat offset `x` into the row-major index space of `shape`.
#[inline]
pub fn unrank(mut x: i64, shape: &[i64], out: &mut [i64]) {
    debug_assert_eq!(shape.len(), out.len());
    for d in (0..shape.len()).rev() {
        let c = shape[d];
        out[d] = x.rem_euclid(c);
        x = x.div_euclid(c);
    }
}

/// The access tier of a concrete index function, classified **once** at
/// view creation so per-element address computation costs a couple of
/// integer ops instead of re-deriving the LMAD structure per access.
///
/// Ordered from fastest to most general:
///
/// - [`AccessClass::Contiguous`]: flat position `f` lives at `base + f` —
///   kernels get plain slices, copies get `memcpy`.
/// - [`AccessClass::RowContiguous`]: rows are contiguous but the outer
///   dimension strides arbitrarily (e.g. a rebased sub-matrix):
///   `base + (f / inner)·row_stride + f mod inner`.
/// - [`AccessClass::Strided`]: one LMAD, general strides — fused
///   unrank+apply with no allocation.
/// - [`AccessClass::General`]: an LMAD chain (paper Fig. 3), applied
///   last-to-first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessClass {
    Contiguous {
        base: i64,
    },
    RowContiguous {
        base: i64,
        row_stride: i64,
        inner: i64,
    },
    Strided,
    General,
}

/// A concrete index function: a chain of LMADs, applied last-to-first with
/// unranking in between (paper Fig. 3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConcreteIxFn {
    pub lmads: Vec<ConcreteLmad>,
}

impl ConcreteIxFn {
    pub fn from_lmad(l: ConcreteLmad) -> ConcreteIxFn {
        ConcreteIxFn { lmads: vec![l] }
    }

    pub fn row_major(shape: &[i64]) -> ConcreteIxFn {
        ConcreteIxFn::from_lmad(ConcreteLmad::row_major(shape))
    }

    pub fn logical(&self) -> &ConcreteLmad {
        self.lmads.last().unwrap()
    }

    pub fn shape(&self) -> Vec<i64> {
        self.logical().shape()
    }

    pub fn rank(&self) -> usize {
        self.logical().rank()
    }

    pub fn num_elems(&self) -> i64 {
        self.logical().num_points()
    }

    pub fn as_single(&self) -> Option<&ConcreteLmad> {
        if self.lmads.len() == 1 {
            Some(&self.lmads[0])
        } else {
            None
        }
    }

    /// Map a logical index to the flat element offset in the memory block.
    pub fn index(&self, idx: &[i64]) -> i64 {
        self.index_iter(idx.iter().copied())
    }

    /// [`index`](ConcreteIxFn::index) over coordinates produced on the
    /// fly (the VM reads them straight from its registers, so a point
    /// access builds no index vector). Extra coordinates are ignored, as
    /// in [`ConcreteLmad::apply`].
    #[inline]
    pub fn index_iter(&self, idx: impl IntoIterator<Item = i64>) -> i64 {
        let logical = self.lmads.last().unwrap();
        let mut x = logical.offset;
        for (y, &(_, s)) in idx.into_iter().zip(&logical.dims) {
            x += y * s;
        }
        for k in (0..self.lmads.len() - 1).rev() {
            // Unranking over an LMAD's own cardinalities followed by
            // `apply` is exactly `offset_of_flat` — no scratch index.
            x = self.lmads[k].offset_of_flat(x);
        }
        x
    }

    /// Map a flat logical position (row-major over the logical shape) to
    /// the element offset in the memory block.
    pub fn index_flat(&self, flat: i64) -> i64 {
        let mut x = self.lmads.last().unwrap().offset_of_flat(flat);
        for k in (0..self.lmads.len() - 1).rev() {
            x = self.lmads[k].offset_of_flat(x);
        }
        x
    }

    /// Classify the index function into its access tier (done **once**
    /// per view; see [`AccessClass`]). Degenerate cardinalities (zero or
    /// negative) fall back to [`AccessClass::Strided`].
    pub fn classify(&self) -> AccessClass {
        let Some(l) = self.as_single() else {
            return AccessClass::General;
        };
        if l.dims.is_empty() {
            return AccessClass::Contiguous { base: l.offset };
        }
        // Are dims[1..] row-major contiguous? Then `inner` (their point
        // count) is the contiguous row length.
        let mut inner = 1i64;
        for &(c, s) in l.dims[1..].iter().rev() {
            if s != inner || c <= 0 {
                return AccessClass::Strided;
            }
            inner *= c;
        }
        let (c0, s0) = l.dims[0];
        if c0 <= 0 {
            return AccessClass::Strided;
        }
        if s0 == inner {
            return AccessClass::Contiguous { base: l.offset };
        }
        AccessClass::RowContiguous {
            base: l.offset,
            row_stride: s0,
            inner,
        }
    }

    /// `Some(base)` iff logical position `flat` maps to `base + flat` for
    /// all positions, i.e. the view is contiguous row-major — the fast path
    /// for bulk copies and kernel inner loops.
    pub fn contiguous_base(&self) -> Option<i64> {
        let l = self.as_single()?;
        l.is_row_major_contiguous().then_some(l.offset)
    }

    /// The set of element offsets touched, in logical order.
    pub fn all_offsets(&self) -> Vec<i64> {
        let n = self.num_elems().max(0);
        (0..n).map(|f| self.index_flat(f)).collect()
    }

    /// Apply a change-of-layout transformation over `i64` — the runtime
    /// half of [`crate::IndexFn::transform`], with the same results and
    /// the same unsupported cases (`None`): a permutation or slice whose
    /// length is not the rank, or a reversed dimension past it. A
    /// permutation naming a dimension past the rank is also `None`.
    pub fn transform(&self, t: &ConcreteTransform) -> Option<ConcreteIxFn> {
        let mut out = self.clone();
        let logical = out.lmads.last_mut().unwrap();
        match t {
            ConcreteTransform::Permute(p) => {
                if p.len() != logical.rank() || p.iter().any(|&i| i >= logical.rank()) {
                    return None;
                }
                logical.dims = p.iter().map(|&i| self.logical().dims[i]).collect();
            }
            ConcreteTransform::Reverse(d) => {
                let (card, stride) = *logical.dims.get(*d)?;
                logical.offset += (card - 1) * stride;
                logical.dims[*d].1 = -stride;
            }
            ConcreteTransform::Slice(ts) => out.slice(ts)?,
            ConcreteTransform::LmadSlice(s) => {
                out.lmads.push(s.clone());
                out.coalesce();
            }
            ConcreteTransform::Reshape(shape) => {
                if logical.is_row_major_contiguous() {
                    let offset = logical.offset;
                    *logical = ConcreteLmad::row_major(shape);
                    logical.offset = offset;
                } else {
                    out.lmads.push(ConcreteLmad::row_major(shape));
                    out.coalesce();
                }
            }
        }
        Some(out)
    }

    /// Triplet-slice the logical LMAD in place (one entry per logical
    /// dimension; `None` on a length mismatch, leaving `self` unchanged).
    pub fn slice(&mut self, ts: &[ConcreteSlice]) -> Option<()> {
        let logical = self.lmads.last_mut().unwrap();
        if ts.len() != logical.rank() {
            return None;
        }
        let mut offset = logical.offset;
        let mut dims = Vec::with_capacity(ts.len());
        for (sl, &(_, stride)) in ts.iter().zip(&logical.dims) {
            match *sl {
                ConcreteSlice::Range { start, len, step } => {
                    offset += start * stride;
                    dims.push((len, stride * step));
                }
                ConcreteSlice::Fix(i) => offset += i * stride,
            }
        }
        logical.offset = offset;
        logical.dims = dims;
        Some(())
    }

    /// Shrink the chain the way the symbolic algebra does: a pushed LMAD
    /// composes with a rank-1 predecessor (scale by its stride) or a
    /// row-major contiguous one (add its offset).
    fn coalesce(&mut self) {
        while self.lmads.len() >= 2 {
            let last = self.lmads.pop().unwrap();
            let prev = self.lmads.last_mut().unwrap();
            if prev.rank() == 1 {
                let s = prev.dims[0].1;
                prev.offset += last.offset * s;
                prev.dims = last.dims.iter().map(|&(c, st)| (c, st * s)).collect();
            } else if prev.is_row_major_contiguous() {
                prev.offset += last.offset;
                prev.dims = last.dims;
            } else {
                self.lmads.push(last);
                return;
            }
        }
    }
}

/// One dimension of a concrete triplet slice: a strided range (keeps the
/// dimension) or a fixed index (drops it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConcreteSlice {
    Range { start: i64, len: i64, step: i64 },
    Fix(i64),
}

/// A change-of-layout transformation with every quantity evaluated — the
/// concrete mirror of [`crate::Transform`], applied by
/// [`ConcreteIxFn::transform`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConcreteTransform {
    Permute(Vec<usize>),
    Slice(Vec<ConcreteSlice>),
    LmadSlice(ConcreteLmad),
    Reshape(Vec<i64>),
    Reverse(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_matches_manual() {
        let l = ConcreteLmad::row_major(&[3, 4]);
        assert_eq!(l.dims, vec![(3, 4), (4, 1)]);
        assert_eq!(l.apply(&[2, 3]), 11);
        assert!(l.is_row_major_contiguous());
    }

    #[test]
    fn points_enumeration() {
        let l = ConcreteLmad {
            offset: 1,
            dims: vec![(2, 2), (4, 8)],
        };
        assert_eq!(l.points(), vec![1, 9, 17, 25, 3, 11, 19, 27]);
    }

    #[test]
    fn unrank_roundtrip() {
        let shape = [3, 5, 2];
        let mut idx = [0i64; 3];
        for f in 0..30 {
            unrank(f, &shape, &mut idx);
            let back = idx[0] * 10 + idx[1] * 2 + idx[2];
            assert_eq!(back, f);
        }
    }

    #[test]
    fn footprint_check_finds_smallest_common_offset() {
        // Rows 0..3 of a 6x1 vector vs rows 1..5: overlap starts at 1.
        let a = ConcreteLmad {
            offset: 0,
            dims: vec![(3, 1)],
        };
        let b = ConcreteLmad {
            offset: 1,
            dims: vec![(4, 1)],
        };
        assert_eq!(footprint_check(&a, &b, 1 << 10), FootprintCheck::Overlap(1));
        // Even and odd strided footprints are disjoint.
        let evens = ConcreteLmad {
            offset: 0,
            dims: vec![(5, 2)],
        };
        let odds = ConcreteLmad {
            offset: 1,
            dims: vec![(5, 2)],
        };
        assert_eq!(
            footprint_check(&evens, &odds, 1 << 10),
            FootprintCheck::Disjoint
        );
        // Cap exceeded: undecided, never a wrong verdict.
        let big = ConcreteLmad {
            offset: 0,
            dims: vec![(1 << 20, 1)],
        };
        assert_eq!(footprint_check(&big, &a, 1 << 10), FootprintCheck::TooLarge);
    }

    #[test]
    fn contiguous_base_detects_offsets() {
        let mut l = ConcreteLmad::row_major(&[4, 4]);
        l.offset = 7;
        let ix = ConcreteIxFn::from_lmad(l);
        assert_eq!(ix.contiguous_base(), Some(7));
        let t = ConcreteIxFn::from_lmad(ConcreteLmad {
            offset: 0,
            dims: vec![(4, 1), (4, 4)],
        });
        assert_eq!(t.contiguous_base(), None);
    }
}
