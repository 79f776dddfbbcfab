//! Datatype tags and typed byte-slice helpers.
//!
//! minimpi moves raw bytes; a [`Datatype`] tag travels with every message.
//! The tag matters for one thing above all: [`Datatype::ClMem`] is the
//! paper's special `MPI_CL_MEM` value, telling the receiving side that the
//! peer is a *communicator device* and that the runtime should engage the
//! optimized host↔device transfer path (paper §IV-C).

/// Tag describing a message's payload (subset of `MPI_Datatype`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Datatype {
    /// Untyped bytes (`MPI_BYTE`).
    #[default]
    Bytes,
    /// 32-bit floats (`MPI_FLOAT`); length must be a multiple of 4.
    F32,
    /// 64-bit floats (`MPI_DOUBLE`); length must be a multiple of 8.
    F64,
    /// The paper's `MPI_CL_MEM`: the buffer lives in (or is destined for)
    /// device memory and the endpoints collaborate on an optimized,
    /// possibly pipelined, transfer.
    ClMem,
}

impl Datatype {
    /// Size in bytes of one element, if the type has a fixed extent.
    pub fn extent(self) -> Option<usize> {
        match self {
            Datatype::Bytes | Datatype::ClMem => Some(1),
            Datatype::F32 => Some(4),
            Datatype::F64 => Some(8),
        }
    }
}

/// View a `f32` slice as bytes (little-endian host layout).
pub fn f32_as_bytes(v: &[f32]) -> &[u8] {
    // SAFETY: f32 has no padding or invalid bit patterns as bytes; the
    // length is scaled by size_of::<f32>.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// View a `f64` slice as bytes.
pub fn f64_as_bytes(v: &[f64]) -> &[u8] {
    // SAFETY: as above for f64.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// `len` bytes must hold whole elements of `elem` bytes: a ragged tail is
/// a truncated payload.
pub(crate) fn check_whole(len: usize, elem: usize) -> Result<(), crate::p2p::MpiError> {
    if !len.is_multiple_of(elem) {
        let capacity = len - len % elem;
        return Err(crate::p2p::MpiError::Truncated { len, capacity });
    }
    Ok(())
}

/// Copy bytes into a `f32` vector, reporting a misaligned (truncated)
/// payload as [`MpiError::Truncated`](crate::p2p::MpiError::Truncated) instead of panicking.
pub fn try_bytes_to_f32(b: &[u8]) -> Result<Vec<f32>, crate::p2p::MpiError> {
    check_whole(b.len(), 4)?;
    Ok(b.chunks_exact(4)
        .map(|c| f32::from_ne_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Copy bytes into a `f64` vector, reporting a misaligned (truncated)
/// payload as [`MpiError::Truncated`](crate::p2p::MpiError::Truncated) instead of panicking.
pub fn try_bytes_to_f64(b: &[u8]) -> Result<Vec<f64>, crate::p2p::MpiError> {
    check_whole(b.len(), 8)?;
    Ok(b.chunks_exact(8)
        .map(|c| f64::from_ne_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect())
}

/// Copy bytes into a `f32` vector (panics if not a multiple of 4).
pub fn bytes_to_f32(b: &[u8]) -> Vec<f32> {
    try_bytes_to_f32(b).unwrap_or_else(|_| panic!("byte length {} not a multiple of 4", b.len()))
}

/// Copy bytes into a `f64` vector (panics if not a multiple of 8).
pub fn bytes_to_f64(b: &[u8]) -> Vec<f64> {
    try_bytes_to_f64(b).unwrap_or_else(|_| panic!("byte length {} not a multiple of 8", b.len()))
}

/// Why a derived datatype description was rejected at commit time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatatypeError {
    /// A field combination describes overlapping or out-of-order bytes
    /// (e.g. `blocklen > stride`), or a zero-sized element/dimension.
    Invalid(&'static str),
    /// The declared extent is smaller than the span the type map covers.
    ExtentTooSmall {
        /// Declared extent in bytes.
        declared: usize,
        /// Minimum extent required by the type map.
        required: usize,
    },
}

impl std::fmt::Display for DatatypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatatypeError::Invalid(why) => write!(f, "invalid derived datatype: {why}"),
            DatatypeError::ExtentTooSmall { declared, required } => write!(
                f,
                "declared extent {declared} smaller than type-map span {required}"
            ),
        }
    }
}

impl std::error::Error for DatatypeError {}

/// A derived (possibly noncontiguous) datatype described over a flat byte
/// region — the minimpi analogue of `MPI_Type_vector` and
/// `MPI_Type_create_subarray`. All units are bytes; a description must be
/// [`DerivedType::commit`]ted before use, which validates it and
/// precomputes the coalesced type map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerivedType {
    /// `len` contiguous bytes at the start of the region.
    Contiguous {
        /// Length in bytes.
        len: usize,
    },
    /// `count` blocks of `blocklen` bytes, block *i* starting at byte
    /// `i * stride`; `extent` is the total region span (≥ the type-map
    /// span, allowing trailing padding as with `MPI_Type_create_resized`).
    Vector {
        /// Number of blocks.
        count: usize,
        /// Bytes per block.
        blocklen: usize,
        /// Byte distance between successive block starts.
        stride: usize,
        /// Total described-region span in bytes.
        extent: usize,
    },
    /// Row-major N-dimensional subarray of `elem`-byte elements: the
    /// `subsizes` box at origin `starts` inside a `sizes` array. The last
    /// dimension is innermost (contiguous).
    Subarray {
        /// Bytes per array element.
        elem: usize,
        /// Full array dimensions, outermost first.
        sizes: Vec<usize>,
        /// Selected box dimensions.
        subsizes: Vec<usize>,
        /// Box origin per dimension.
        starts: Vec<usize>,
    },
}

impl DerivedType {
    /// Validate the description and precompute its coalesced type map.
    pub fn commit(&self) -> Result<CommittedType, DatatypeError> {
        let (raw, extent) = match self {
            DerivedType::Contiguous { len } => (vec![(0usize, *len)], *len),
            DerivedType::Vector {
                count,
                blocklen,
                stride,
                extent,
            } => {
                if *count > 1 && *blocklen > *stride {
                    return Err(DatatypeError::Invalid("blocklen exceeds stride"));
                }
                let span = if *count == 0 || *blocklen == 0 {
                    0
                } else {
                    (*count - 1) * *stride + *blocklen
                };
                if *extent < span {
                    return Err(DatatypeError::ExtentTooSmall {
                        declared: *extent,
                        required: span,
                    });
                }
                let raw = (0..*count)
                    .filter(|_| *blocklen > 0)
                    .map(|i| (i * *stride, *blocklen))
                    .collect();
                (raw, *extent)
            }
            DerivedType::Subarray {
                elem,
                sizes,
                subsizes,
                starts,
            } => {
                if *elem == 0 {
                    return Err(DatatypeError::Invalid("zero-byte element"));
                }
                if sizes.is_empty() || sizes.len() != subsizes.len() || sizes.len() != starts.len()
                {
                    return Err(DatatypeError::Invalid(
                        "sizes/subsizes/starts rank mismatch",
                    ));
                }
                for d in 0..sizes.len() {
                    if sizes[d] == 0 {
                        return Err(DatatypeError::Invalid("zero-sized array dimension"));
                    }
                    if starts[d] + subsizes[d] > sizes[d] {
                        return Err(DatatypeError::Invalid("subarray box exceeds array bounds"));
                    }
                }
                // Row-major byte strides per dimension.
                let n = sizes.len();
                let mut dim_stride = vec![*elem; n];
                for d in (0..n - 1).rev() {
                    dim_stride[d] = dim_stride[d + 1] * sizes[d + 1];
                }
                let extent = dim_stride[0] * sizes[0];
                let empty = subsizes.contains(&0);
                let mut raw = Vec::new();
                if !empty {
                    // One contiguous run per outer-index combination; the
                    // innermost dimension is the run itself. Decomposing
                    // the linear index innermost-outer-dim-first yields
                    // runs in ascending region order.
                    let run = subsizes[n - 1] * *elem;
                    let rows: usize = subsizes[..n - 1].iter().product();
                    for lin in 0..rows {
                        let mut rem = lin;
                        let mut off = starts[n - 1] * *elem;
                        for d in (0..n - 1).rev() {
                            let i = rem % subsizes[d];
                            rem /= subsizes[d];
                            off += (starts[d] + i) * dim_stride[d];
                        }
                        raw.push((off, run));
                    }
                }
                (raw, extent)
            }
        };
        // Coalesce abutting segments (e.g. a full-width subarray row run,
        // or a vector with blocklen == stride, collapses to contiguous).
        let mut segments: Vec<(usize, usize)> = Vec::new();
        for (off, len) in raw {
            if len == 0 {
                continue;
            }
            match segments.last_mut() {
                Some((poff, plen)) if *poff + *plen == off => *plen += len,
                _ => segments.push((off, len)),
            }
        }
        let packed = segments.iter().map(|&(_, l)| l).sum();
        Ok(CommittedType {
            desc: self.clone(),
            segments,
            packed,
            extent,
        })
    }
}

/// A committed derived datatype: the validated description plus its
/// coalesced type map. `segments` are `(region_offset, len)` pairs in
/// ascending, non-overlapping order; packing concatenates them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedType {
    desc: DerivedType,
    segments: Vec<(usize, usize)>,
    packed: usize,
    extent: usize,
}

impl CommittedType {
    /// The original description this type was committed from.
    pub fn describe(&self) -> &DerivedType {
        &self.desc
    }

    /// Contiguous wire size in bytes (sum of all segment lengths).
    pub fn packed_size(&self) -> usize {
        self.packed
    }

    /// Span of the described region in bytes.
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// The coalesced `(region_offset, len)` type map.
    pub fn segments(&self) -> &[(usize, usize)] {
        &self.segments
    }

    /// True when the whole type map is one segment starting at offset 0 —
    /// packing would be a memcpy, so transports can skip it.
    pub fn is_contiguous(&self) -> bool {
        self.packed == 0 || (self.segments.len() == 1 && self.segments[0].0 == 0)
    }

    /// Map the packed-byte range `[lo, hi)` back onto the region: returns
    /// `(region_offset, len)` pieces in order. This is what lets a chunked
    /// transport pack/unpack one wire chunk at a time.
    pub fn segments_for_packed_range(&self, lo: usize, hi: usize) -> Vec<(usize, usize)> {
        assert!(lo <= hi && hi <= self.packed, "packed range out of bounds");
        let mut out = Vec::new();
        let mut pos = 0usize;
        for &(off, len) in &self.segments {
            let seg_lo = pos;
            let seg_hi = pos + len;
            pos = seg_hi;
            if seg_hi <= lo {
                continue;
            }
            if seg_lo >= hi {
                break;
            }
            let cut_lo = lo.max(seg_lo);
            let cut_hi = hi.min(seg_hi);
            out.push((off + (cut_lo - seg_lo), cut_hi - cut_lo));
        }
        out
    }

    /// Host reference pack: gather the type map out of `region` (which
    /// must cover the extent) into a contiguous wire buffer.
    pub fn pack(&self, region: &[u8]) -> Vec<u8> {
        assert!(
            region.len() >= self.extent,
            "region of {} bytes shorter than extent {}",
            region.len(),
            self.extent
        );
        let mut out = Vec::with_capacity(self.packed);
        for &(off, len) in &self.segments {
            out.extend_from_slice(&region[off..off + len]);
        }
        out
    }

    /// Host reference unpack: scatter a contiguous wire buffer back into
    /// `region` through the type map. A short or long wire payload is
    /// reported as [`MpiError::Truncated`](crate::p2p::MpiError).
    pub fn unpack(&self, packed: &[u8], region: &mut [u8]) -> Result<(), crate::p2p::MpiError> {
        if packed.len() != self.packed {
            return Err(crate::p2p::MpiError::Truncated {
                len: packed.len(),
                capacity: self.packed,
            });
        }
        assert!(
            region.len() >= self.extent,
            "region of {} bytes shorter than extent {}",
            region.len(),
            self.extent
        );
        let mut pos = 0usize;
        for &(off, len) in &self.segments {
            region[off..off + len].copy_from_slice(&packed[pos..pos + len]);
            pos += len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents() {
        assert_eq!(Datatype::Bytes.extent(), Some(1));
        assert_eq!(Datatype::F32.extent(), Some(4));
        assert_eq!(Datatype::F64.extent(), Some(8));
        assert_eq!(Datatype::ClMem.extent(), Some(1));
    }

    #[test]
    fn f32_roundtrip() {
        let v = vec![1.5f32, -2.25, 0.0, f32::MAX];
        assert_eq!(bytes_to_f32(f32_as_bytes(&v)), v);
    }

    #[test]
    fn f64_roundtrip() {
        let v = vec![std::f64::consts::PI, -0.5, 1e300];
        assert_eq!(bytes_to_f64(f64_as_bytes(&v)), v);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn misaligned_f32_panics() {
        bytes_to_f32(&[0u8; 7]);
    }

    #[test]
    fn try_variants_report_truncation() {
        assert_eq!(
            try_bytes_to_f32(&[0u8; 7]),
            Err(crate::p2p::MpiError::Truncated {
                len: 7,
                capacity: 4
            })
        );
        assert_eq!(
            try_bytes_to_f64(&[0u8; 12]),
            Err(crate::p2p::MpiError::Truncated {
                len: 12,
                capacity: 8
            })
        );
        assert_eq!(try_bytes_to_f64(&[0u8; 16]).map(|v| v.len()), Ok(2));
    }

    fn region(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 % 251) as u8).collect()
    }

    #[test]
    fn vector_type_map_and_roundtrip() {
        let t = DerivedType::Vector {
            count: 3,
            blocklen: 4,
            stride: 10,
            extent: 30,
        }
        .commit()
        .expect("valid vector");
        assert_eq!(t.packed_size(), 12);
        assert_eq!(t.extent(), 30);
        assert_eq!(t.segments(), &[(0, 4), (10, 4), (20, 4)]);
        assert!(!t.is_contiguous());
        let src = region(30);
        let wire = t.pack(&src);
        assert_eq!(wire.len(), 12);
        let mut dst = vec![0u8; 30];
        t.unpack(&wire, &mut dst).expect("sizes match");
        for &(off, len) in t.segments() {
            assert_eq!(&dst[off..off + len], &src[off..off + len]);
        }
    }

    #[test]
    fn dense_vector_coalesces_to_contiguous() {
        let t = DerivedType::Vector {
            count: 5,
            blocklen: 8,
            stride: 8,
            extent: 40,
        }
        .commit()
        .expect("valid");
        assert_eq!(t.segments(), &[(0, 40)]);
        assert!(t.is_contiguous());
    }

    #[test]
    fn vector_commit_rejects_bad_shapes() {
        assert_eq!(
            DerivedType::Vector {
                count: 2,
                blocklen: 9,
                stride: 8,
                extent: 100
            }
            .commit(),
            Err(DatatypeError::Invalid("blocklen exceeds stride"))
        );
        assert_eq!(
            DerivedType::Vector {
                count: 3,
                blocklen: 4,
                stride: 10,
                extent: 23
            }
            .commit(),
            Err(DatatypeError::ExtentTooSmall {
                declared: 23,
                required: 24
            })
        );
    }

    #[test]
    fn subarray_interior_face() {
        // 5x6 array of 4-byte elements; interior 3x4 box at (1,1) — the
        // himeno halo-face shape.
        let t = DerivedType::Subarray {
            elem: 4,
            sizes: vec![5, 6],
            subsizes: vec![3, 4],
            starts: vec![1, 1],
        }
        .commit()
        .expect("valid");
        assert_eq!(t.extent(), 5 * 6 * 4);
        assert_eq!(t.packed_size(), 3 * 4 * 4);
        assert_eq!(t.segments(), &[(28, 16), (52, 16), (76, 16)]);
        let src = region(t.extent());
        let wire = t.pack(&src);
        let mut dst = vec![0u8; t.extent()];
        t.unpack(&wire, &mut dst).expect("sizes match");
        assert_eq!(t.pack(&dst), wire);
    }

    #[test]
    fn full_subarray_coalesces() {
        let t = DerivedType::Subarray {
            elem: 8,
            sizes: vec![4, 3],
            subsizes: vec![4, 3],
            starts: vec![0, 0],
        }
        .commit()
        .expect("valid");
        assert!(t.is_contiguous());
        assert_eq!(t.segments(), &[(0, 96)]);
    }

    #[test]
    fn subarray_3d_ascending_segments() {
        let t = DerivedType::Subarray {
            elem: 1,
            sizes: vec![3, 4, 5],
            subsizes: vec![2, 2, 3],
            starts: vec![1, 1, 1],
        }
        .commit()
        .expect("valid");
        let mut prev_end = 0usize;
        for &(off, len) in t.segments() {
            assert!(off >= prev_end, "segments out of order");
            prev_end = off + len;
        }
        assert_eq!(t.packed_size(), 2 * 2 * 3);
        assert_eq!(
            DerivedType::Subarray {
                elem: 1,
                sizes: vec![3],
                subsizes: vec![4],
                starts: vec![0]
            }
            .commit(),
            Err(DatatypeError::Invalid("subarray box exceeds array bounds"))
        );
    }

    #[test]
    fn packed_range_maps_back_to_region() {
        let t = DerivedType::Vector {
            count: 4,
            blocklen: 6,
            stride: 16,
            extent: 64,
        }
        .commit()
        .expect("valid");
        // Chunk boundaries that split blocks mid-way.
        assert_eq!(t.segments_for_packed_range(0, 24), t.segments().to_vec());
        assert_eq!(t.segments_for_packed_range(4, 9), vec![(4, 2), (16, 3)]);
        assert_eq!(t.segments_for_packed_range(11, 13), vec![(21, 1), (32, 1)]);
        assert_eq!(t.segments_for_packed_range(24, 24), Vec::new());
        // Piecewise chunked pack equals whole-type pack.
        let src = region(64);
        let whole = t.pack(&src);
        let mut pieced = Vec::new();
        for lo in (0..24).step_by(5) {
            let hi = (lo + 5).min(24);
            for (off, len) in t.segments_for_packed_range(lo, hi) {
                pieced.extend_from_slice(&src[off..off + len]);
            }
        }
        assert_eq!(pieced, whole);
    }

    #[test]
    fn unpack_length_mismatch_is_truncated_error() {
        let t = DerivedType::Contiguous { len: 8 }.commit().expect("valid");
        let mut dst = vec![0u8; 8];
        assert_eq!(
            t.unpack(&[0u8; 5], &mut dst),
            Err(crate::p2p::MpiError::Truncated {
                len: 5,
                capacity: 8
            })
        );
    }
}
