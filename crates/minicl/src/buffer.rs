//! Device and host memory objects.
//!
//! Contents are real bytes (kernels compute actual results); the backing
//! store is 8-byte aligned so `f32`/`f64` views are sound without copies.

use simtime::plock::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{ClError, ClResult};

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// A byte array with 8-byte alignment, so typed float views are valid.
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Zero-filled storage of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        AlignedBytes {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte view.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the Vec<u64> owns at least `len` initialized bytes and
        // u8 has no alignment requirement.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }

    /// Mutable byte view.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as above; we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }

    /// `f32` view; panics unless the length is a multiple of 4.
    pub fn as_f32(&self) -> &[f32] {
        assert_eq!(self.len % 4, 0, "buffer length not a multiple of 4");
        // SAFETY: storage is 8-byte aligned (Vec<u64>), every bit pattern
        // is a valid f32, and the length is scaled.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<f32>(), self.len / 4) }
    }

    /// Mutable `f32` view; panics unless the length is a multiple of 4.
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        assert_eq!(self.len % 4, 0, "buffer length not a multiple of 4");
        // SAFETY: as above; we hold &mut self.
        unsafe {
            std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<f32>(), self.len / 4)
        }
    }

    /// `f64` view; panics unless the length is a multiple of 8.
    pub fn as_f64(&self) -> &[f64] {
        assert_eq!(self.len % 8, 0, "buffer length not a multiple of 8");
        // SAFETY: as above.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<f64>(), self.len / 8) }
    }

    /// Mutable `f64` view; panics unless the length is a multiple of 8.
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        assert_eq!(self.len % 8, 0, "buffer length not a multiple of 8");
        // SAFETY: as above; we hold &mut self.
        unsafe {
            std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<f64>(), self.len / 8)
        }
    }
}

/// A device memory object (`cl_mem`). Cheap to clone (shared contents).
///
/// Consistency discipline: contents are only touched by kernels and
/// transfer commands whose ordering the event graph establishes; the inner
/// mutex makes each access atomic, not ordered — ordering is the
/// application's job, exactly as in OpenCL.
#[derive(Clone)]
pub struct Buffer {
    id: u64,
    size: usize,
    data: Arc<Mutex<AlignedBytes>>,
}

impl Buffer {
    /// Allocate a zero-filled device buffer of `size` bytes.
    pub(crate) fn alloc(size: usize) -> Self {
        Buffer {
            id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            size,
            data: Arc::new(Mutex::new(AlignedBytes::zeroed(size))),
        }
    }

    /// Stable identifier (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` over an immutable view of the contents.
    pub fn read<R>(&self, f: impl FnOnce(&AlignedBytes) -> R) -> R {
        f(&self.data.lock())
    }

    /// Run `f` over a mutable view of the contents.
    pub fn write<R>(&self, f: impl FnOnce(&mut AlignedBytes) -> R) -> R {
        f(&mut self.data.lock())
    }

    /// Copy `src` into the buffer at `offset`.
    pub fn store(&self, offset: usize, src: &[u8]) -> ClResult<()> {
        self.check_range(offset, src.len())?;
        self.data.lock().as_mut_slice()[offset..offset + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Copy `len` bytes starting at `offset` out of the buffer.
    pub fn load(&self, offset: usize, len: usize) -> ClResult<Vec<u8>> {
        self.check_range(offset, len)?;
        Ok(self.data.lock().as_slice()[offset..offset + len].to_vec())
    }

    /// Validate an (offset, len) range against the buffer size.
    pub fn check_range(&self, offset: usize, len: usize) -> ClResult<()> {
        check_range("buffer", self.size, offset, len)
    }

    /// One PCIe hop is one `memcpy`: copy `len` bytes between `offset` of
    /// this buffer and `host_offset` of `host`, which way `dir` says, under
    /// both locks — always the device lock first, then the host one. Both
    /// ranges are the caller's to check.
    pub(crate) fn copy(&self, dir: Dir, offset: usize, len: usize, host: &HostBuffer, at: usize) {
        self.write(|d| {
            host.write(|h| {
                let d = &mut d.as_mut_slice()[offset..offset + len];
                let h = &mut h.as_mut_slice()[at..at + len];
                match dir {
                    Dir::ToHost => h.copy_from_slice(d),
                    Dir::ToDevice => d.copy_from_slice(h),
                }
            })
        });
    }
}

/// Which way a transfer between a [`Buffer`] and a [`HostBuffer`] goes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// Device→host: a read, a map.
    ToHost,
    /// Host→device: a write, an unmap.
    ToDevice,
}

/// `[offset, offset + len)` must lie inside the `size` bytes of `what`.
fn check_range(what: &str, size: usize, offset: usize, len: usize) -> ClResult<()> {
    if offset.checked_add(len).is_none_or(|end| end > size) {
        return Err(ClError::InvalidValue(format!(
            "range {offset}+{len} exceeds {what} of {size} bytes"
        )));
    }
    Ok(())
}

/// A host memory allocation, pinned or pageable. PCIe transfers to/from
/// pinned host memory run at the pinned rate (see
/// [`crate::PcieModel::pinned_bps`]).
#[derive(Clone)]
pub struct HostBuffer {
    pinned: bool,
    data: Arc<Mutex<AlignedBytes>>,
    size: usize,
}

impl HostBuffer {
    /// Allocate pageable host memory.
    pub fn pageable(size: usize) -> Self {
        HostBuffer {
            pinned: false,
            data: Arc::new(Mutex::new(AlignedBytes::zeroed(size))),
            size,
        }
    }

    /// Allocate pinned (page-locked) host memory.
    pub fn pinned(size: usize) -> Self {
        HostBuffer {
            pinned: true,
            data: Arc::new(Mutex::new(AlignedBytes::zeroed(size))),
            size,
        }
    }

    /// Whether this allocation is pinned.
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Validate an (offset, len) range against the allocation.
    pub(crate) fn check_range(&self, offset: usize, len: usize) -> ClResult<()> {
        check_range("host buffer", self.size, offset, len)
    }

    /// Run `f` over an immutable view.
    pub fn read<R>(&self, f: impl FnOnce(&AlignedBytes) -> R) -> R {
        f(&self.data.lock())
    }

    /// Run `f` over a mutable view.
    pub fn write<R>(&self, f: impl FnOnce(&mut AlignedBytes) -> R) -> R {
        f(&mut self.data.lock())
    }

    /// Fill from a byte slice (must fit).
    pub fn fill_from(&self, src: &[u8]) {
        assert!(src.len() <= self.size, "host buffer overflow");
        self.data.lock().as_mut_slice()[..src.len()].copy_from_slice(src);
    }

    /// Snapshot contents as a byte vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.lock().as_slice().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_bytes_round_to_words() {
        let b = AlignedBytes::zeroed(13);
        assert_eq!(b.len(), 13);
        assert_eq!(b.as_slice().len(), 13);
        assert!(b.as_slice().iter().all(|&x| x == 0));
    }

    #[test]
    fn f32_view_is_inplace() {
        let mut b = AlignedBytes::zeroed(16);
        b.as_f32_mut()[2] = 3.5;
        assert_eq!(b.as_f32()[2], 3.5);
        assert_eq!(&b.as_slice()[8..12], 3.5f32.to_ne_bytes());
    }

    #[test]
    fn f64_view_is_inplace() {
        let mut b = AlignedBytes::zeroed(24);
        b.as_f64_mut()[1] = -2.25;
        assert_eq!(b.as_f64()[1], -2.25);
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn misaligned_f32_view_panics() {
        AlignedBytes::zeroed(7).as_f32();
    }

    #[test]
    fn buffer_store_load_roundtrip() {
        let b = Buffer::alloc(64);
        b.store(8, &[1, 2, 3, 4]).expect("store in range");
        assert_eq!(b.load(8, 4).expect("load in range"), vec![1, 2, 3, 4]);
        assert_eq!(b.load(0, 4).expect("load in range"), vec![0; 4]);
    }

    #[test]
    fn buffer_range_checks() {
        let b = Buffer::alloc(16);
        assert!(b.store(12, &[0; 8]).is_err());
        assert!(b.load(usize::MAX, 2).is_err());
        assert!(b.check_range(16, 0).is_ok());
    }

    #[test]
    fn buffer_clone_shares_contents() {
        let a = Buffer::alloc(8);
        let b = a.clone();
        a.store(0, &[9; 8]).expect("store in range");
        assert_eq!(b.load(0, 8).expect("load in range"), vec![9; 8]);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn host_buffer_pinned_flag() {
        assert!(HostBuffer::pinned(4).is_pinned());
        assert!(!HostBuffer::pageable(4).is_pinned());
    }

    #[test]
    fn host_buffer_fill_and_snapshot() {
        let h = HostBuffer::pageable(6);
        h.fill_from(&[5, 6, 7]);
        assert_eq!(h.to_vec(), vec![5, 6, 7, 0, 0, 0]);
    }
}
