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
///
/// Bytes read as zero until written, and the zeroes are written only where
/// somebody looks: `words` is allocated for the whole array but holds only
/// the initialised prefix, `overwrite` extends it with the bytes it is
/// given, and `settle` writes the rest as zeroes before [`Buffer`] /
/// [`HostBuffer`] hand out a view. Every view is bounded by the prefix, so
/// one taken without settling is short, not unsound.
///
/// Bytes that arrive as a shared allocation are not even copied in until
/// somebody looks: `land` keeps the allocation in `landed`, `settle`
/// copies every landed extent into `words`, oldest first, and `overwrite`
/// copies in the ones over the bytes it writes before it writes them. So
/// `landed` is always newer than `words`, and a ranged read
/// ([`Buffer::load`], [`Buffer::load_onto`], a PCIe hop) walks just that
/// range of both (`walk`), settling nothing. A ranged view
/// ([`Buffer::read_regions`], [`Buffer::write_range`]) settles just its
/// range (`settle_range`): it copies in the extents over it, and may leave
/// one that covers exactly a region its reader asked for where it landed.
/// [`Buffer::share`] hands out such an extent's allocation itself.
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
    /// Bytes written as zeroes so far: gaps and `settle`, never the < 8
    /// bytes that pad a ragged word.
    zero_filled: usize,
    /// Extents landed by reference, oldest first.
    landed: Vec<Extent>,
}

/// A landed extent: `(offset, src, from)` holds `src[from..]` for
/// `[offset, offset + src.len() - from)`.
type Extent = (usize, Arc<Vec<u8>>, usize);

/// The `[start, end)` an extent holds.
fn span((at, src, from): &Extent) -> (usize, usize) {
    (*at, at + src.len() - from)
}

impl AlignedBytes {
    /// Zero-filled storage of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        AlignedBytes {
            words: vec![0u64; len.div_ceil(8)],
            len,
            zero_filled: len,
            landed: Vec::new(),
        }
    }

    /// Storage of `len` bytes that reads as zeroes, none of them written
    /// yet. The words are allocated at the first write (`reserve`), so an
    /// array whose bytes all land allocates none.
    fn reserved(len: usize) -> Self {
        AlignedBytes {
            words: Vec::new(),
            len,
            zero_filled: 0,
            landed: Vec::new(),
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

    /// Initialised bytes a view may cover: all `len` once settled.
    fn visible(&self) -> usize {
        self.len.min(self.words.len() * 8)
    }

    /// Copy the landed extents in, then write the zeroes nobody has
    /// overwritten yet.
    fn settle(&mut self) -> &mut Self {
        self.flush_landed();
        self.zero_to(self.len);
        self
    }

    /// Make `[offset, offset + len)` of the initialised prefix read as the
    /// array does: copy in every landed extent over the range except the
    /// `kept` ones (indices into `landed`), then write zeroes up to the
    /// range's end. An older extent under one copied in is copied in too,
    /// before it, so every byte outside the range reads as it did; extents
    /// elsewhere stay landed.
    fn settle_range(&mut self, offset: usize, len: usize, kept: &[usize]) {
        let end = offset + len;
        assert!(end <= self.len, "view past the end");
        self.flush_over(offset, len, kept);
        self.zero_to(end);
    }

    /// Copy in every landed extent over `[offset, offset + len)` except the
    /// `kept` ones, and every older one under an extent copied in, oldest
    /// first, so every byte outside the range reads as it did; extents
    /// elsewhere stay landed.
    fn flush_over(&mut self, offset: usize, len: usize, kept: &[usize]) {
        if self.landed.is_empty() {
            return;
        }
        let end = offset + len;
        // Newest first: copy an extent in if it overlaps the range and is
        // not kept, or if it lies under one that is copied in.
        let mut copied: Vec<(usize, usize)> = Vec::new();
        let mut copy = vec![false; self.landed.len()];
        for (i, e) in self.landed.iter().enumerate().rev() {
            let (lo, hi) = span(e);
            let over = |&(a, b): &(usize, usize)| lo < b && a < hi;
            if (over(&(offset, end)) && !kept.contains(&i)) || copied.iter().any(over) {
                copy[i] = true;
                copied.push((lo, hi));
            }
        }
        let mut flags = copy.into_iter();
        let flushed: Vec<Extent> = self
            .landed
            .extract_if(.., |_| flags.next() == Some(true))
            .collect();
        for (at, src, from) in flushed {
            self.put(at, &src[from..]);
        }
    }

    /// Make room for a write of `[offset, offset + len)` to the initialised
    /// prefix: drop the landed extents the write covers completely, and
    /// copy in the others over it ([`AlignedBytes::flush_over`]).
    fn clear_for_write(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        self.landed
            .retain(|e| !(offset <= span(e).0 && span(e).1 <= end));
        self.flush_over(offset, len, &[]);
    }

    /// The index in `landed` of the extent that covers exactly `[at, at +
    /// len)`, with no newer one over any of it.
    fn exact(&self, (at, len): (usize, usize)) -> Option<usize> {
        let (i, e) = self
            .landed
            .iter()
            .enumerate()
            .rev()
            .find(|(_, e)| span(e).0 < at + len && at < span(e).1)?;
        (span(e) == (at, at + len)).then_some(i)
    }

    /// Write zeroes from the end of the initialised prefix to `end`.
    fn zero_to(&mut self, end: usize) {
        let prefix = self.words.len() * 8;
        if end > prefix {
            self.zero_filled += end - prefix;
            self.reserve();
            self.words.resize(end.div_ceil(8), 0);
        }
    }

    /// Allocate the words for the whole array, once, so the prefix never
    /// moves as it grows.
    fn reserve(&mut self) {
        self.words
            .reserve_exact(self.len.div_ceil(8) - self.words.len());
    }

    /// Copy `src` to `offset`, over every landed extent there.
    fn overwrite(&mut self, offset: usize, src: &[u8]) {
        self.clear_for_write(offset, src.len());
        self.put(offset, src);
    }

    /// Hold `src[from..]` for `offset` without copying it. Earlier extents
    /// it covers completely are dropped; if what is held would then exceed
    /// the array's length, the earlier ones are copied in first, so a
    /// buffer that receives a broadcast every step holds one step's worth.
    fn land(&mut self, offset: usize, src: Arc<Vec<u8>>, from: usize) {
        let end = offset + src.len() - from;
        assert!(end <= self.len, "write past the end");
        if end == offset {
            return;
        }
        self.landed
            .retain(|(at, s, f)| *at < offset || at + s.len() - f > end);
        let held: usize = self.landed.iter().map(|(_, s, f)| s.len() - f).sum();
        if held + end - offset > self.len {
            self.flush_landed();
        }
        self.landed.push((offset, src, from));
    }

    /// Hand `put` the pieces `[offset, offset + len)` reads as, each at
    /// its offset into the range: the initialised prefix's share, then
    /// every landed extent's share over it, oldest first. A later piece
    /// overwrites an earlier one; bytes no piece covers read as zero.
    fn walk(&self, offset: usize, len: usize, mut put: impl FnMut(usize, &[u8])) {
        let end = offset + len;
        assert!(end <= self.len, "read past the end");
        let prefix = self.as_slice();
        put(0, &prefix[offset.min(prefix.len())..end.min(prefix.len())]);
        for (at, src, from) in &self.landed {
            let bytes = &src[*from..];
            let (lo, hi) = (offset.max(*at), end.min(at + bytes.len()));
            if lo < hi {
                put(lo - offset, &bytes[lo - at..hi - at]);
            }
        }
    }

    /// The landed extents that tile `[offset, offset + len)`, ascending:
    /// the range lies above the initialised prefix, and the extents over
    /// it leave no gap, overlap nowhere and stop at its ends. `None` when
    /// they do not.
    fn tiling(&self, offset: usize, len: usize) -> Option<Vec<&Extent>> {
        let end = offset + len;
        if len == 0 || offset < self.words.len() * 8 {
            return None;
        }
        let mut tiles: Vec<_> = self
            .landed
            .iter()
            .filter(|(at, src, from)| *at < end && at + src.len() - from > offset)
            .collect();
        tiles.sort_unstable_by_key(|(at, ..)| *at);
        let mut next = offset;
        for (at, src, from) in &tiles {
            if *at != next {
                return None;
            }
            next = at + src.len() - from;
        }
        (next == end).then_some(tiles)
    }

    /// Make `[at, at + len)` read as `[offset, offset + len)` of `src`
    /// does. Where landed extents tile the source range, the same
    /// allocations land here by reference; otherwise `src` is walked and
    /// each piece copied, over zeroes where `src` has no prefix. `src`
    /// settles nothing either way.
    fn copy_from(&mut self, at: usize, src: &AlignedBytes, offset: usize, len: usize) {
        if let Some(tiles) = src.tiling(offset, len) {
            for (t, bytes, from) in tiles {
                self.land(at + t - offset, bytes.clone(), *from);
            }
            return;
        }
        self.clear_for_write(at, len);
        let share = src.visible().clamp(offset, offset + len) - offset;
        // Only the initialised prefix holds anything but zeroes.
        let (lo, hi) = (at + share, (at + len).min(self.visible()));
        if lo < hi {
            self.as_mut_slice()[lo..hi].fill(0);
        }
        src.walk(offset, len, |rel, bytes| self.put(at + rel, bytes));
    }

    /// Copy every landed extent into `words`, oldest first.
    fn flush_landed(&mut self) {
        for (offset, src, from) in std::mem::take(&mut self.landed) {
            self.put(offset, &src[from..]);
        }
    }

    /// Copy `src` to `offset`, zero-filling only a gap between the
    /// initialised prefix and `offset`.
    fn put(&mut self, offset: usize, src: &[u8]) {
        assert!(offset + src.len() <= self.len, "write past the end");
        if src.is_empty() {
            return;
        }
        self.zero_to(offset);
        self.reserve();
        let (inside, beyond) = src.split_at(src.len().min(self.words.len() * 8 - offset));
        self.as_mut_slice()[offset..offset + inside.len()].copy_from_slice(inside);
        let (whole, ragged) = beyond.split_at(beyond.len() & !7);
        let word = |bytes: &[u8]| {
            let mut w = [0u8; 8];
            w[..bytes.len()].copy_from_slice(bytes);
            u64::from_ne_bytes(w)
        };
        self.words.extend(whole.chunks_exact(8).map(word));
        if !ragged.is_empty() {
            self.words.push(word(ragged));
        }
    }

    /// Byte view.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the Vec<u64> holds at least `visible()` initialized bytes
        // and u8 has no alignment requirement.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.visible()) }
    }

    /// Mutable byte view.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        let n = self.visible();
        // SAFETY: as above; we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), n) }
    }

    /// `f32` view; panics unless the length is a multiple of 4.
    pub fn as_f32(&self) -> &[f32] {
        assert_eq!(self.len % 4, 0, "buffer length not a multiple of 4");
        // SAFETY: storage is 8-byte aligned (Vec<u64>), every bit pattern
        // is a valid f32, and the initialized length is scaled.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<f32>(), self.visible() / 4) }
    }

    /// Mutable `f32` view; panics unless the length is a multiple of 4.
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        assert_eq!(self.len % 4, 0, "buffer length not a multiple of 4");
        let n = self.visible() / 4;
        // SAFETY: as above; we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<f32>(), n) }
    }

    /// `f64` view; panics unless the length is a multiple of 8.
    pub fn as_f64(&self) -> &[f64] {
        assert_eq!(self.len % 8, 0, "buffer length not a multiple of 8");
        // SAFETY: as above.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<f64>(), self.visible() / 8) }
    }

    /// Mutable `f64` view; panics unless the length is a multiple of 8.
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        assert_eq!(self.len % 8, 0, "buffer length not a multiple of 8");
        let n = self.visible() / 8;
        // SAFETY: as above; we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<f64>(), n) }
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
    /// Allocate a device buffer of `size` bytes that reads as zeroes.
    pub(crate) fn alloc(size: usize) -> Self {
        Buffer {
            id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            size,
            data: Arc::new(Mutex::new(AlignedBytes::reserved(size))),
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
        f(self.data.lock().settle())
    }

    /// Run `f` over a mutable view of the contents.
    pub fn write<R>(&self, f: impl FnOnce(&mut AlignedBytes) -> R) -> R {
        f(self.data.lock().settle())
    }

    /// Run `f` over `[offset, offset + len)` cut into regions of `region`
    /// bytes, each as the buffer reads it. A region that one landed extent
    /// covers exactly, with no newer extent over any of it, is handed over
    /// where it landed, and that extent stays landed. Every other region is
    /// the words under it, settled: the landed extents over it (and any
    /// older one under them) are copied in, and zeroes are written between
    /// the initialised prefix and the end of the last such region. So a
    /// view whose regions all landed writes no byte. Nothing else in
    /// `landed` changes. Panics if the range runs past the end, or if
    /// `len` is not a multiple of a non-zero `region`.
    pub fn read_regions<R>(
        &self,
        offset: usize,
        len: usize,
        region: usize,
        f: impl FnOnce(&[&[u8]]) -> R,
    ) -> R {
        assert!(
            region > 0 && len.is_multiple_of(region),
            "a {len}-byte view is not cut into {region}-byte regions"
        );
        let mut data = self.data.lock();
        assert!(offset + len <= data.len, "view past the end");
        let starts = (offset..offset + len).step_by(region);
        let kept: Vec<Option<usize>> = starts.clone().map(|at| data.exact((at, region))).collect();
        let words = kept.iter().position(Option::is_none);
        if let (Some(a), Some(b)) = (words, kept.iter().rposition(Option::is_none)) {
            let kept: Vec<usize> = kept.iter().flatten().copied().collect();
            data.settle_range(offset + a * region, (b + 1 - a) * region, &kept);
        }
        // Copying in shifts `landed`: find the kept extents again.
        let data = &*data;
        let views: Vec<&[u8]> = starts
            .map(|at| match data.exact((at, region)) {
                Some(i) => &data.landed[i].1[data.landed[i].2..],
                None => &data.as_slice()[at..at + region],
            })
            .collect();
        f(&views)
    }

    /// Run `f` over a mutable view in which `[offset, offset + len)` reads
    /// as the buffer does; `f` may read and write nothing outside that
    /// range. Copies in only the landed extents over the range (and any
    /// older one under them), so what `f` writes there is what the buffer
    /// holds; extents elsewhere stay landed. Panics if the range runs past
    /// the end.
    pub fn write_range<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut AlignedBytes) -> R,
    ) -> R {
        let mut data = self.data.lock();
        data.settle_range(offset, len, &[]);
        f(&mut data)
    }

    /// Copy `src` into the buffer at `offset`.
    pub fn store(&self, offset: usize, src: &[u8]) -> ClResult<()> {
        self.check_range(offset, src.len())?;
        self.data.lock().overwrite(offset, src);
        Ok(())
    }

    /// The allocation of the landed extent that holds exactly `[offset,
    /// offset + len)`, from its byte 0, with no newer extent over any of
    /// it: the bytes a [`Buffer::load`] of the range would copy, shared
    /// instead. `None` for any other range. Changes nothing in `landed`.
    pub fn share(&self, offset: usize, len: usize) -> Option<Arc<Vec<u8>>> {
        let data = self.data.lock();
        let (_, src, from) = &data.landed[data.exact((offset, len))?];
        (*from == 0).then(|| src.clone())
    }

    /// Land `src[from..]` in the buffer at `offset` by reference: the
    /// buffer keeps the allocation (a broadcast's wire chunk, shared with
    /// every relay that forwards it) and copies its bytes in only when
    /// somebody views or overwrites the buffer. Every read sees what a
    /// [`Buffer::store`] of the same bytes would have left.
    pub fn land(&self, offset: usize, src: Arc<Vec<u8>>, from: usize) -> ClResult<()> {
        let Some(bytes) = src.get(from..) else {
            return Err(ClError::InvalidValue(format!(
                "landing from byte {from} of a {}-byte payload",
                src.len()
            )));
        };
        self.check_range(offset, bytes.len())?;
        self.data.lock().land(offset, src, from);
        Ok(())
    }

    /// Copy `len` bytes starting at `offset` out of the buffer into
    /// aligned storage of their own, so typed views need no second copy.
    /// Reads through: the buffer writes no zeroes and copies nothing
    /// landed in, so a range costs its own length, not the buffer's. Each
    /// byte of the result is copied once — the initialised prefix's share,
    /// then every landed extent over it, oldest first — and only bytes
    /// nobody wrote are zero-filled.
    pub fn load(&self, offset: usize, len: usize) -> ClResult<AlignedBytes> {
        self.check_range(offset, len)?;
        let mut out = AlignedBytes::reserved(len);
        self.data
            .lock()
            .walk(offset, len, |at, bytes| out.put(at, bytes));
        out.settle();
        Ok(out)
    }

    /// Append each `(offset, len)` range of the buffer to `out`, read
    /// through as [`Buffer::load`] reads it, under one lock. Panics if a
    /// range runs past the end: every caller has checked its ranges.
    pub fn load_onto(&self, out: &mut Vec<u8>, ranges: impl IntoIterator<Item = (usize, usize)>) {
        let data = self.data.lock();
        for (offset, len) in ranges {
            let base = out.len();
            data.walk(offset, len, |at, bytes| put_bytes(out, base + at, bytes));
            out.resize(base + len, 0);
        }
    }

    /// Validate an (offset, len) range against the buffer size.
    pub fn check_range(&self, offset: usize, len: usize) -> ClResult<()> {
        check_range("buffer", self.size, offset, len)
    }

    /// One PCIe hop: make `len` bytes at `host_offset` of `host` and at
    /// `offset` of this buffer read alike, copying which way `dir` says,
    /// under both locks — always the device lock first, then the host
    /// one. The source is read through, never settled: where its landed
    /// extents tile the range, the destination lands the same
    /// allocations and no byte is copied; otherwise each byte is copied
    /// once. Both ranges are the caller's to check.
    pub(crate) fn copy(&self, dir: Dir, offset: usize, len: usize, host: &HostBuffer, at: usize) {
        let mut d = self.data.lock();
        match dir {
            Dir::ToHost => host.as_is(|h| h.copy_from(at, &d, offset, len)),
            Dir::ToDevice => host.as_is(|h| d.copy_from(offset, h, at, len)),
        }
    }
}

/// `AlignedBytes::put` for a byte vector: copy `src` to `at`, zero-filling
/// a gap before it.
fn put_bytes(out: &mut Vec<u8>, at: usize, src: &[u8]) {
    if at > out.len() {
        out.resize(at, 0);
    }
    let inside = src.len().min(out.len() - at);
    out[at..at + inside].copy_from_slice(&src[..inside]);
    out.extend_from_slice(&src[inside..]);
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
            data: Arc::new(Mutex::new(AlignedBytes::reserved(size))),
            size,
        }
    }

    /// Allocate pinned (page-locked) host memory.
    pub fn pinned(size: usize) -> Self {
        HostBuffer {
            pinned: true,
            data: Arc::new(Mutex::new(AlignedBytes::reserved(size))),
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
        f(self.data.lock().settle())
    }

    /// Run `f` over a mutable view.
    pub fn write<R>(&self, f: impl FnOnce(&mut AlignedBytes) -> R) -> R {
        f(self.data.lock().settle())
    }

    /// Run `f` over the allocation as it stands: its landed extents and
    /// unwritten bytes are left as they are.
    fn as_is<R>(&self, f: impl FnOnce(&mut AlignedBytes) -> R) -> R {
        f(&mut self.data.lock())
    }

    /// Copy `src` into the allocation at `offset`.
    pub fn store(&self, offset: usize, src: &[u8]) -> ClResult<()> {
        self.check_range(offset, src.len())?;
        self.data.lock().overwrite(offset, src);
        Ok(())
    }

    /// Land `src` in the allocation at `offset` by reference, as
    /// [`Buffer::land`] does: a write to the device from a range that
    /// landed extents tile shares their allocations instead of copying.
    pub fn land(&self, offset: usize, src: Arc<Vec<u8>>) -> ClResult<()> {
        self.check_range(offset, src.len())?;
        self.data.lock().land(offset, src, 0);
        Ok(())
    }

    /// Snapshot contents as a byte vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.lock().settle().as_slice().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::XorShift64;

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
        assert_eq!(
            b.load(8, 4).expect("load in range").as_slice(),
            [1, 2, 3, 4]
        );
        assert_eq!(b.load(0, 4).expect("load in range").as_slice(), [0; 4]);
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
        assert_eq!(b.load(0, 8).expect("load in range").as_slice(), [9; 8]);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn host_buffer_pinned_flag() {
        assert!(HostBuffer::pinned(4).is_pinned());
        assert!(!HostBuffer::pageable(4).is_pinned());
    }

    #[test]
    fn host_buffer_store_and_snapshot() {
        let h = HostBuffer::pageable(6);
        assert_eq!(h.store(2, &[5, 6, 7]), Ok(()));
        assert_eq!(h.to_vec(), vec![0, 0, 5, 6, 7, 0]);
    }

    #[test]
    fn a_host_store_out_of_range_is_invalid_not_a_panic() {
        let h = HostBuffer::pinned(6);
        assert_eq!(
            h.store(4, &[1, 2, 3]),
            Err(ClError::InvalidValue(
                "range 4+3 exceeds host buffer of 6 bytes".into()
            ))
        );
        assert!(h.store(usize::MAX, &[1]).is_err());
        assert_eq!(h.to_vec(), vec![0; 6], "a refused store writes nothing");
    }

    /// Sizes around a word, a page and a ragged end.
    const SIZES: [usize; 7] = [0, 1, 7, 8, 9, 4_099, 65_536];

    fn zero_filled(data: &Mutex<AlignedBytes>) -> usize {
        data.lock().zero_filled
    }

    /// `b.load(offset, len)` as a byte vector.
    fn loaded(b: &Buffer, offset: usize, len: usize) -> ClResult<Vec<u8>> {
        b.load(offset, len).map(|l| l.as_slice().to_vec())
    }

    #[test]
    fn a_fresh_buffer_reads_as_zeroes_through_every_view() {
        for size in SIZES {
            let zeroes = vec![0u8; size];
            assert_eq!(loaded(&Buffer::alloc(size), 0, size), Ok(zeroes.clone()));
            assert_eq!(HostBuffer::pinned(size).to_vec(), zeroes);
            assert!(Buffer::alloc(size).read(|d| d.as_slice() == zeroes));
            assert!(HostBuffer::pageable(size).write(|h| h.as_mut_slice() == zeroes));
            if size % 4 == 0 {
                assert!(Buffer::alloc(size).read(|d| d.as_f32() == vec![0.0; size / 4]));
                assert!(Buffer::alloc(size).write(|d| d.as_f32_mut() == vec![0.0; size / 4]));
            }
            if size % 8 == 0 {
                assert!(HostBuffer::pinned(size).read(|h| h.as_f64() == vec![0.0; size / 8]));
                assert!(HostBuffer::pinned(size).write(|h| h.as_f64_mut() == vec![0.0; size / 8]));
            }
        }
    }

    #[test]
    fn a_buffer_clone_sees_the_same_prefix() {
        let a = Buffer::alloc(4_099);
        let b = a.clone();
        assert_eq!(a.store(0, &[1; 13]), Ok(()));
        assert_eq!(b.store(11, &[2; 30]), Ok(()));
        assert_eq!(
            a.data.lock().words.len(),
            6,
            "41 bytes through either handle"
        );
        assert_eq!(zero_filled(&b.data), 0);
        let mut expect = vec![0u8; 4_099];
        expect[..11].fill(1);
        expect[11..41].fill(2);
        assert_eq!(loaded(&b, 0, 4_099), Ok(expect));
        // `load` reads through: it zeroes its own copy, not the buffer.
        assert_eq!(zero_filled(&a.data), 0);
    }

    /// `len` bytes of `salt` behind `from` bytes of framing.
    fn framed(from: usize, len: usize, salt: u8) -> Arc<Vec<u8>> {
        let mut msg = vec![0xEE; from];
        msg.extend(payload(len, salt));
        Arc::new(msg)
    }

    #[test]
    fn the_newer_of_a_store_and_a_landing_wins() {
        let b = Buffer::alloc(64);
        assert_eq!(b.land(8, framed(1, 16, 3), 1), Ok(()));
        assert_eq!(b.store(12, &[2; 4]), Ok(()));
        assert_eq!(b.land(20, framed(2, 8, 5), 2), Ok(()));
        let mut expect = vec![0u8; 64];
        expect[8..24].copy_from_slice(&payload(16, 3));
        expect[12..16].fill(2);
        expect[20..28].copy_from_slice(&payload(8, 5));
        assert_eq!(loaded(&b, 0, 64), Ok(expect.clone()));
        assert!(b.read(|d| d.as_slice() == expect));
        assert_eq!(
            b.land(0, framed(0, 4, 1), 5),
            Err(ClError::InvalidValue(
                "landing from byte 5 of a 4-byte payload".into()
            ))
        );
        assert!(b.land(62, framed(1, 4, 1), 1).is_err());
    }

    #[test]
    fn a_load_decodes_in_place_across_extents_that_split_an_f32() -> ClResult<()> {
        let b = Buffer::alloc(64);
        let mut model = [0u8; 64];
        // A prefix of 40 bytes, then extents at odd offsets whose edges fall
        // inside an `f32`: the newer ones overlay part of the prefix and
        // each other, and [51, 57) is written by nobody.
        let prefix = payload(40, 1);
        assert_eq!(b.store(0, &prefix), Ok(()));
        model[..40].copy_from_slice(&prefix);
        for (at, len, salt, from) in [(13, 17, 3, 1), (27, 24, 5, 2), (57, 7, 7, 0), (21, 3, 9, 1)]
        {
            let msg = framed(from, len, salt);
            model[at..at + len].copy_from_slice(&msg[from..]);
            assert_eq!(b.land(at, msg, from), Ok(()));
        }
        for (offset, len) in [(0, 64), (4, 56), (12, 20), (52, 12), (8, 0)] {
            let l = b.load(offset, len)?;
            let want = &model[offset..offset + len];
            assert_eq!(l.as_slice(), want, "load({offset}, {len})");
            assert_eq!(f32_bits(l.as_f32()), decoded_f32_bits(want));
            // Zeroes only where nobody wrote (less the padding of a ragged
            // word, which is not counted).
            let unwritten = (51..57)
                .filter(|i| (offset..offset + len).contains(i))
                .count();
            assert!(l.zero_filled <= unwritten, "load({offset}, {len})");
        }
        // Loads read through: the buffer itself is still the prefix plus
        // four landed extents.
        let data = b.data.lock();
        assert_eq!((data.words.len(), data.landed.len()), (5, 4));
        Ok(())
    }

    #[test]
    fn a_buffer_holds_at_most_its_length_whatever_the_chunk_layout() {
        const SIZE: usize = 1_000;
        let dev = Buffer::alloc(SIZE);
        let mut model = vec![0u8; SIZE];
        for (step, chunk) in [100, 70, 130, 100].into_iter().enumerate() {
            for at in (0..SIZE).step_by(chunk) {
                let len = chunk.min(SIZE - at);
                let msg = framed(1, len, (16 * step + at / chunk) as u8);
                model[at..at + len].copy_from_slice(&msg[1..]);
                assert_eq!(dev.land(at, msg, 1), Ok(()));
                let data = dev.data.lock();
                let held: usize = data.landed.iter().map(|(_, s, f)| s.len() - f).sum();
                assert!(held <= SIZE, "step {step}: {held} bytes held");
            }
        }
        assert_eq!(loaded(&dev, 0, SIZE), Ok(model.clone()));
        assert!(dev.read(|d| d.as_slice() == model));
    }

    #[test]
    fn a_landed_broadcast_is_copied_only_where_somebody_reads() -> ClResult<()> {
        const SIZE: usize = 16 << 20;
        let chunk = SIZE / 60;
        let pieces: Vec<(usize, usize)> = (0..SIZE)
            .step_by(chunk)
            .map(|at| (at, chunk.min(SIZE - at)))
            .collect();
        assert_eq!(pieces.len(), 61);
        let dev = Buffer::alloc(SIZE);
        let mut model = vec![0u8; SIZE];
        // Two steps of the ring broadcast's relay, each chunk behind its
        // algorithm byte: the second step's chunks replace the first's.
        for step in 0..2u8 {
            for (k, &(at, len)) in pieces.iter().enumerate() {
                let msg = framed(1, len, step.wrapping_mul(61).wrapping_add(k as u8));
                model[at..at + len].copy_from_slice(&msg[1..]);
                assert_eq!(dev.land(at, msg, 1), Ok(()));
            }
            assert_eq!(dev.data.lock().landed.len(), 61);
        }
        // One rank's row block of a 16-rank kernel: landed extents cover
        // it, so the copy it gets zero-fills nothing, and its typed view is
        // the bytes in place.
        let (at, len) = (5 * SIZE / 16, SIZE / 16);
        let block = dev.load(at, len)?;
        assert_eq!(block.as_slice(), &model[at..at + len]);
        assert_eq!(block.zero_filled, 0);
        assert_eq!(block.as_f32().len(), len / 4);
        assert_eq!(
            block.as_f32().as_ptr().cast::<u8>(),
            block.as_slice().as_ptr()
        );
        assert_eq!(dev.data.lock().words.len(), 0);
        assert_eq!(zero_filled(&dev.data), 0);
        // A whole view copies every landed byte in, once.
        assert!(dev.read(|d| d.as_slice() == model));
        let data = dev.data.lock();
        assert_eq!((data.words.len(), data.landed.len()), (SIZE / 8, 0));
        assert_eq!(data.zero_filled, 0);
        Ok(())
    }

    /// The allocations `data` holds landed, oldest first.
    fn landed_allocations(data: &Mutex<AlignedBytes>) -> Vec<Extent> {
        data.lock().landed.clone()
    }

    #[test]
    fn a_write_of_a_tiled_stage_lands_the_same_allocations() -> ClResult<()> {
        // The nanopowder root: row blocks landed in a pinned stage, the
        // last one short, then one write of the whole stage.
        const SIZE: usize = 10_000;
        let stage = HostBuffer::pinned(SIZE);
        let mut model = vec![0u8; SIZE];
        for (k, at) in (0..SIZE).step_by(1_536).enumerate() {
            let block = payload(1_536.min(SIZE - at), k as u8);
            model[at..at + block.len()].copy_from_slice(&block);
            stage.land(at, Arc::new(block))?;
        }
        let dev = Buffer::alloc(SIZE);
        dev.copy(Dir::ToDevice, 0, SIZE, &stage, 0);
        let (held, shared) = (
            landed_allocations(&stage.data),
            landed_allocations(&dev.data),
        );
        assert_eq!(shared.len(), 7);
        for ((at, src, from), (d_at, d_src, d_from)) in held.iter().zip(&shared) {
            assert!(Arc::ptr_eq(src, d_src), "extent at {at} copied");
            assert_eq!((at, from), (d_at, d_from));
        }
        assert_eq!(dev.data.lock().words.len(), 0, "nothing copied in");
        assert_eq!(loaded(&dev, 0, SIZE), Ok(model.clone()));
        // A range of the device tiled by extents 2..5 shares back to the
        // host, at another offset.
        let back = HostBuffer::pageable(SIZE);
        dev.copy(Dir::ToHost, 3_072, 4_608, &back, 100);
        assert_eq!(landed_allocations(&back.data).len(), 3);
        for (got, want) in landed_allocations(&back.data).iter().zip(&held[2..5]) {
            assert!(Arc::ptr_eq(&got.1, &want.1));
            assert_eq!(got.0, want.0 - 3_072 + 100);
        }
        for data in [&stage.data, &dev.data, &back.data] {
            assert_eq!(zero_filled(data), 0);
        }
        let mut expect = vec![0u8; SIZE];
        expect[100..4_708].copy_from_slice(&model[3_072..7_680]);
        assert_eq!(back.to_vec(), expect);
        Ok(())
    }

    #[test]
    fn a_range_the_extents_do_not_tile_is_copied() -> ClResult<()> {
        const SIZE: usize = 4_096;
        let stage = HostBuffer::pinned(SIZE);
        // A prefix of 1 KiB, then extents over [1024, 2048) and
        // [2560, 3072) — a gap between them, and nothing past 3072 — and
        // one over [256, 768), inside the prefix.
        let mut model = vec![0u8; SIZE];
        for (at, len, salt) in [
            (0, 1_024, 1),
            (1_024, 1_024, 3),
            (2_560, 512, 5),
            (256, 512, 7),
        ] {
            let bytes = payload(len, salt);
            model[at..at + len].copy_from_slice(&bytes);
            match at {
                0 => stage.store(at, &bytes)?,
                _ => stage.land(at, Arc::new(bytes))?,
            }
        }
        // Ranges over the prefix — one of them tiled by the extent there —
        // one over the gap, one past the last extent, and one that starts
        // inside an extent: each is copied, byte for byte, over a
        // destination that held other bytes.
        let ranges = [
            (512, 1_024),
            (256, 512),
            (1_024, 2_048),
            (2_560, 1_024),
            (1_536, 1_024),
        ];
        for (offset, len) in ranges {
            let dev = Buffer::alloc(SIZE);
            dev.store(0, &[0xFF; SIZE])?;
            dev.copy(Dir::ToDevice, 7, len, &stage, offset);
            let mut expect = vec![0xFF; SIZE];
            expect[7..7 + len].copy_from_slice(&model[offset..offset + len]);
            assert_eq!(
                landed_allocations(&dev.data).len(),
                0,
                "{offset}+{len} shared"
            );
            assert_eq!(loaded(&dev, 0, SIZE), Ok(expect), "{offset}+{len}");
        }
        // The stage read through: still a prefix and three extents.
        assert_eq!(landed_allocations(&stage.data).len(), 3);
        assert_eq!(stage.data.lock().words.len(), 128);
        assert_eq!(zero_filled(&stage.data), 0);
        Ok(())
    }

    #[test]
    fn a_ranged_load_onto_leaves_extents_and_an_unwritten_tail_alone() -> ClResult<()> {
        // What a broadcast root's `load_behind` and a datatype send's
        // gather do: append ranges behind a header.
        const SIZE: usize = 65_536;
        let dev = Buffer::alloc(SIZE);
        let mut model = vec![0u8; SIZE];
        let prefix = payload(1_000, 2);
        dev.store(0, &prefix)?;
        model[..1_000].copy_from_slice(&prefix);
        for (at, len, salt) in [(900, 300, 4), (4_000, 2_000, 6), (5_000, 100, 8)] {
            let msg = framed(1, len, salt);
            model[at..at + len].copy_from_slice(&msg[1..]);
            dev.land(at, msg, 1)?;
        }
        let mut out = vec![0xEE];
        dev.load_onto(&mut out, [(800, 5_000), (30_000, 9), (0, 0), (5_050, 20)]);
        let mut expect = vec![0xEE];
        for (offset, len) in [(800, 5_000), (30_000, 9), (0, 0), (5_050, 20)] {
            expect.extend_from_slice(&model[offset..offset + len]);
        }
        assert_eq!(out, expect);
        let data = dev.data.lock();
        assert_eq!((data.words.len(), data.landed.len()), (125, 3));
        assert_eq!(data.zero_filled, 0);
        Ok(())
    }

    #[test]
    fn zeroes_are_written_only_where_nobody_wrote() {
        const SIZE: usize = 16 << 20;
        let chunk = SIZE / 60;
        let pieces: Vec<(usize, usize)> = (0..SIZE)
            .step_by(chunk)
            .map(|at| (at, chunk.min(SIZE - at)))
            .collect();
        assert_eq!(
            pieces.last(),
            Some(&(60 * chunk, 16)),
            "a ragged 61st chunk"
        );
        let payload = vec![7u8; chunk];

        // The ring broadcast's receiver: ascending chunk stores, then a kernel
        // reads. A zero-length write asks for no gap before it.
        let dev = Buffer::alloc(SIZE);
        assert_eq!(dev.store(SIZE, &[]), Ok(()));
        for &(at, len) in &pieces {
            assert_eq!(dev.store(at, &payload[..len]), Ok(()));
        }
        assert!(dev.read(|d| d.as_slice().iter().all(|&b| b == 7)));
        assert_eq!(zero_filled(&dev.data), 0);

        // The root: ascending 128 KiB `store`s into its stage, one
        // whole-buffer write; and a map back.
        let (stage, root, mapped) = (
            HostBuffer::pinned(SIZE),
            Buffer::alloc(SIZE),
            HostBuffer::pageable(SIZE),
        );
        let block = vec![9u8; 128 << 10];
        for at in (0..SIZE).step_by(block.len()) {
            assert_eq!(stage.store(at, &block), Ok(()));
        }
        root.copy(Dir::ToDevice, 0, SIZE, &stage, 0);
        root.copy(Dir::ToHost, 0, SIZE, &mapped, 0);
        assert!(mapped.to_vec() == vec![9u8; SIZE]);
        for data in [&stage.data, &root.data, &mapped.data] {
            assert_eq!(zero_filled(data), 0);
        }

        // Chunks 7 and 8 arriving swapped cost the gap chunk 8 leaves
        // behind it, from the end of chunk 6's last (padded) word.
        let swapped = Buffer::alloc(SIZE);
        let mut order = pieces.clone();
        order.swap(7, 8);
        for &(at, len) in &order {
            assert_eq!(swapped.store(at, &payload[..len]), Ok(()));
        }
        assert!(swapped.read(|d| d.as_slice().iter().all(|&b| b == 7)));
        assert_eq!(
            zero_filled(&swapped.data),
            8 * chunk - (7 * chunk).next_multiple_of(8)
        );

        // Nobody wrote: the whole length, once, at the first view.
        let untouched = HostBuffer::pinned(SIZE);
        assert_eq!(zero_filled(&untouched.data), 0);
        assert_eq!(untouched.read(|h| h.as_f32().len()), SIZE / 4);
        assert_eq!(untouched.write(|h| h.len()), SIZE);
        assert_eq!(zero_filled(&untouched.data), SIZE);
    }

    /// One generated operation on a device buffer / host buffer pair.
    /// Written bytes are odd, so never a zero; `width` is 4 (`f32`) or 8.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Store {
            offset: usize,
            len: usize,
            salt: u8,
        },
        /// `len` bytes landed behind `from` bytes of framing.
        Land {
            offset: usize,
            len: usize,
            salt: u8,
            from: usize,
        },
        HostStore {
            offset: usize,
            len: usize,
            salt: u8,
        },
        HostLand {
            offset: usize,
            len: usize,
            salt: u8,
        },
        Copy {
            to_host: bool,
            offset: usize,
            at: usize,
            len: usize,
        },
        WriteBytes {
            host: bool,
            offset: usize,
            len: usize,
            salt: u8,
        },
        WriteTyped {
            host: bool,
            width: usize,
            salt: u8,
        },
        Load {
            offset: usize,
            len: usize,
        },
        ToVec,
        ReadBytes {
            host: bool,
        },
        ReadTyped {
            host: bool,
            width: usize,
        },
        /// A view of the device buffer cut into regions of `region` bytes.
        ReadRegions {
            offset: usize,
            len: usize,
            region: usize,
        },
        /// The device buffer's landed extent over exactly the range, shared.
        Share {
            offset: usize,
            len: usize,
        },
        /// A ranged write of the device buffer.
        WriteRange {
            offset: usize,
            len: usize,
            salt: u8,
        },
    }

    fn f32_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The bit patterns `minimpi::datatype::bytes_to_f32` decodes `b` to.
    fn decoded_f32_bits(b: &[u8]) -> Vec<u32> {
        b.chunks_exact(4)
            .map(|c| u32::from_ne_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    fn payload(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| salt.wrapping_add(i as u8) | 1).collect()
    }

    /// A range of a `size`-byte target: half the time within a word or so
    /// of `near`, where its initialised prefix ends.
    fn range(rng: &mut XorShift64, size: usize, near: usize) -> (usize, usize) {
        let offset = if rng.gen_bool(0.5) {
            (near + rng.gen_range_usize(0, 10)).saturating_sub(rng.gen_range_usize(0, 10))
        } else {
            rng.gen_range_usize(0, size + 1)
        }
        .min(size);
        let len = match rng.gen_range_usize(0, 4) {
            0 => 0,
            1 => rng.gen_range_usize(0, 18),
            _ => rng.gen_range_usize(0, size - offset + 1),
        };
        (offset, len.min(size - offset))
    }

    /// The buffers under test beside the plain zero-initialised vectors
    /// they must read like, how far each has been written, where each
    /// one's last landed extent ends, how many copies shared landed
    /// extents device → host and host → device, and how many ranged views
    /// and shares met each case `Views` and `Shares` count.
    struct Pair {
        dev: Buffer,
        host: HostBuffer,
        dev_model: Vec<u8>,
        host_model: Vec<u8>,
        dev_end: usize,
        host_end: usize,
        dev_landed_end: usize,
        host_landed_end: usize,
        shared: [usize; 2],
        views: Views,
        shares: Shares,
        leans_on_landings: bool,
        leans_on_views: bool,
        leans_on_shares: bool,
    }

    /// Ranged views that: left an extent covering a region landed and
    /// read it in place; copied in an extent straddling an edge of their
    /// range; wrote beside an extent that stayed landed.
    #[derive(Clone, Copy, Default, Debug)]
    struct Views {
        in_place: usize,
        straddled: usize,
        beside: usize,
    }

    /// Shares that handed out an extent's allocation, and that refused a
    /// range: one that extents overlap but none spans exactly, one an
    /// extent spans exactly but from a byte other than 0, one an extent
    /// spans exactly but a newer one lies over.
    #[derive(Clone, Copy, Default, Debug)]
    struct Shares {
        shared: usize,
        straddled: usize,
        framed: usize,
        overlaid: usize,
    }

    /// The spans of the landed extents `data` holds, oldest first.
    fn spans(data: &Mutex<AlignedBytes>) -> Vec<(usize, usize)> {
        data.lock().landed.iter().map(span).collect()
    }

    /// Half the time a landing starts where the last one ended, so landed
    /// extents come to tile ranges a copy can share.
    fn landing(
        rng: &mut XorShift64,
        size: usize,
        last_end: usize,
        (offset, len): (usize, usize),
    ) -> (usize, usize) {
        match rng.gen_bool(0.5) {
            true => (last_end, len.min(size - last_end)),
            false => (offset, len),
        }
    }

    impl Pair {
        /// `(offset, len)` of a run of the source's landed extents, each
        /// starting where the one before it ends; `None` without extents.
        fn tiled(&self, to_host: bool, rng: &mut XorShift64) -> Option<(usize, usize)> {
            let src = if to_host {
                &self.dev.data
            } else {
                &self.host.data
            };
            let mut extents: Vec<(usize, usize)> = src
                .lock()
                .landed
                .iter()
                .map(|(at, s, from)| (*at, at + s.len() - from))
                .collect();
            extents.sort_unstable();
            let first = rng.gen_range_usize(0, extents.len().max(1));
            let &(lo, mut hi) = extents.get(first)?;
            for &(at, end) in &extents[first + 1..] {
                if at != hi || rng.gen_bool(0.3) {
                    break;
                }
                hi = end;
            }
            Some((lo, hi - lo))
        }

        /// A copy between the pair; of a range the source's landed
        /// extents tile, where one fits the destination, half the time —
        /// every time in a case that leans on landings.
        fn copy(
            &self,
            rng: &mut XorShift64,
            to_host: bool,
            dev: (usize, usize),
            host: (usize, usize),
        ) -> Op {
            let dst_size = match to_host {
                true => self.host_model.len(),
                false => self.dev_model.len(),
            };
            let tiled = (self.leans_on_landings || rng.gen_bool(0.5))
                .then(|| self.tiled(to_host, rng))
                .flatten()
                .filter(|&(_, len)| len <= dst_size);
            match (tiled, to_host) {
                (Some((src, len)), true) => Op::Copy {
                    to_host,
                    offset: src,
                    at: rng.gen_range_usize(0, dst_size - len + 1),
                    len,
                },
                (Some((src, len)), false) => Op::Copy {
                    to_host,
                    offset: rng.gen_range_usize(0, dst_size - len + 1),
                    at: src,
                    len,
                },
                (None, _) => Op::Copy {
                    to_host,
                    offset: dev.0,
                    at: host.0,
                    len: dev.1.min(host.1),
                },
            }
        }

        /// A view of the device buffer cut into regions: three times in
        /// four when it has a landed extent, around one — the extent one of
        /// the regions, or the regions cut across its edges. Otherwise
        /// small regions anywhere.
        fn read_regions(&self, rng: &mut XorShift64, (offset, len): (usize, usize)) -> Op {
            let size = self.dev_model.len();
            let extents = spans(&self.dev.data);
            let Some(&(lo, hi)) = extents.get(rng.gen_range_usize(0, extents.len() + 1)) else {
                let region = rng.gen_range_usize(1, 18);
                return Op::ReadRegions {
                    offset,
                    len: len - len % region,
                    region,
                };
            };
            let region = match rng.gen_range_usize(0, 3) {
                0 | 1 => hi - lo,
                _ => rng.gen_range_usize(1, hi - lo + 9),
            };
            let below = rng.gen_range_usize(0, 3).min(lo / region);
            let mut offset = lo - below * region;
            if rng.gen_bool(0.25) {
                offset = (offset + rng.gen_range_usize(1, 9)).min(size);
            }
            let count = (below + rng.gen_range_usize(0, 4)).min((size - offset) / region);
            Op::ReadRegions {
                offset,
                len: count * region,
                region,
            }
        }

        /// A share of the device buffer: when it has a landed extent, of
        /// exactly one's span half the time — one time in three one a newer
        /// extent partly overlays, where there is one — or of a range that
        /// cuts across one's edges.
        fn share(&self, rng: &mut XorShift64, (offset, len): (usize, usize)) -> Op {
            let size = self.dev_model.len();
            let extents = spans(&self.dev.data);
            let overlaid: Vec<(usize, usize)> = (0..extents.len())
                .filter(|&i| {
                    let (lo, hi) = extents[i];
                    extents[i + 1..].iter().any(|&(a, b)| a < hi && lo < b)
                })
                .map(|i| extents[i])
                .collect();
            let Some(&(lo, hi)) = extents.get(rng.gen_range_usize(0, extents.len().max(1))) else {
                return Op::Share { offset, len };
            };
            let k = rng.gen_range_usize(1, 9);
            let (lo, hi) = match rng.gen_range_usize(0, 6) {
                0 => (lo.saturating_sub(k), hi),
                1 => (lo, (hi + k).min(size)),
                2 => ((lo + k).min(size), (hi + k).min(size)),
                3 if !overlaid.is_empty() => overlaid[rng.gen_range_usize(0, overlaid.len())],
                _ => (lo, hi),
            };
            Op::Share {
                offset: lo,
                len: hi - lo,
            }
        }

        /// A ranged write of the device buffer: half the time ending where
        /// one of its landed extents starts or starting where one ends.
        fn write_range(&self, rng: &mut XorShift64, (offset, len): (usize, usize), salt: u8) -> Op {
            let size = self.dev_model.len();
            let extents = spans(&self.dev.data);
            let (offset, len) = match extents.get(rng.gen_range_usize(0, 2 * extents.len() + 1)) {
                Some(&(lo, _)) if rng.gen_bool(0.5) => {
                    let len = rng.gen_range_usize(0, lo + 1).min(64);
                    (lo - len, len)
                }
                Some(&(_, hi)) => (hi, rng.gen_range_usize(0, size - hi + 1).min(64)),
                None => (offset, len),
            };
            Op::WriteRange { offset, len, salt }
        }

        fn generate(&self, rng: &mut XorShift64) -> Op {
            let (dev, host) = (self.dev_model.len(), self.host_model.len());
            let (to_host, salt) = (rng.gen_bool(0.5), rng.next_u64() as u8);
            let width = if salt % 2 == 0 { 4 } else { 8 };
            let (offset, len) = range(rng, dev, self.dev_end);
            let (at, room) = range(rng, host, self.host_end);
            // A case that leans on landings makes two ops in three a
            // landing or a copy, so copies meet sources their landed
            // extents tile before a store or a whole view copies them in;
            // one that leans on views, a landing or a ranged view; one
            // that leans on shares, a landing or a share.
            let lean: &[usize] = match (self.leans_on_landings, self.leans_on_views) {
                (true, _) => &[9, 20, 25],
                (_, true) => &[20, 30, 32],
                _ if self.leans_on_shares => &[20, 34],
                _ => &[],
            };
            let pick = match !lean.is_empty() && rng.gen_bool(2.0 / 3.0) {
                true => lean[rng.gen_range_usize(0, lean.len())],
                false => rng.gen_range_usize(0, 36),
            };
            match pick {
                0..=5 => Op::Store { offset, len, salt },
                20..=24 => {
                    // A case that leans on shares lands up to 64 bytes from
                    // inside the newest extent one time in three, so shares
                    // meet an extent a newer one partly overlays.
                    let newest = spans(&self.dev.data).pop().filter(|&(lo, hi)| hi - lo > 1);
                    let (offset, len) = match newest {
                        Some((lo, hi)) if self.leans_on_shares && rng.gen_bool(1.0 / 3.0) => {
                            let at = rng.gen_range_usize(lo + 1, hi);
                            (at, rng.gen_range_usize(1, 65).min(dev - at))
                        }
                        _ => landing(rng, dev, self.dev_landed_end, (offset, len)),
                    };
                    Op::Land {
                        offset,
                        len,
                        salt,
                        from: rng.gen_range_usize(0, 3),
                    }
                }
                25..=29 => {
                    let (offset, len) = landing(rng, host, self.host_landed_end, (at, room));
                    Op::HostLand { offset, len, salt }
                }
                30 | 31 => self.read_regions(rng, (offset, len)),
                32 | 33 => self.write_range(rng, (offset, len), salt),
                34.. => self.share(rng, (offset, len)),
                6..=8 => Op::HostStore {
                    offset: at,
                    len: room,
                    salt,
                },
                9..=12 => self.copy(rng, to_host, (offset, len), (at, room)),
                13 if to_host => Op::WriteBytes {
                    host: true,
                    offset: at,
                    len: room,
                    salt,
                },
                13 => Op::WriteBytes {
                    host: false,
                    offset,
                    len,
                    salt,
                },
                14 | 15 => Op::WriteTyped {
                    host: to_host,
                    width,
                    salt,
                },
                16 => Op::Load { offset, len },
                17 => Op::ToVec,
                18 => Op::ReadBytes { host: to_host },
                _ => Op::ReadTyped {
                    host: to_host,
                    width,
                },
            }
        }

        /// Whether a `write` closure over the chosen target returns what
        /// `model` returns over its vector.
        fn write<R: PartialEq>(
            &mut self,
            host: bool,
            f: impl FnOnce(&mut AlignedBytes) -> R,
            model: impl FnOnce(&mut [u8]) -> R,
        ) -> bool {
            if host {
                self.host.write(f) == model(&mut self.host_model)
            } else {
                self.dev.write(f) == model(&mut self.dev_model)
            }
        }

        /// Whether `f` of the chosen target, under a `read` closure, is
        /// its model byte for byte.
        fn reads_as(&self, host: bool, f: impl FnOnce(&AlignedBytes) -> Vec<u8>) -> bool {
            if host {
                self.host.read(f) == self.host_model
            } else {
                self.dev.read(f) == self.dev_model
            }
        }

        /// Apply `op` to the buffers and the models; false when what the
        /// buffers show differs from the models.
        fn apply(&mut self, op: Op) -> bool {
            match op {
                Op::Store { offset, len, salt } => {
                    let src = payload(len, salt);
                    self.dev_model[offset..offset + len].copy_from_slice(&src);
                    self.dev_end = self.dev_end.max(offset + len);
                    self.dev.store(offset, &src) == Ok(())
                }
                Op::Land {
                    offset,
                    len,
                    salt,
                    from,
                } => {
                    let msg = framed(from, len, salt);
                    self.dev_model[offset..offset + len].copy_from_slice(&msg[from..]);
                    self.dev_end = self.dev_end.max(offset + len);
                    self.dev_landed_end = offset + len;
                    self.dev.land(offset, msg, from) == Ok(())
                }
                Op::HostLand { offset, len, salt } => {
                    let src = payload(len, salt);
                    self.host_model[offset..offset + len].copy_from_slice(&src);
                    self.host_end = self.host_end.max(offset + len);
                    self.host_landed_end = offset + len;
                    self.host.land(offset, Arc::new(src)) == Ok(())
                }
                Op::HostStore { offset, len, salt } => {
                    let src = payload(len, salt);
                    self.host_model[offset..offset + len].copy_from_slice(&src);
                    self.host_end = self.host_end.max(offset + len);
                    self.host.store(offset, &src) == Ok(())
                }
                Op::Copy {
                    to_host,
                    offset,
                    at,
                    len,
                } => {
                    let (src, from) = match to_host {
                        true => (&self.dev.data, offset),
                        false => (&self.host.data, at),
                    };
                    if src.lock().tiling(from, len).is_some() {
                        self.shared[usize::from(!to_host)] += 1;
                    }
                    let d = &mut self.dev_model[offset..offset + len];
                    let h = &mut self.host_model[at..at + len];
                    if to_host {
                        h.copy_from_slice(d);
                        self.host_end = self.host_end.max(at + len);
                        self.dev.copy(Dir::ToHost, offset, len, &self.host, at);
                    } else {
                        d.copy_from_slice(h);
                        self.dev_end = self.dev_end.max(offset + len);
                        self.dev.copy(Dir::ToDevice, offset, len, &self.host, at);
                    }
                    true
                }
                Op::WriteBytes {
                    host,
                    offset,
                    len,
                    salt,
                } => {
                    let src = payload(len, salt);
                    self.write(
                        host,
                        |b| b.as_mut_slice()[offset..offset + len].copy_from_slice(&src),
                        |m| m[offset..offset + len].copy_from_slice(&src),
                    )
                }
                // Set the middle element of the typed view, if the length
                // allows the view and it has one; report its length.
                Op::WriteTyped { host, width, salt } => self.write(
                    host,
                    |b| match (b.len() % width, width) {
                        (0, 4) => {
                            let v = b.as_f32_mut();
                            if let Some(x) = v.get_mut(v.len() / 2) {
                                *x = f32::from_ne_bytes([salt | 1; 4]);
                            }
                            v.len()
                        }
                        (0, _) => {
                            let v = b.as_f64_mut();
                            if let Some(x) = v.get_mut(v.len() / 2) {
                                *x = f64::from_ne_bytes([salt | 1; 8]);
                            }
                            v.len()
                        }
                        _ => 0,
                    },
                    |m| match m.len() % width {
                        0 => {
                            let n = m.len() / width;
                            m.chunks_exact_mut(width)
                                .skip(n / 2)
                                .take(1)
                                .for_each(|x| x.fill(salt | 1));
                            n
                        }
                        _ => 0,
                    },
                ),
                // The bytes, and where the length allows it the `f32` view
                // in place against the model's bytes decoded.
                Op::Load { offset, len } => {
                    let model = &self.dev_model[offset..offset + len];
                    self.dev.load(offset, len).is_ok_and(|l| {
                        l.as_slice() == model
                            && (len % 4 != 0 || f32_bits(l.as_f32()) == decoded_f32_bits(model))
                    })
                }
                // Every region reads as the model; afterwards the extents
                // over the range are the ones that covered a region
                // exactly, each handed over where it landed. A view that
                // copied nothing in wrote no byte.
                Op::ReadRegions {
                    offset,
                    len,
                    region,
                } => {
                    let end = offset + len;
                    let before = landed_allocations(&self.dev.data);
                    let words = self.dev.data.lock().words.len();
                    let straddles = before
                        .iter()
                        .map(span)
                        .any(|(lo, hi)| (lo < offset && offset < hi) || (lo < end && end < hi));
                    // The allocation each region reads in place: the newest
                    // extent over any of it, if that one spans exactly it.
                    let starts: Vec<usize> = (offset..end).step_by(region).collect();
                    let in_place: Vec<Option<*const u8>> = starts
                        .iter()
                        .map(|&at| {
                            let newest = before
                                .iter()
                                .rev()
                                .find(|e| span(e).0 < at + region && at < span(e).1)?;
                            (span(newest) == (at, at + region))
                                .then(|| newest.1[newest.2..].as_ptr())
                        })
                        .collect();
                    let model = &self.dev_model;
                    let handed = self.dev.read_regions(offset, len, region, |views| {
                        let agrees = views.len() == starts.len()
                            && views
                                .iter()
                                .zip(&starts)
                                .all(|(v, &at)| *v == &model[at..at + region]);
                        agrees.then(|| views.iter().map(|v| v.as_ptr()).collect::<Vec<_>>())
                    });
                    // Whatever is left over the range lies over kept
                    // regions only (an older extent may lie under a kept
                    // one), and each kept region's extent is still there.
                    let left = spans(&self.dev.data);
                    let is_kept = |at: usize| in_place[(at - offset) / region].is_some();
                    let leftover_is_kept = left
                        .iter()
                        .all(|&(lo, hi)| (lo.max(offset)..hi.min(end)).all(is_kept));
                    let kept = in_place.iter().flatten().count();
                    self.views.in_place += usize::from(kept > 0);
                    self.views.straddled += usize::from(straddles);
                    handed.is_some_and(|ptrs| {
                        ptrs.iter()
                            .zip(&in_place)
                            .all(|(p, want)| want.is_none_or(|w| *p == w))
                    }) && leftover_is_kept
                        && starts
                            .iter()
                            .filter(|&&at| is_kept(at))
                            .all(|&at| left.contains(&(at, at + region)))
                        && (kept < starts.len() || self.dev.data.lock().words.len() == words)
                }
                // The allocation of the newest extent that spans exactly the
                // range, from its byte 0, with nothing newer over it: the
                // same allocation, reading as a load does. Anything else is
                // refused.
                Op::Share { offset, len } => {
                    let end = offset + len;
                    let before = landed_allocations(&self.dev.data);
                    let exact = before.iter().rposition(|e| span(e) == (offset, end));
                    let overlaid = exact.is_some_and(|i| {
                        before[i + 1..]
                            .iter()
                            .any(|e| span(e).0 < end && offset < span(e).1)
                    });
                    let got = self.dev.share(offset, len);
                    let model = &self.dev_model[offset..end];
                    match exact.map(|i| &before[i]) {
                        Some((_, src, 0)) if !overlaid => {
                            self.shares.shared += 1;
                            got.is_some_and(|g| {
                                Arc::ptr_eq(&g, src)
                                    && g[..] == *model
                                    && loaded(&self.dev, offset, len).is_ok_and(|l| l == g[..])
                            })
                        }
                        Some(_) => {
                            match overlaid {
                                true => self.shares.overlaid += 1,
                                false => self.shares.framed += 1,
                            }
                            got.is_none()
                        }
                        None => {
                            self.shares.straddled += usize::from(
                                before
                                    .iter()
                                    .map(span)
                                    .any(|(lo, hi)| lo.max(offset) < hi.min(end)),
                            );
                            got.is_none()
                        }
                    }
                }
                // The range reads as the model before the write; afterwards
                // nothing landed lies over it.
                Op::WriteRange { offset, len, salt } => {
                    let (end, src) = (offset + len, payload(len, salt));
                    let before = spans(&self.dev.data);
                    let model = &mut self.dev_model[offset..end];
                    let current = self.dev.write_range(offset, len, |d| {
                        let view = &mut d.as_mut_slice()[offset..end];
                        let current = view == model;
                        view.copy_from_slice(&src);
                        current
                    });
                    model.copy_from_slice(&src);
                    self.dev_end = self.dev_end.max(end);
                    let left = spans(&self.dev.data);
                    self.views.beside += before
                        .iter()
                        .filter(|&&(lo, hi)| {
                            len > 0 && (hi == offset || lo == end) && left.contains(&(lo, hi))
                        })
                        .count()
                        .min(1);
                    current && left.iter().all(|&(lo, hi)| hi <= offset || end <= lo)
                }
                Op::ToVec => self.host.to_vec() == self.host_model,
                Op::ReadBytes { host } => self.reads_as(host, |b| b.as_slice().to_vec()),
                Op::ReadTyped { host, width } => {
                    self.reads_as(host, |b| match (b.len() % width, width) {
                        (0, 4) => b.as_f32().iter().flat_map(|x| x.to_ne_bytes()).collect(),
                        (0, _) => b.as_f64().iter().flat_map(|x| x.to_ne_bytes()).collect(),
                        _ => b.as_slice().to_vec(),
                    })
                }
            }
        }
    }

    #[test]
    fn buffers_read_like_zero_initialised_vectors_under_random_ops() {
        const CASES: u64 = 1_600;
        const OPS_PER_CASE: usize = 16;
        let mut root = XorShift64::new(0xC1_B0FF);
        let (mut shared, mut views, mut shares) = ([0; 2], Views::default(), Shares::default());
        for case in 0..CASES {
            let mut rng = root.fork(case);
            // One case in four leans on landings, one on ranged views and
            // one on shares, in buffers of more than a word.
            let (leans_on_landings, leans_on_views, leans_on_shares) =
                (case % 4 == 1, case % 4 == 2, case % 4 == 3);
            let smallest = if case % 4 > 0 { 4 } else { 0 };
            let dev_size = SIZES[rng.gen_range_usize(smallest, SIZES.len())];
            let host_size = SIZES[rng.gen_range_usize(smallest, SIZES.len())];
            let mut pair = Pair {
                dev: Buffer::alloc(dev_size),
                host: HostBuffer::pinned(host_size),
                dev_model: vec![0; dev_size],
                host_model: vec![0; host_size],
                dev_end: 0,
                host_end: 0,
                dev_landed_end: 0,
                host_landed_end: 0,
                shared: [0; 2],
                views: Views::default(),
                shares: Shares::default(),
                leans_on_landings,
                leans_on_views,
                leans_on_shares,
            };
            // Whatever the generated ops left unread is read at the end.
            let closing = [
                Op::Load {
                    offset: 0,
                    len: dev_size,
                },
                Op::ToVec,
            ];
            let mut ops = Vec::new();
            for i in 0..OPS_PER_CASE + closing.len() {
                let op = closing.get(i.wrapping_sub(OPS_PER_CASE)).copied();
                ops.push(op.unwrap_or_else(|| pair.generate(&mut rng)));
                assert!(
                    pair.apply(ops[i]),
                    "case {case} (device {dev_size} B, host {host_size} B) diverged from its model \
                     at the last of:{}",
                    ops.iter().map(|op| format!("\n  {op:?}")).collect::<String>()
                );
            }
            shared = [0, 1].map(|i| shared[i] + pair.shared[i]);
            views.in_place += pair.views.in_place;
            views.straddled += pair.views.straddled;
            views.beside += pair.views.beside;
            shares.shared += pair.shares.shared;
            shares.straddled += pair.shares.straddled;
            shares.framed += pair.shares.framed;
            shares.overlaid += pair.shares.overlaid;
        }
        assert!(CASES as usize * OPS_PER_CASE >= 10_000);
        println!("copies that shared landed extents (to host, to device): {shared:?}");
        println!("ranged views: {views:?}");
        assert!(shared.iter().all(|&n| n >= 100), "{shared:?}");
        let Views {
            in_place,
            straddled,
            beside,
        } = views;
        assert!(in_place.min(straddled).min(beside) >= 100, "{views:?}");
        println!("shares: {shares:?}");
        let Shares {
            shared,
            straddled,
            framed,
            overlaid,
        } = shares;
        assert!(
            shared.min(straddled).min(framed).min(overlaid) >= 100,
            "{shares:?}"
        );
    }
}
