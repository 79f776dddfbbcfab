//! Device and host memory objects.
//!
//! A buffer's contents are one piece table (`Contents`): a sorted,
//! non-overlapping map from offset to piece that tiles the buffer. A piece
//! is bytes nobody wrote (`Zero`), bytes the buffer wrote into its one
//! word array (`Owned`), or bytes that landed by reference (`Shared`). A
//! landing replaces its range with one `Shared` piece; a write replaces
//! its range with one `Owned` piece; a hop moves each piece as it is; a
//! reader walks its range's pieces in order, so it copies each byte once
//! and zero-fills only `Zero` pieces; a view hands out in place what lies
//! inside one piece.

use simtime::plock::Mutex;
use std::sync::Arc;

use crate::{ClError, ClResult};

/// A byte array with 8-byte alignment, so typed float views are valid:
/// what [`Buffer::load`] returns and what the whole-buffer views
/// ([`Buffer::read`], [`Buffer::write`]) hand out.
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

    /// Write `n` bytes at `at` — `src`, or zeroes where it is `None` —
    /// growing the array by what reaches past its end: each byte once.
    fn put(&mut self, at: usize, src: Option<&[u8]>, n: usize) {
        assert!(at <= self.len, "a gap before byte {at}");
        let inside = n.min(self.words.len() * 8 - at);
        self.len = self.len.max(at + inside);
        let dst = &mut self.as_mut_slice()[at..at + inside];
        match src {
            Some(src) => dst.copy_from_slice(&src[..inside]),
            None => dst.fill(0),
        }
        let beyond = n - inside;
        let word = |bytes: &[u8]| {
            let mut w = [0u8; 8];
            w[..bytes.len()].copy_from_slice(bytes);
            u64::from_ne_bytes(w)
        };
        match src.map(|src| src[inside..].chunks_exact(8)) {
            Some(words) => {
                let ragged = (!words.remainder().is_empty()).then(|| word(words.remainder()));
                self.words.extend(words.map(word));
                self.words.extend(ragged);
            }
            None => self.words.resize(self.words.len() + beyond.div_ceil(8), 0),
        }
        self.len += beyond;
    }

    /// Byte view.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the Vec<u64> holds at least `len` initialized bytes and
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
        // is a valid f32, and the initialized length is scaled.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<f32>(), self.len / 4) }
    }

    /// Mutable `f32` view; panics unless the length is a multiple of 4.
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        assert_eq!(self.len % 4, 0, "buffer length not a multiple of 4");
        let n = self.len / 4;
        // SAFETY: as above; we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<f32>(), n) }
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
        let n = self.len / 8;
        // SAFETY: as above; we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<f64>(), n) }
    }
}

/// One piece of a buffer's contents; each holds its length first.
#[derive(Clone)]
enum Piece {
    /// Bytes nobody wrote: they read as zeroes and exist nowhere.
    Zero(usize),
    /// Bytes of the buffer's word array, at their own offset in it.
    Owned(usize),
    /// `src[from..from + len]`, landed by reference.
    Shared(usize, Arc<Vec<u8>>, usize),
}

impl Piece {
    fn len(&self) -> usize {
        match self {
            Piece::Zero(len) | Piece::Owned(len) | Piece::Shared(len, ..) => *len,
        }
    }

    /// Keep the first `k` bytes and return the rest, where they are.
    fn split(&mut self, k: usize) -> Piece {
        match self {
            Piece::Zero(len) => Piece::Zero(std::mem::replace(len, k) - k),
            Piece::Owned(len) => Piece::Owned(std::mem::replace(len, k) - k),
            Piece::Shared(len, src, from) => {
                Piece::Shared(std::mem::replace(len, k) - k, src.clone(), *from + k)
            }
        }
    }

    /// Take `next` into this piece if both are `Zero` or both `Owned`.
    fn absorb(&mut self, next: &Piece) -> bool {
        match (self, next) {
            (Piece::Zero(len), Piece::Zero(more)) | (Piece::Owned(len), Piece::Owned(more)) => {
                *len += *more
            }
            _ => return false,
        }
        true
    }

    /// What a `Shared` piece pins: its allocation from `from` to the end,
    /// however little of that it shows.
    fn pinned(&self) -> usize {
        match self {
            Piece::Shared(_, src, from) => src.len() - from,
            _ => 0,
        }
    }
}

/// A piece with its offset, and the part of a range it covers.
type Span<'a> = (usize, &'a Piece, usize, usize);

/// A buffer's contents: pieces by offset, each starting where the one
/// before it ends; the one word array every `Owned` piece shows, which
/// starts at the first byte ever written, so buffer byte `at` is array
/// byte `at − base`; and what the `Shared` pieces pin. A cut copies
/// nothing: both remnants of an `Owned` piece still show the array.
struct Contents {
    len: usize,
    pieces: Vec<(usize, Piece)>,
    words: AlignedBytes,
    base: usize,
    pinned: usize,
}

impl Contents {
    /// `len` bytes nobody has written.
    fn new(len: usize) -> Self {
        Contents {
            len,
            pieces: vec![(0, Piece::Zero(len))],
            words: AlignedBytes::zeroed(0),
            base: 0,
            pinned: 0,
        }
    }

    /// The pieces over `[offset, offset + len)`, ascending.
    fn over(&self, offset: usize, len: usize) -> impl Iterator<Item = Span<'_>> {
        let end = offset + len;
        assert!(end <= self.len, "read past the end");
        let i = self
            .pieces
            .partition_point(|(at, p)| at + p.len() <= offset);
        self.pieces[i..]
            .iter()
            .take_while(move |(at, _)| *at < end)
            .map(move |(at, p)| (*at, p, offset.max(*at), end.min(at + p.len())))
    }

    /// The bytes of the piece at `at`; `None` for a `Zero` one.
    fn bytes<'a>(&'a self, at: usize, piece: &'a Piece) -> Option<&'a [u8]> {
        match piece {
            Piece::Zero(_) => None,
            Piece::Owned(len) => Some(&self.words.as_slice()[at - self.base..][..*len]),
            Piece::Shared(len, src, from) => Some(&src[*from..from + len]),
        }
    }

    /// Hand `put` the range's bytes in order, a piece at a time, each at
    /// its offset into the range: the bytes, or `None` and a count for
    /// bytes nobody wrote.
    fn walk(&self, offset: usize, len: usize, mut put: impl FnMut(usize, Option<&[u8]>, usize)) {
        for (at, piece, lo, hi) in self.over(offset, len) {
            let bytes = self.bytes(at, piece).map(|b| &b[lo - at..hi - at]);
            put(lo - offset, bytes, hi - lo);
        }
    }

    /// `[at, at + len)` in place, if it lies inside one piece that is not
    /// `Zero`.
    fn within(&self, at: usize, len: usize) -> Option<&[u8]> {
        let (o, piece, lo, hi) = self.over(at, len).next()?;
        let bytes = self.bytes(o, piece)?;
        (hi - lo == len).then(|| &bytes[lo - o..hi - o])
    }

    /// Put a piece boundary at `at`, splitting the piece across it, and
    /// return the index of the first piece at or after it.
    fn cut(&mut self, at: usize) -> usize {
        let i = self.pieces.partition_point(|(o, _)| *o < at);
        if let Some((o, piece)) = i.checked_sub(1).map(|j| &mut self.pieces[j]) {
            if at < *o + piece.len() {
                let rest = piece.split(at - *o);
                self.pinned += rest.pinned();
                self.pieces.insert(i, (at, rest));
            }
        }
        i
    }

    /// Replace `[offset, offset + len)` with `with`, which tile it and
    /// join no neighbour among themselves; then join each end of them to
    /// the piece beside it.
    fn replace(&mut self, offset: usize, len: usize, with: Vec<(usize, Piece)>) {
        if len == 0 {
            return;
        }
        let (i, j, n) = (self.cut(offset), self.cut(offset + len), with.len());
        self.pinned += with.iter().map(|(_, p)| p.pinned()).sum::<usize>();
        let gone = self.pieces.splice(i..j, with);
        self.pinned -= gone.map(|(_, p)| p.pinned()).sum::<usize>();
        for k in [i + n, i] {
            let (before, after) = self.pieces.split_at_mut(k);
            if let (Some((_, p)), Some((_, next))) = (before.last_mut(), after.first()) {
                if p.absorb(next) {
                    self.pieces.remove(k);
                }
            }
        }
    }

    /// Land `src[from..]` at `offset` by reference.
    fn land(&mut self, offset: usize, src: Arc<Vec<u8>>, from: usize) {
        let len = src.len() - from;
        assert!(offset + len <= self.len, "write past the end");
        self.replace(offset, len, vec![(offset, Piece::Shared(len, src, from))]);
        self.bound();
    }

    /// If `Shared` pieces pin more than the buffer's length, copy in each
    /// that stops short of its allocation's end: the rest pin what they show.
    fn bound(&mut self) {
        let pieces = (self.pinned > self.len).then(|| self.pieces.clone());
        for (at, p) in pieces.into_iter().flatten() {
            if p.pinned() > p.len() {
                self.own(at, p.len(), None);
            }
        }
    }

    /// Make the array hold byte `offset` (or end there) and leave it room
    /// up to `end`. An offset outside it copies the array into a new one,
    /// with that room, that reaches from the lower of its start and
    /// `offset`.
    fn reach(&mut self, offset: usize, end: usize) {
        if self.words.is_empty() {
            self.base = offset;
        }
        let (base, held) = (self.base, self.words.len());
        if offset < base || base + held < offset {
            let lo = base.min(offset);
            let mut array = AlignedBytes::zeroed(0);
            array
                .words
                .reserve_exact((end.max(base + held) - lo).div_ceil(8));
            array.put(0, None, (base + held).max(offset) - lo);
            array.as_mut_slice()[base - lo..][..held].copy_from_slice(self.words.as_slice());
            (self.words, self.base) = (array, lo);
        }
        let more = (end - self.base)
            .div_ceil(8)
            .saturating_sub(self.words.words.len());
        self.words.words.reserve(more);
    }

    /// Make `[offset, offset + len)` one `Owned` piece holding `src`, or
    /// what the range reads as now where `src` is `None`; return the
    /// array and the range's position in it. Bytes the array already
    /// shows stay put.
    fn own(&mut self, offset: usize, len: usize, src: Option<&[u8]>) -> (&mut AlignedBytes, usize) {
        let end = offset + len;
        assert!(end <= self.len, "write past the end");
        let inside = matches!(self.over(offset, len).next(),
            Some((at, Piece::Owned(l), ..)) if end <= at + l);
        self.reach(offset, end);
        let at = offset - self.base;
        match src {
            Some(src) => self.words.put(at, Some(src), len),
            None if inside => {}
            None => {
                let mut words = std::mem::replace(&mut self.words, AlignedBytes::zeroed(0));
                for (o, piece, lo, hi) in self.over(offset, len) {
                    if !matches!(piece, Piece::Owned(_)) {
                        let bytes = self.bytes(o, piece).map(|b| &b[lo - o..hi - o]);
                        words.put(lo - self.base, bytes, hi - lo);
                    }
                }
                self.words = words;
            }
        }
        if !inside {
            self.replace(offset, len, vec![(offset, Piece::Owned(len))]);
        }
        (&mut self.words, at)
    }

    /// Make `[at, at + len)` read as `[offset, offset + len)` of `src`
    /// does, moving each source piece as it is: a `Zero` piece stays
    /// `Zero`, a `Shared` piece or part of one lands by reference, and
    /// `Owned` bytes are copied into the array.
    fn copy_from(&mut self, at: usize, src: &Contents, offset: usize, len: usize) {
        let mut pieces = Vec::new();
        for (o, piece, lo, hi) in src.over(offset, len) {
            let (to, n) = (at + lo - offset, hi - lo);
            let moved = match piece {
                Piece::Zero(_) => Piece::Zero(n),
                Piece::Owned(_) => {
                    self.reach(to, to + n);
                    let bytes = src.bytes(o, piece).map(|b| &b[lo - o..hi - o]);
                    self.words.put(to - self.base, bytes, n);
                    Piece::Owned(n)
                }
                Piece::Shared(_, s, from) => Piece::Shared(n, s.clone(), from + lo - o),
            };
            pieces.push((to, moved));
        }
        self.replace(at, len, pieces);
        self.bound();
    }

    /// The allocation of the one `Shared` piece that spans exactly
    /// `[offset, offset + len)` and shows all of it.
    fn share(&self, offset: usize, len: usize) -> Option<Arc<Vec<u8>>> {
        let piece = (offset + len <= self.len).then(|| self.over(offset, len).next());
        let (at, Piece::Shared(l, src, 0), ..) = piece.flatten()? else {
            return None;
        };
        ((at, *l, *l) == (offset, len, src.len())).then(|| src.clone())
    }

    /// Append `[offset, offset + len)` to `out`.
    fn load_onto(&self, out: &mut Vec<u8>, offset: usize, len: usize) {
        self.walk(offset, len, |_, bytes, n| match bytes {
            Some(bytes) => out.extend_from_slice(bytes),
            None => out.resize(out.len() + n, 0),
        });
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
    size: usize,
    data: Arc<Mutex<Contents>>,
}

impl Buffer {
    /// Allocate a device buffer of `size` bytes that reads as zeroes.
    pub(crate) fn alloc(size: usize) -> Self {
        Buffer {
            size,
            data: Arc::new(Mutex::new(Contents::new(size))),
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` over an immutable view of the contents, copied into one
    /// array first.
    pub fn read<R>(&self, f: impl FnOnce(&AlignedBytes) -> R) -> R {
        f(self.data.lock().own(0, self.size, None).0)
    }

    /// Run `f` over a mutable view of the contents, copied into one array
    /// first.
    pub fn write<R>(&self, f: impl FnOnce(&mut AlignedBytes) -> R) -> R {
        f(self.data.lock().own(0, self.size, None).0)
    }

    /// Run `f` over `[offset, offset + len)` cut into regions of `region`
    /// bytes, each as the buffer reads it. A region inside one piece that
    /// is not `Zero` is handed over where it is; each run of the others
    /// becomes one `Owned` piece first. Panics if the range runs past the
    /// end, or if `len` is not a multiple of a non-zero `region`.
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
        let held: Vec<bool> = starts
            .clone()
            .map(|at| data.within(at, region).is_some())
            .collect();
        let mut at = offset;
        for run in held.chunk_by(|a, b| a == b) {
            if !run[0] {
                data.own(at, run.len() * region, None);
            }
            at += run.len() * region;
        }
        let views: Vec<&[u8]> = starts
            .map(|at| data.within(at, region).unwrap_or_default())
            .collect();
        f(&views)
    }

    /// Run `f` over `[offset, offset + len)` as the buffer reads it,
    /// mutably: in place when it lies inside one `Owned` piece, otherwise
    /// after the range becomes one. Panics if the range runs past the end.
    pub fn write_range<R>(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut data = self.data.lock();
        let (array, at) = data.own(offset, len, None);
        f(&mut array.as_mut_slice()[at..at + len])
    }

    /// Copy `src` into the buffer at `offset`.
    pub fn store(&self, offset: usize, src: &[u8]) -> ClResult<()> {
        self.check_range(offset, src.len())?;
        self.data.lock().own(offset, src.len(), Some(src));
        Ok(())
    }

    /// The allocation a `Shared` piece shows all of, if that piece spans
    /// exactly `[offset, offset + len)`: the bytes a [`Buffer::load`] of
    /// the range would copy, shared instead. Changes nothing.
    pub fn share(&self, offset: usize, len: usize) -> Option<Arc<Vec<u8>>> {
        self.data.lock().share(offset, len)
    }

    /// Land `src[from..]` at `offset` by reference, as one `Shared` piece
    /// (a broadcast's wire chunk, shared with every relay that forwards
    /// it). Every read sees what a [`Buffer::store`] would have left.
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

    /// Copy `len` bytes starting at `offset` into aligned storage of their
    /// own, so typed views need no second copy. The buffer changes nothing
    /// and each byte of the result is written once.
    pub fn load(&self, offset: usize, len: usize) -> ClResult<AlignedBytes> {
        self.check_range(offset, len)?;
        let mut out = AlignedBytes::zeroed(0);
        out.words.reserve_exact(len.div_ceil(8));
        self.data
            .lock()
            .walk(offset, len, |at, bytes, n| out.put(at, bytes, n));
        Ok(out)
    }

    /// Append each `(offset, len)` range of the buffer to `out`, read
    /// through as [`Buffer::load`] reads it, under one lock. Panics if a
    /// range runs past the end: every caller has checked its ranges.
    pub fn load_onto(&self, out: &mut Vec<u8>, ranges: impl IntoIterator<Item = (usize, usize)>) {
        let data = self.data.lock();
        for (offset, len) in ranges {
            data.load_onto(out, offset, len);
        }
    }

    /// Validate an (offset, len) range against the buffer size.
    pub fn check_range(&self, offset: usize, len: usize) -> ClResult<()> {
        check_range("buffer", self.size, offset, len)
    }

    /// One PCIe hop: make `len` bytes at `at` of `host` and at `offset` of
    /// this buffer read alike, copying which way `dir` says, under both
    /// locks, device first (`Contents::copy_from`). Both ranges are the
    /// caller's to check.
    pub(crate) fn copy(&self, dir: Dir, offset: usize, len: usize, host: &HostBuffer, at: usize) {
        let mut d = self.data.lock();
        host.contents(|h| match dir {
            Dir::ToHost => h.copy_from(at, &d, offset, len),
            Dir::ToDevice => d.copy_from(offset, h, at, len),
        })
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
    data: Arc<Mutex<Contents>>,
    size: usize,
}

impl HostBuffer {
    /// Allocate pageable host memory.
    pub fn pageable(size: usize) -> Self {
        HostBuffer {
            pinned: false,
            data: Arc::new(Mutex::new(Contents::new(size))),
            size,
        }
    }

    /// Allocate pinned (page-locked) host memory.
    pub fn pinned(size: usize) -> Self {
        HostBuffer {
            pinned: true,
            ..HostBuffer::pageable(size)
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

    /// Run `f` over an immutable view, as [`Buffer::read`] does.
    pub fn read<R>(&self, f: impl FnOnce(&AlignedBytes) -> R) -> R {
        f(self.data.lock().own(0, self.size, None).0)
    }

    /// Run `f` over a mutable view, as [`Buffer::write`] does.
    pub fn write<R>(&self, f: impl FnOnce(&mut AlignedBytes) -> R) -> R {
        f(self.data.lock().own(0, self.size, None).0)
    }

    /// Copy `src` into the allocation at `offset`.
    pub fn store(&self, offset: usize, src: &[u8]) -> ClResult<()> {
        self.check_range(offset, src.len())?;
        self.data.lock().own(offset, src.len(), Some(src));
        Ok(())
    }

    /// Run `f` over the contents as they stand.
    fn contents<R>(&self, f: impl FnOnce(&mut Contents) -> R) -> R {
        f(&mut self.data.lock())
    }

    /// Land `src` at `offset` by reference, as [`Buffer::land`] does.
    pub fn land(&self, offset: usize, src: Arc<Vec<u8>>) -> ClResult<()> {
        self.check_range(offset, src.len())?;
        self.data.lock().land(offset, src, 0);
        Ok(())
    }

    /// Snapshot contents as a byte vector, read through.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size);
        self.data.lock().load_onto(&mut out, 0, self.size);
        out
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
        assert!(
            Arc::ptr_eq(&a.data, &b.data),
            "a clone has contents of its own"
        );
        assert!(!Arc::ptr_eq(&a.data, &Buffer::alloc(8).data));
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

    /// Where a piece's bytes live, for comparing piece tables.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seen {
        Zero,
        /// In the word array, at the piece's own offset.
        Owned,
        /// In this allocation, from this byte.
        Shared(*const u8, usize),
    }

    /// `data`'s pieces: offset, length and where the bytes live.
    fn table(data: &Mutex<Contents>) -> Vec<(usize, usize, Seen)> {
        let seen = |p: &Piece| match p {
            Piece::Zero(_) => Seen::Zero,
            Piece::Owned(_) => Seen::Owned,
            Piece::Shared(_, src, from) => Seen::Shared(src.as_ptr(), *from),
        };
        let data = data.lock();
        data.pieces
            .iter()
            .map(|(at, p)| (*at, p.len(), seen(p)))
            .collect()
    }

    /// `data`'s word array: the buffer offset of its byte 0, and its
    /// length.
    fn array(data: &Mutex<Contents>) -> (usize, usize) {
        let data = data.lock();
        (data.base, data.words.len())
    }

    /// Bytes of `data` nobody has written: what a whole view zero-fills.
    fn unwritten(data: &Mutex<Contents>) -> usize {
        table(data)
            .iter()
            .filter(|(.., s)| *s == Seen::Zero)
            .map(|(_, len, _)| len)
            .sum()
    }

    /// `data`'s `Shared` pieces, ascending: `(offset, allocation, from,
    /// len)`.
    fn landed(data: &Mutex<Contents>) -> Vec<(usize, Arc<Vec<u8>>, usize, usize)> {
        let data = data.lock();
        data.pieces
            .iter()
            .filter_map(|(at, p)| match p {
                Piece::Shared(len, src, from) => Some((*at, src.clone(), *from, *len)),
                _ => None,
            })
            .collect()
    }

    /// What `data`'s `Shared` pieces pin.
    fn pinned(data: &Mutex<Contents>) -> usize {
        data.lock().pieces.iter().map(|(_, p)| p.pinned()).sum()
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
    fn a_buffer_clone_sees_the_same_words() {
        let a = Buffer::alloc(4_099);
        let b = a.clone();
        assert_eq!(a.store(0, &[1; 13]), Ok(()));
        assert_eq!(b.store(11, &[2; 30]), Ok(()));
        let words = [(0, 41, Seen::Owned), (41, 4_058, Seen::Zero)];
        assert_eq!(table(&a.data), words, "41 bytes through either handle");
        assert_eq!(array(&b.data), (0, 41), "in one array");
        let mut expect = vec![0u8; 4_099];
        expect[..11].fill(1);
        expect[11..41].fill(2);
        assert_eq!(loaded(&b, 0, 4_099), Ok(expect));
        // `load` reads through: it zeroes its own copy, not the buffer.
        assert_eq!(table(&a.data), words);
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
        // 40 written bytes, then landings at odd offsets whose edges fall
        // inside an `f32`: each cuts the words or an earlier landing, and
        // [51, 57) is written by nobody.
        let prefix = payload(40, 1);
        assert_eq!(b.store(0, &prefix), Ok(()));
        model[..40].copy_from_slice(&prefix);
        let mut msgs = Vec::new();
        for (at, len, salt, from) in [(13, 17, 3, 1), (27, 24, 5, 2), (57, 7, 7, 0), (21, 3, 9, 1)]
        {
            let msg = framed(from, len, salt);
            model[at..at + len].copy_from_slice(&msg[from..]);
            assert_eq!(b.land(at, msg.clone(), from), Ok(()));
            msgs.push(msg.as_ptr());
        }
        let pieces = [
            (0, 13, Seen::Owned),
            (13, 8, Seen::Shared(msgs[0], 1)),
            (21, 3, Seen::Shared(msgs[3], 1)),
            (24, 3, Seen::Shared(msgs[0], 12)),
            (27, 24, Seen::Shared(msgs[1], 2)),
            (51, 6, Seen::Zero),
            (57, 7, Seen::Shared(msgs[2], 0)),
        ];
        assert_eq!(table(&b.data), pieces);
        for (offset, len) in [(0, 64), (4, 56), (12, 20), (52, 12), (8, 0)] {
            let l = b.load(offset, len)?;
            let want = &model[offset..offset + len];
            assert_eq!(l.as_slice(), want, "load({offset}, {len})");
            assert_eq!(f32_bits(l.as_f32()), decoded_f32_bits(want));
        }
        // Loads read through: the table and the one array are as they were.
        assert_eq!(table(&b.data), pieces);
        assert_eq!(array(&b.data), (0, 40));
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
                let held = pinned(&dev.data);
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
            assert_eq!(landed(&dev.data).len(), 61);
        }
        // One rank's row block of a 16-rank kernel: landed pieces cover
        // it, so the copy it gets zero-fills nothing, and its typed view is
        // the bytes in place.
        let (at, len) = (5 * SIZE / 16, SIZE / 16);
        let block = dev.load(at, len)?;
        assert_eq!(block.as_slice(), &model[at..at + len]);
        assert_eq!(block.as_f32().len(), len / 4);
        assert_eq!(
            block.as_f32().as_ptr().cast::<u8>(),
            block.as_slice().as_ptr()
        );
        assert_eq!(array(&dev.data).1, 0, "nothing copied in");
        assert_eq!(unwritten(&dev.data), 0);
        // A whole view copies every landed byte into one array, once.
        assert!(dev.read(|d| d.as_slice() == model));
        assert_eq!(table(&dev.data), [(0, SIZE, Seen::Owned)]);
        assert_eq!(array(&dev.data), (0, SIZE));
        Ok(())
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
        let (held, shared) = (landed(&stage.data), landed(&dev.data));
        assert_eq!(shared.len(), 7);
        for ((at, src, from, len), (d_at, d_src, d_from, d_len)) in held.iter().zip(&shared) {
            assert!(Arc::ptr_eq(src, d_src), "piece at {at} copied");
            assert_eq!((at, from, len), (d_at, d_from, d_len));
        }
        assert_eq!(loaded(&dev, 0, SIZE), Ok(model.clone()));
        // A range of the device tiled by pieces 2..5 shares back to the
        // host, at another offset.
        let back = HostBuffer::pageable(SIZE);
        dev.copy(Dir::ToHost, 3_072, 4_608, &back, 100);
        assert_eq!(landed(&back.data).len(), 3);
        for (got, want) in landed(&back.data).iter().zip(&held[2..5]) {
            assert!(Arc::ptr_eq(&got.1, &want.1));
            assert_eq!(got.0, want.0 - 3_072 + 100);
        }
        for data in [&stage.data, &dev.data, &back.data] {
            assert_eq!(array(data).1, 0, "a byte was copied");
        }
        let mut expect = vec![0u8; SIZE];
        expect[100..4_708].copy_from_slice(&model[3_072..7_680]);
        assert_eq!(back.to_vec(), expect);
        Ok(())
    }

    /// A hop moves each source piece as it is — a `Shared` piece or part
    /// of one lands by reference, a `Zero` piece stays `Zero`, `Owned`
    /// bytes are copied — over a destination that held other bytes.
    #[test]
    fn a_hop_moves_each_source_piece_as_it_is() -> ClResult<()> {
        const SIZE: usize = 4_096;
        let stage = HostBuffer::pinned(SIZE);
        // 1 KiB written, then landings over [1024, 2048) and [2560,
        // 3072) — a gap between them, and nothing past 3072 — and one over
        // [256, 768), inside the written bytes.
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
        let pieces = table(&stage.data);
        // Ranges that cut two landings and hold words between them, span
        // one landing, hold landings and the gap, run past the last
        // landing, start inside a landing, and hold only words or only
        // unwritten bytes.
        let ranges = [
            (512, 1_024),
            (256, 512),
            (1_024, 2_048),
            (2_560, 1_024),
            (1_536, 1_024),
            (0, 256),
            (2_048, 512),
        ];
        for (offset, len) in ranges {
            let dev = Buffer::alloc(SIZE);
            dev.store(0, &[0xFF; SIZE])?;
            dev.copy(Dir::ToDevice, 7, len, &stage, offset);
            let mut want = vec![(0, 7, Seen::Owned)];
            for &(at, n, seen) in &pieces {
                let (lo, hi) = (at.max(offset), (at + n).min(offset + len));
                let seen = match seen {
                    Seen::Shared(src, from) => Seen::Shared(src, from + lo.saturating_sub(at)),
                    seen => seen,
                };
                want.extend((lo < hi).then(|| (lo - offset + 7, hi - lo, seen)));
            }
            want.push((7 + len, SIZE - 7 - len, Seen::Owned));
            // The table joins neighbouring `Owned` pieces.
            want.dedup_by(|(_, n, s), (_, m, t)| {
                let join = (*s, *t) == (Seen::Owned, Seen::Owned);
                *m += if join { *n } else { 0 };
                join
            });
            assert_eq!(table(&dev.data), want, "{offset}+{len}");
            let mut expect = vec![0xFF; SIZE];
            expect[7..7 + len].copy_from_slice(&model[offset..offset + len]);
            assert_eq!(loaded(&dev, 0, SIZE), Ok(expect), "{offset}+{len}");
        }
        // The stage read through: its pieces are as they were, over the
        // array of the 1 KiB it wrote.
        assert_eq!(table(&stage.data), pieces);
        assert_eq!(landed(&stage.data).len(), 3);
        assert_eq!(array(&stage.data), (0, 1_024));
        Ok(())
    }

    /// A hop from bytes nobody wrote leaves the destination range `Zero`
    /// and allocates no word array, either way.
    #[test]
    fn a_hop_from_unwritten_bytes_writes_nothing() -> ClResult<()> {
        const SIZE: usize = 1 << 20;
        let (stage, dev) = (HostBuffer::pinned(SIZE), Buffer::alloc(SIZE));
        dev.copy(Dir::ToDevice, 0, SIZE, &stage, 0);
        assert_eq!(table(&dev.data), [(0, SIZE, Seen::Zero)]);
        assert_eq!(dev.data.lock().words.words.capacity(), 0, "words allocated");
        // Over written bytes the range becomes `Zero` again, and the
        // written bytes beside it stay where they are.
        dev.store(0, &[5; 100])?;
        let words = dev.read_regions(0, 50, 50, |v| v[0].as_ptr());
        dev.copy(Dir::ToDevice, 50, 1_000, &stage, 7);
        let pieces = [(0, 50, Seen::Owned), (50, SIZE - 50, Seen::Zero)];
        assert_eq!(table(&dev.data), pieces);
        assert_eq!(dev.read_regions(0, 50, 50, |v| v[0].as_ptr()), words);
        let mut want = vec![0u8; 200];
        want[..50].fill(5);
        assert_eq!(loaded(&dev, 0, 200), Ok(want));
        // A map of unwritten device bytes.
        let back = HostBuffer::pageable(SIZE);
        dev.copy(Dir::ToHost, 4_096, SIZE - 4_096, &back, 0);
        assert_eq!(table(&back.data), [(0, SIZE, Seen::Zero)]);
        assert_eq!(
            back.data.lock().words.words.capacity(),
            0,
            "words allocated"
        );
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
        let pieces = table(&dev.data);
        let mut out = vec![0xEE];
        dev.load_onto(&mut out, [(800, 5_000), (30_000, 9), (0, 0), (5_050, 20)]);
        let mut expect = vec![0xEE];
        for (offset, len) in [(800, 5_000), (30_000, 9), (0, 0), (5_050, 20)] {
            expect.extend_from_slice(&model[offset..offset + len]);
        }
        assert_eq!(out, expect);
        // The landing at 5000 cut the one at 4000 in two: four pieces
        // landed, the words and two unwritten gaps, none of it touched.
        assert_eq!(table(&dev.data), pieces);
        assert_eq!(landed(&dev.data).len(), 4);
        assert_eq!(array(&dev.data), (0, 1_000));
        assert_eq!(unwritten(&dev.data), SIZE - 1_200 - 2_000);
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
        // reads. A zero-length write asks for no piece.
        let dev = Buffer::alloc(SIZE);
        assert_eq!(dev.store(SIZE, &[]), Ok(()));
        for &(at, len) in &pieces {
            assert_eq!(dev.store(at, &payload[..len]), Ok(()));
        }
        assert_eq!(unwritten(&dev.data), 0);
        assert!(dev.read(|d| d.as_slice().iter().all(|&b| b == 7)));
        assert_eq!(array(&dev.data), (0, SIZE));

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
            assert_eq!(unwritten(data), 0);
        }
        for data in [&root.data, &mapped.data] {
            assert_eq!(array(data), (0, SIZE), "one copy");
        }

        // Chunks 7 and 8 arriving swapped leave a gap only until chunk 7
        // fills it: nothing writes a zero.
        let swapped = Buffer::alloc(SIZE);
        let mut order = pieces.clone();
        order.swap(7, 8);
        for &(at, len) in &order {
            assert_eq!(swapped.store(at, &payload[..len]), Ok(()));
        }
        assert_eq!(unwritten(&swapped.data), 0);
        assert!(swapped.read(|d| d.as_slice().iter().all(|&b| b == 7)));

        // Nobody wrote: the whole length, once, at the first view.
        let untouched = HostBuffer::pinned(SIZE);
        assert_eq!(array(&untouched.data).1, 0);
        assert_eq!(untouched.read(|h| h.as_f32().len()), SIZE / 4);
        assert_eq!(untouched.write(|h| h.len()), SIZE);
        assert_eq!(table(&untouched.data), [(0, SIZE, Seen::Owned)]);
        assert_eq!(array(&untouched.data), (0, SIZE));
    }

    /// A landing inside written bytes cuts their piece and copies nothing:
    /// both remnants read from the one array, each at its own offset. A
    /// write before the array's start copies it into one that starts
    /// there; a later whole view copies only the landed bytes back into
    /// that array, and a store inside one piece writes in place.
    #[test]
    fn a_cut_keeps_both_remnants_in_their_array() -> ClResult<()> {
        const SIZE: usize = 4_096;
        let dev = Buffer::alloc(SIZE);
        let words = payload(SIZE, 3);
        dev.store(100, &words[100..])?;
        let at = |offset| dev.read_regions(offset, 8, 8, |v| v[0].as_ptr() as usize);
        let first = at(100);
        let msg = framed(0, 100, 5);
        dev.land(1_000, msg.clone(), 0)?;
        assert_eq!(
            table(&dev.data),
            [
                (0, 100, Seen::Zero),
                (100, 900, Seen::Owned),
                (1_000, 100, Seen::Shared(msg.as_ptr(), 0)),
                (1_100, 2_996, Seen::Owned),
            ]
        );
        assert_eq!(array(&dev.data), (100, SIZE - 100));
        assert_eq!([at(100), at(1_100)], [first, first + 1_000]);
        dev.store(0, &words[..100])?;
        assert_eq!(array(&dev.data), (0, SIZE));
        let first = at(0);
        assert_eq!([at(100), at(1_100)], [first + 100, first + 1_100]);
        let mut model = words.clone();
        model[1_000..1_100].copy_from_slice(&msg);
        assert!(dev.read(|d| d.as_slice() == model && d.as_slice().as_ptr() as usize == first));
        assert_eq!(table(&dev.data), [(0, SIZE, Seen::Owned)]);
        dev.store(2_000, &[1; 8])?;
        let base =
            dev.read(|d| (d.as_slice()[2_000..2_008] == [1; 8]).then_some(d.as_slice().as_ptr()));
        assert_eq!(base.map(|p| p as usize), Some(first));
        Ok(())
    }

    /// A ranged view hands out in place whatever lies inside one piece —
    /// all of a landing, part of one, part of the words — and copies only
    /// the regions that straddle pieces or lie in unwritten bytes.
    #[test]
    fn a_ranged_view_copies_only_regions_no_piece_holds() -> ClResult<()> {
        let dev = Buffer::alloc(64);
        dev.store(0, &[1; 16])?;
        let msg = framed(0, 32, 5);
        dev.land(16, msg.clone(), 0)?;
        let words = dev.read_regions(0, 8, 8, |v| v[0].as_ptr());
        let before = table(&dev.data);
        let ptrs = dev.read_regions(0, 48, 8, |v| {
            v.iter().map(|r| r.as_ptr()).collect::<Vec<_>>()
        });
        assert_eq!(ptrs[0], words, "words in place");
        for (i, p) in ptrs[2..6].iter().enumerate() {
            assert_eq!(*p, msg[8 * i..].as_ptr(), "part of the landing in place");
        }
        assert_eq!(table(&dev.data), before, "nothing copied");
        // [44, 52) straddles the landing's end and the unwritten bytes:
        // only it becomes words; the landing keeps its other bytes.
        let got = dev.read_regions(36, 16, 8, |v| [v[0].as_ptr(), v[1].as_ptr()]);
        assert_eq!(got[0], msg[20..].as_ptr());
        assert_eq!(
            table(&dev.data),
            [
                (0, 16, Seen::Owned),
                (16, 28, Seen::Shared(msg.as_ptr(), 0)),
                (44, 8, Seen::Owned),
                (52, 12, Seen::Zero),
            ]
        );
        // It lies in the one array at its own offset: the array now
        // reaches from the buffer's byte 0 to its end.
        assert_eq!(array(&dev.data), (0, 52));
        let start = dev.read_regions(0, 8, 8, |v| v[0].as_ptr());
        assert_eq!(got[1], start.wrapping_add(44));
        let written = dev.write_range(40, 4, |w| {
            w.fill(9);
            w.len()
        });
        assert_eq!(written, 4);
        let mut model = [0u8; 64];
        model[..16].fill(1);
        model[16..48].copy_from_slice(&msg);
        model[40..44].fill(9);
        assert_eq!(loaded(&dev, 0, 64), Ok(model.to_vec()));
        Ok(())
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
    /// one's last landed extent ends, where the bytes it wrote rather than
    /// landed reach, the bytes each is expected to show by reference
    /// (`Run`s, in landing order), how many copies shared landed pieces
    /// device → host and host → device, and how many ranged views and
    /// shares met each case `Views` and `Shares` count.
    struct Pair {
        dev: Buffer,
        host: HostBuffer,
        dev_model: Vec<u8>,
        host_model: Vec<u8>,
        dev_end: usize,
        host_end: usize,
        dev_landed_end: usize,
        host_landed_end: usize,
        dev_written: usize,
        host_written: usize,
        dev_runs: Vec<Run>,
        host_runs: Vec<Run>,
        shared: [usize; 2],
        shared_over_words: usize,
        views: Views,
        shares: Shares,
        leans_on_landings: bool,
        leans_on_views: bool,
        leans_on_shares: bool,
    }

    /// Bytes the model expects a buffer to show by reference:
    /// `src[from..from + len]` at `at`, cut from a landing that spanned
    /// `landed`.
    #[derive(Clone)]
    struct Run {
        at: usize,
        src: Arc<Vec<u8>>,
        from: usize,
        len: usize,
        landed: (usize, usize),
    }

    impl Run {
        fn end(&self) -> usize {
            self.at + self.len
        }
    }

    /// Take `[a, b)` out of every run: what lay there is written now.
    fn cut_out(runs: &mut Vec<Run>, (a, b): (usize, usize)) {
        if a == b {
            return;
        }
        *runs = std::mem::take(runs)
            .into_iter()
            .flat_map(|r| {
                if r.end() <= a || b <= r.at {
                    return vec![r];
                }
                let mut keep = Vec::new();
                if r.at < a {
                    keep.push(Run {
                        len: a - r.at,
                        ..r.clone()
                    });
                }
                if b < r.end() {
                    keep.push(Run {
                        at: b,
                        from: r.from + b - r.at,
                        len: r.end() - b,
                        ..r.clone()
                    });
                }
                keep
            })
            .collect();
    }

    /// Land `new` (which tile `range`) over `range`, then keep what the
    /// runs pin within `size`: past it, every run that stops short of its
    /// allocation's end is written in.
    fn land_runs(runs: &mut Vec<Run>, size: usize, range: (usize, usize), new: Vec<Run>) {
        cut_out(runs, range);
        runs.extend(new);
        if runs.iter().map(|r| r.src.len() - r.from).sum::<usize>() > size {
            runs.retain(|r| r.from + r.len == r.src.len());
        }
    }

    /// The runs over `[offset, offset + len)`, each cut to it, ascending.
    fn clipped(runs: &[Run], offset: usize, len: usize) -> Vec<Run> {
        let end = offset + len;
        let mut over: Vec<Run> = runs
            .iter()
            .filter(|r| r.at.max(offset) < r.end().min(end))
            .map(|r| {
                let (lo, hi) = (r.at.max(offset), r.end().min(end));
                Run {
                    at: lo,
                    from: r.from + lo - r.at,
                    len: hi - lo,
                    ..r.clone()
                }
            })
            .collect();
        over.sort_unstable_by_key(|r| r.at);
        over
    }

    /// Whether `data`'s table is canonical — no `Zero` piece beside a
    /// `Zero` piece, no `Owned` piece beside an `Owned` piece — with every
    /// `Owned` piece reading `model`'s bytes from the one array at its own
    /// offset, every `Zero` piece zeroes in `model`, every `Shared` piece
    /// `model`'s bytes, and the pinned total what the `Shared` pieces pin.
    fn canonical(data: &Mutex<Contents>, model: &[u8]) -> bool {
        let data = data.lock();
        let joins = data.pieces.windows(2).any(|w| {
            matches!(
                (&w[0].1, &w[1].1),
                (Piece::Zero(_), Piece::Zero(_)) | (Piece::Owned(_), Piece::Owned(_))
            )
        });
        let zeroes = vec![0u8; model.len()];
        let reads = data.pieces.iter().all(|(at, p)| {
            let want = &model[*at..at + p.len()];
            match p {
                Piece::Zero(len) => want == &zeroes[..*len],
                Piece::Owned(len) => {
                    let i = at.checked_sub(data.base);
                    i.and_then(|i| data.words.as_slice().get(i..i + len)) == Some(want)
                }
                Piece::Shared(len, src, from) => src[*from..from + len] == *want,
            }
        });
        let pinned: usize = data.pieces.iter().map(|(_, p)| p.pinned()).sum();
        !joins && reads && pinned == data.pinned
    }

    /// `data`'s `Shared` pieces as `(offset, allocation, from, len)`,
    /// ascending, beside the model's runs in the same form.
    fn shown(data: &Mutex<Contents>, runs: &[Run]) -> [Vec<(usize, *const u8, usize, usize)>; 2] {
        let got = landed(data)
            .into_iter()
            .map(|(at, src, from, len)| (at, src.as_ptr(), from, len))
            .collect();
        let mut want: Vec<_> = runs
            .iter()
            .map(|r| (r.at, r.src.as_ptr(), r.from, r.len))
            .collect();
        want.sort_unstable();
        [got, want]
    }

    /// Ranged views that: read a region in place where a landed piece
    /// holds it; read one in place inside a landed piece it does not span
    /// exactly (a region the initialised-prefix rule copied in); cut
    /// across the edge of a landed piece; wrote beside one that stayed
    /// landed.
    #[derive(Clone, Copy, Default, Debug)]
    struct Views {
        in_place: usize,
        inside: usize,
        straddled: usize,
        beside: usize,
    }

    /// Shares that handed out an allocation, and that refused a range:
    /// one that landed pieces overlap but none spans exactly, one a piece
    /// spans exactly without showing its whole allocation from byte 0,
    /// one a landing spanned exactly before a newer write cut it.
    #[derive(Clone, Copy, Default, Debug)]
    struct Shares {
        shared: usize,
        straddled: usize,
        framed: usize,
        overlaid: usize,
    }

    /// The spans of the landings `runs` still show part of, oldest first.
    fn spans(runs: &[Run]) -> Vec<(usize, usize)> {
        let mut spans: Vec<(usize, usize)> = runs.iter().map(|r| r.landed).collect();
        spans.dedup();
        spans
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
        /// `(offset, len)` of a run of the source's landed pieces, each
        /// starting where the one before it ends; `None` without any.
        fn tiled(&self, to_host: bool, rng: &mut XorShift64) -> Option<(usize, usize)> {
            let src = if to_host {
                &self.dev_runs
            } else {
                &self.host_runs
            };
            let mut extents: Vec<(usize, usize)> = src.iter().map(|r| (r.at, r.end())).collect();
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
            let extents = spans(&self.dev_runs);
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
            let extents = spans(&self.dev_runs);
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
            let extents = spans(&self.dev_runs);
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
                    let newest = spans(&self.dev_runs).pop().filter(|&(lo, hi)| hi - lo > 1);
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
        /// buffers show differs from the models, when the pieces they show
        /// by reference are not the runs the model expects, or when a
        /// table is not canonical.
        fn apply(&mut self, op: Op) -> bool {
            let agrees = self.step(op);
            let [dev, dev_runs] = shown(&self.dev.data, &self.dev_runs);
            let [host, host_runs] = shown(&self.host.data, &self.host_runs);
            agrees
                && dev == dev_runs
                && host == host_runs
                && canonical(&self.dev.data, &self.dev_model)
                && canonical(&self.host.data, &self.host_model)
        }

        /// A land of `len` bytes of `src` from `from` at `offset` of the
        /// device (`host` false) or host buffer, in the model.
        fn land(&mut self, host: bool, offset: usize, src: Arc<Vec<u8>>, from: usize) {
            let (runs, size) = match host {
                true => (&mut self.host_runs, self.host_model.len()),
                false => (&mut self.dev_runs, self.dev_model.len()),
            };
            let len = src.len() - from;
            let end = offset + len;
            let new = (len > 0).then_some(Run {
                at: offset,
                src,
                from,
                len,
                landed: (offset, end),
            });
            land_runs(runs, size, (offset, end), new.into_iter().collect());
        }

        /// Everything but the landings, in the model: `[offset, end)` of
        /// the device (`host` false) or host buffer is written.
        fn written(&mut self, host: bool, (offset, end): (usize, usize)) {
            let (runs, written) = match host {
                true => (&mut self.host_runs, &mut self.host_written),
                false => (&mut self.dev_runs, &mut self.dev_written),
            };
            cut_out(runs, (offset, end));
            *written = (*written).max(end);
        }

        fn step(&mut self, op: Op) -> bool {
            match op {
                Op::Store { offset, len, salt } => {
                    let src = payload(len, salt);
                    self.dev_model[offset..offset + len].copy_from_slice(&src);
                    self.dev_end = self.dev_end.max(offset + len);
                    self.written(false, (offset, offset + len));
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
                    self.land(false, offset, msg.clone(), from);
                    self.dev.land(offset, msg, from) == Ok(())
                }
                Op::HostLand { offset, len, salt } => {
                    let src = Arc::new(payload(len, salt));
                    self.host_model[offset..offset + len].copy_from_slice(&src);
                    self.host_end = self.host_end.max(offset + len);
                    self.host_landed_end = offset + len;
                    self.land(true, offset, src.clone(), 0);
                    self.host.land(offset, src) == Ok(())
                }
                Op::HostStore { offset, len, salt } => {
                    let src = payload(len, salt);
                    self.host_model[offset..offset + len].copy_from_slice(&src);
                    self.host_end = self.host_end.max(offset + len);
                    self.written(true, (offset, offset + len));
                    self.host.store(offset, &src) == Ok(())
                }
                // Each run the source range holds lands at the destination,
                // cut to the range; the bytes between are written.
                Op::Copy {
                    to_host,
                    offset,
                    at,
                    len,
                } => {
                    let (src, from, written, dst, dst_size) = match to_host {
                        true => (
                            &self.dev_runs,
                            offset,
                            self.dev_written,
                            at,
                            self.host_model.len(),
                        ),
                        false => (
                            &self.host_runs,
                            at,
                            self.host_written,
                            offset,
                            self.dev_model.len(),
                        ),
                    };
                    let moved: Vec<Run> = clipped(src, from, len)
                        .into_iter()
                        .map(|r| {
                            let at = r.at - from + dst;
                            Run {
                                at,
                                landed: (at, at + r.len),
                                ..r
                            }
                        })
                        .collect();
                    if !moved.is_empty() {
                        self.shared[usize::from(!to_host)] += 1;
                        self.shared_over_words += usize::from(from < written);
                    }
                    if moved.iter().map(|r| r.len).sum::<usize>() < len {
                        self.written(to_host, (dst, dst + len));
                    }
                    let dst_runs = match to_host {
                        true => &mut self.host_runs,
                        false => &mut self.dev_runs,
                    };
                    land_runs(dst_runs, dst_size, (dst, dst + len), moved);
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
                    self.whole(host);
                    self.write(
                        host,
                        |b| b.as_mut_slice()[offset..offset + len].copy_from_slice(&src),
                        |m| m[offset..offset + len].copy_from_slice(&src),
                    )
                }
                // Set the middle element of the typed view, if the length
                // allows the view and it has one; report its length.
                Op::WriteTyped { host, width, salt } => {
                    self.whole(host);
                    self.write(
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
                    )
                }
                // The bytes, and where the length allows it the `f32` view
                // in place against the model's bytes decoded.
                Op::Load { offset, len } => {
                    let model = &self.dev_model[offset..offset + len];
                    self.dev.load(offset, len).is_ok_and(|l| {
                        l.as_slice() == model
                            && (len % 4 != 0 || f32_bits(l.as_f32()) == decoded_f32_bits(model))
                    })
                }
                // Every region reads as the model. A region inside one
                // landed piece is handed over where it landed; every other
                // one is copied in first unless it lies inside written
                // bytes, and is handed over from no landed allocation. A
                // view whose regions all lie in landed pieces changes
                // nothing.
                Op::ReadRegions {
                    offset,
                    len,
                    region,
                } => {
                    let end = offset + len;
                    let runs = &self.dev_runs;
                    let straddles = runs.iter().any(|r| {
                        (r.at < offset && offset < r.end()) || (r.at < end && end < r.end())
                    });
                    let starts: Vec<usize> = (offset..end).step_by(region).collect();
                    // The run each region lies inside, if any.
                    let holders: Vec<Option<&Run>> = starts
                        .iter()
                        .map(|&at| runs.iter().find(|r| r.at <= at && at + region <= r.end()))
                        .collect();
                    let in_place: Vec<Option<*const u8>> = holders
                        .iter()
                        .zip(&starts)
                        .map(|(r, &at)| r.map(|r| r.src[r.from + at - r.at..].as_ptr()))
                        .collect();
                    let inside = holders
                        .iter()
                        .zip(&starts)
                        .any(|(r, &at)| r.is_some_and(|r| (r.at, r.end()) != (at, at + region)));
                    let allocations: Vec<(*const u8, usize)> =
                        runs.iter().map(|r| (r.src.as_ptr(), r.src.len())).collect();
                    let landed_in = |p: *const u8| {
                        allocations
                            .iter()
                            .any(|&(a, n)| (a as usize..a as usize + n).contains(&(p as usize)))
                    };
                    let before = table(&self.dev.data);
                    let model = &self.dev_model;
                    let handed = self.dev.read_regions(offset, len, region, |views| {
                        let agrees = views.len() == starts.len()
                            && views
                                .iter()
                                .zip(&starts)
                                .all(|(v, &at)| *v == &model[at..at + region]);
                        agrees.then(|| views.iter().map(|v| v.as_ptr()).collect::<Vec<_>>())
                    });
                    let all_in_place = in_place.iter().all(Option::is_some);
                    let pointers_hold = handed.is_some_and(|ptrs| {
                        ptrs.iter().zip(&in_place).all(|(p, want)| match want {
                            Some(w) => p == w,
                            None => !landed_in(*p),
                        })
                    });
                    self.views.in_place += usize::from(in_place.iter().any(Option::is_some));
                    self.views.inside += usize::from(inside);
                    self.views.straddled += usize::from(straddles);
                    let copied: Vec<usize> = starts
                        .iter()
                        .zip(&in_place)
                        .filter(|(_, p)| p.is_none())
                        .map(|(&at, _)| at)
                        .collect();
                    for at in copied {
                        self.written(false, (at, at + region));
                    }
                    pointers_hold && (!all_in_place || table(&self.dev.data) == before)
                }
                // The allocation of the run that spans exactly the range
                // and shows all of it from its byte 0: the same
                // allocation, reading as a load does. Anything else is
                // refused.
                Op::Share { offset, len } => {
                    let end = offset + len;
                    let runs = &self.dev_runs;
                    let exact = runs.iter().find(|r| (r.at, r.end()) == (offset, end));
                    let got = self.dev.share(offset, len);
                    let model = &self.dev_model[offset..end];
                    match exact {
                        Some(r) if r.from == 0 && r.len == r.src.len() => {
                            self.shares.shared += 1;
                            got.is_some_and(|g| {
                                Arc::ptr_eq(&g, &r.src)
                                    && g[..] == *model
                                    && loaded(&self.dev, offset, len).is_ok_and(|l| l == g[..])
                            })
                        }
                        Some(_) => {
                            self.shares.framed += 1;
                            got.is_none()
                        }
                        None if len > 0 && runs.iter().any(|r| r.landed == (offset, end)) => {
                            self.shares.overlaid += 1;
                            got.is_none()
                        }
                        None => {
                            self.shares.straddled += usize::from(
                                runs.iter().any(|r| r.at.max(offset) < r.end().min(end)),
                            );
                            got.is_none()
                        }
                    }
                }
                // The range reads as the model before the write; afterwards
                // nothing landed lies over it, and what lay beside it is
                // still landed.
                Op::WriteRange { offset, len, salt } => {
                    let (end, src) = (offset + len, payload(len, salt));
                    let before: Vec<(usize, usize)> =
                        self.dev_runs.iter().map(|r| (r.at, r.end())).collect();
                    let model = &mut self.dev_model[offset..end];
                    let current = self.dev.write_range(offset, len, |view| {
                        let current = view == model;
                        view.copy_from_slice(&src);
                        current
                    });
                    model.copy_from_slice(&src);
                    self.dev_end = self.dev_end.max(end);
                    self.written(false, (offset, end));
                    let left: Vec<(usize, usize)> =
                        self.dev_runs.iter().map(|r| (r.at, r.end())).collect();
                    self.views.beside += before
                        .iter()
                        .filter(|&&(lo, hi)| {
                            len > 0 && (hi == offset || lo == end) && left.contains(&(lo, hi))
                        })
                        .count()
                        .min(1);
                    current && left.iter().all(|&(lo, hi)| hi.min(end) <= lo.max(offset))
                }
                Op::ToVec => self.host.to_vec() == self.host_model,
                Op::ReadBytes { host } => {
                    self.whole(host);
                    self.reads_as(host, |b| b.as_slice().to_vec())
                }
                Op::ReadTyped { host, width } => {
                    self.whole(host);
                    self.reads_as(host, |b| match (b.len() % width, width) {
                        (0, 4) => b.as_f32().iter().flat_map(|x| x.to_ne_bytes()).collect(),
                        (0, _) => b.as_f64().iter().flat_map(|x| x.to_ne_bytes()).collect(),
                        _ => b.as_slice().to_vec(),
                    })
                }
            }
        }

        /// A whole view, in the model: every byte is written.
        fn whole(&mut self, host: bool) {
            let size = match host {
                true => self.host_model.len(),
                false => self.dev_model.len(),
            };
            self.written(host, (0, size));
        }
    }

    #[test]
    fn buffers_read_like_zero_initialised_vectors_under_random_ops() {
        const CASES: u64 = 1_600;
        const OPS_PER_CASE: usize = 16;
        let mut root = XorShift64::new(0xC1_B0FF);
        let (mut shared, mut views, mut shares) = ([0; 2], Views::default(), Shares::default());
        let mut shared_over_words = 0;
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
                dev_written: 0,
                host_written: 0,
                dev_runs: Vec::new(),
                host_runs: Vec::new(),
                shared: [0; 2],
                shared_over_words: 0,
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
            shared_over_words += pair.shared_over_words;
            views.in_place += pair.views.in_place;
            views.inside += pair.views.inside;
            views.straddled += pair.views.straddled;
            views.beside += pair.views.beside;
            shares.shared += pair.shares.shared;
            shares.straddled += pair.shares.straddled;
            shares.framed += pair.shares.framed;
            shares.overlaid += pair.shares.overlaid;
        }
        assert!(CASES as usize * OPS_PER_CASE >= 10_000);
        println!("copies that shared landed extents (to host, to device): {shared:?}");
        println!("  of them over bytes written before: {shared_over_words}");
        println!("ranged views: {views:?}");
        assert!(shared.iter().all(|&n| n >= 100), "{shared:?}");
        assert!(shared_over_words >= 100, "{shared_over_words}");
        let Views {
            in_place,
            inside,
            straddled,
            beside,
        } = views;
        assert!(in_place.min(straddled).min(beside) >= 100, "{views:?}");
        assert!(inside >= 100, "{views:?}");
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
