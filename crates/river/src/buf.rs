//! Shared, sliceable sample buffers — the zero-copy payload backbone.
//!
//! Every `F64` payload in the record model is a [`SampleBuf`]:
//! an `(offset, len)` view over an immutable, reference-counted
//! `Arc<[f64]>` backing allocation. Cloning a record is then O(1)
//! whatever its payload size, re-windowing operators (`reslice`,
//! `cutout`, `cutter`) emit views into the allocation they received
//! instead of copying samples, and operators that genuinely rewrite
//! samples (`logscale`, `saxanomaly`'s score buffer) use copy-on-write
//! [`make_mut`](SampleBuf::make_mut): in place when the buffer is
//! uniquely owned, one honest copy when it is shared.
//!
//! See `DESIGN.md` §10 for the ownership and mutation rules.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, cheaply cloneable view over shared `f64` samples.
///
/// `SampleBuf` dereferences to `&[f64]`, so read paths treat it exactly
/// like a slice. Construction is `collect()` (written once, in place,
/// when the iterator knows its length), `From<Vec<f64>>` or
/// `From<&[f64]>` (one copy into the shared allocation each);
/// [`slice`](Self::slice) and `clone` never copy samples.
///
/// # Example
///
/// ```
/// use dynamic_river::buf::SampleBuf;
///
/// let buf = SampleBuf::from(vec![0.0, 1.0, 2.0, 3.0]);
/// let view = buf.slice(1..3);
/// assert_eq!(&view[..], &[1.0, 2.0]);
/// assert!(SampleBuf::shares_backing(&buf, &view)); // no samples copied
/// ```
#[derive(Clone)]
pub struct SampleBuf {
    data: Arc<[f64]>,
    offset: usize,
    len: usize,
}

impl SampleBuf {
    /// An empty buffer (no backing allocation is shared with anything).
    pub fn new() -> Self {
        SampleBuf {
            data: Arc::from([] as [f64; 0]),
            offset: 0,
            len: 0,
        }
    }

    /// Number of samples in this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offset of this view within its backing allocation.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The view's samples as a plain slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// The backing allocation (shared with every view sliced from it).
    /// Exposed so tests can assert zero-copy behavior via
    /// [`Arc::ptr_eq`].
    pub fn backing(&self) -> &Arc<[f64]> {
        &self.data
    }

    /// `true` when both views share one backing allocation (cloned or
    /// sliced from each other) — the zero-copy witness.
    pub fn shares_backing(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.data, &b.data)
    }

    /// `true` when other views currently share this buffer's backing
    /// allocation, i.e. [`make_mut`](Self::make_mut) would have to
    /// copy. An operator that overwrites *every* sample should build a
    /// fresh buffer instead of paying that copy of doomed data.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }

    /// O(1) sub-view of this view (indices relative to the view, like
    /// slice indexing). No samples are copied; the result shares the
    /// backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> SampleBuf {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for view of {} samples",
            self.len
        );
        SampleBuf {
            data: self.data.clone(),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// If `next` is the view immediately following `self` in the *same*
    /// backing allocation, returns the single contiguous view covering
    /// both — the zero-copy join used by `reslice` overlap windows and
    /// `cutter` record assembly. Returns `None` when the views come
    /// from different allocations or are not adjacent.
    #[must_use]
    pub fn merged_with(&self, next: &SampleBuf) -> Option<SampleBuf> {
        if !SampleBuf::shares_backing(self, next) || self.offset + self.len != next.offset {
            return None;
        }
        Some(SampleBuf {
            data: self.data.clone(),
            offset: self.offset,
            len: self.len + next.len,
        })
    }

    /// Copy-on-write mutable access to the view's samples.
    ///
    /// When the backing allocation is uniquely owned, this is in-place
    /// (no copy — other parts of the allocation outside the view are
    /// unobservable, since nothing else holds a reference). When the
    /// allocation is shared, the view's samples are first copied into a
    /// fresh allocation so no other view observes the mutation.
    pub fn make_mut(&mut self) -> &mut [f64] {
        if Arc::get_mut(&mut self.data).is_none() {
            self.data = Arc::from(self.as_slice());
            self.offset = 0;
        }
        let (offset, len) = (self.offset, self.len);
        &mut Arc::get_mut(&mut self.data).expect("uniquely owned")[offset..offset + len]
    }

    /// Copies the view's samples into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }

    /// Decodes little-endian `f64` wire bytes into a canonical buffer
    /// (offset 0, view length == backing length) in a single pass.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of 8 — the codec
    /// validates wire lengths before constructing buffers.
    pub fn from_f64_le_bytes(bytes: &[u8]) -> SampleBuf {
        assert!(
            bytes.len().is_multiple_of(8),
            "f64 byte length {} not a multiple of 8",
            bytes.len()
        );
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }

    /// Decodes little-endian `f32` wire bytes (the compact v2 sample
    /// encoding), widening each sample to `f64`, in a single pass.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of 4.
    pub fn from_f32_le_bytes(bytes: &[u8]) -> SampleBuf {
        assert!(
            bytes.len().is_multiple_of(4),
            "f32 byte length {} not a multiple of 4",
            bytes.len()
        );
        bytes
            .chunks_exact(4)
            .map(|c| f64::from(f32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
            .collect()
    }

    /// Decodes little-endian `i16` wire bytes quantized with a
    /// per-record `scale` factor (sample = quantized × scale — the v2
    /// `i16` encoding), in a single pass.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of 2.
    pub fn from_i16_scaled_le_bytes(scale: f64, bytes: &[u8]) -> SampleBuf {
        assert!(
            bytes.len().is_multiple_of(2),
            "i16 byte length {} not a multiple of 2",
            bytes.len()
        );
        bytes
            .chunks_exact(2)
            .map(|c| f64::from(i16::from_le_bytes(c.try_into().expect("2-byte chunk"))) * scale)
            .collect()
    }

    /// Detaches the view from any larger backing allocation: after
    /// this, the buffer owns exactly its own samples.
    ///
    /// A view pins its *entire* backing allocation alive — a single
    /// 840-sample record sliced from a 30 s clip keeps the whole clip
    /// resident. Call `compact` before retaining a record long-term
    /// (archives, caches) to trade one copy for releasing the backing.
    /// No-op when the view already covers its whole allocation.
    pub fn compact(&mut self) {
        if self.len < self.data.len() {
            self.data = Arc::from(self.as_slice());
            self.offset = 0;
        }
    }
}

impl Default for SampleBuf {
    fn default() -> Self {
        SampleBuf::new()
    }
}

impl Deref for SampleBuf {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl AsRef<[f64]> for SampleBuf {
    fn as_ref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl From<Vec<f64>> for SampleBuf {
    fn from(v: Vec<f64>) -> Self {
        let len = v.len();
        SampleBuf {
            data: Arc::from(v),
            offset: 0,
            len,
        }
    }
}

impl From<&[f64]> for SampleBuf {
    fn from(s: &[f64]) -> Self {
        SampleBuf {
            data: Arc::from(s),
            offset: 0,
            len: s.len(),
        }
    }
}

impl<const N: usize> From<[f64; N]> for SampleBuf {
    fn from(a: [f64; N]) -> Self {
        SampleBuf::from(&a[..])
    }
}

impl From<SampleBuf> for Vec<f64> {
    fn from(buf: SampleBuf) -> Vec<f64> {
        buf.to_vec()
    }
}

/// Collects straight into the shared allocation: std builds the
/// `Arc<[f64]>` in place from an iterator that knows its exact length
/// (a map over a slice, a range or `chunks_exact`), so a payload built
/// this way is allocated and written once, where `From<Vec<f64>>`
/// allocates the `Arc` a second time and copies into it. Other
/// iterators go through one `Vec`.
impl FromIterator<f64> for SampleBuf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let data: Arc<[f64]> = iter.into_iter().collect();
        let len = data.len();
        SampleBuf {
            data,
            offset: 0,
            len,
        }
    }
}

/// Content equality: two views are equal when their samples are equal,
/// whatever their offsets or backing allocations — a decoded canonical
/// buffer compares equal to the view it was encoded from.
impl PartialEq for SampleBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[f64]> for SampleBuf {
    fn eq(&self, other: &[f64]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<f64>> for SampleBuf {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for SampleBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SampleBuf(@{}, ", self.offset)?;
        f.debug_list().entries(self.as_slice()).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_zero_copy() {
        let a = SampleBuf::from(vec![1.0, 2.0, 3.0]);
        let b = a.clone();
        assert!(SampleBuf::shares_backing(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn slice_shares_backing_and_respects_bounds() {
        let buf = SampleBuf::from(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let mid = buf.slice(1..4);
        assert_eq!(&mid[..], &[1.0, 2.0, 3.0]);
        assert_eq!(mid.offset(), 1);
        assert!(SampleBuf::shares_backing(&buf, &mid));
        // Nested slices compose offsets.
        let inner = mid.slice(1..);
        assert_eq!(&inner[..], &[2.0, 3.0]);
        assert_eq!(inner.offset(), 2);
        assert_eq!(&buf.slice(..)[..], &buf[..]);
        assert!(buf.slice(5..5).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let _ = SampleBuf::from(vec![0.0; 3]).slice(1..5);
    }

    #[test]
    fn merged_with_joins_adjacent_views_only() {
        let buf = SampleBuf::from(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let left = buf.slice(0..3);
        let right = buf.slice(3..6);
        let joined = left.merged_with(&right).expect("adjacent");
        assert_eq!(&joined[..], &buf[..]);
        assert!(SampleBuf::shares_backing(&joined, &buf));
        // Gap, overlap, wrong order, different backings: no join.
        assert!(buf.slice(0..2).merged_with(&buf.slice(3..6)).is_none());
        assert!(buf.slice(0..4).merged_with(&buf.slice(3..6)).is_none());
        assert!(right.merged_with(&left).is_none());
        let other = SampleBuf::from(vec![3.0, 4.0, 5.0]);
        assert!(left.merged_with(&other).is_none());
    }

    #[test]
    fn make_mut_is_in_place_when_unique() {
        let mut buf = SampleBuf::from(vec![1.0, 2.0, 3.0]);
        let before = Arc::as_ptr(buf.backing());
        buf.make_mut()[0] = 9.0;
        assert_eq!(Arc::as_ptr(buf.backing()), before, "unique: no copy");
        assert_eq!(&buf[..], &[9.0, 2.0, 3.0]);
    }

    #[test]
    fn make_mut_copies_when_shared() {
        let mut a = SampleBuf::from(vec![1.0, 2.0, 3.0]);
        let b = a.clone();
        a.make_mut()[0] = 9.0;
        assert!(!SampleBuf::shares_backing(&a, &b), "shared: copied");
        assert_eq!(&a[..], &[9.0, 2.0, 3.0]);
        assert_eq!(&b[..], &[1.0, 2.0, 3.0], "other view untouched");
    }

    #[test]
    fn make_mut_on_unique_slice_keeps_offset() {
        let mut view = SampleBuf::from(vec![0.0, 1.0, 2.0, 3.0]).slice(1..3);
        // The parent buffer is dropped; the view is the sole owner.
        view.make_mut().iter_mut().for_each(|x| *x += 10.0);
        assert_eq!(&view[..], &[11.0, 12.0]);
    }

    #[test]
    fn is_shared_tracks_backing_refcount() {
        let a = SampleBuf::from(vec![1.0, 2.0]);
        assert!(!a.is_shared());
        let b = a.clone();
        assert!(a.is_shared());
        assert!(b.is_shared());
        drop(b);
        assert!(!a.is_shared());
    }

    #[test]
    fn compact_releases_the_backing_allocation() {
        let clip = SampleBuf::from(vec![1.0; 1_000]);
        let mut view = clip.slice(10..20);
        assert_eq!(view.backing().len(), 1_000, "view pins the whole clip");
        view.compact();
        assert_eq!(view.backing().len(), 10, "compact owns just the view");
        assert_eq!(view.offset(), 0);
        assert_eq!(&view[..], &[1.0; 10]);
        assert!(!SampleBuf::shares_backing(&view, &clip));
        // Already-whole buffers are untouched.
        let mut whole = SampleBuf::from(vec![2.0; 4]);
        let before = Arc::as_ptr(whole.backing());
        whole.compact();
        assert_eq!(Arc::as_ptr(whole.backing()), before);
    }

    #[test]
    fn content_equality_ignores_offset() {
        let big = SampleBuf::from(vec![0.0, 1.0, 2.0, 1.0, 2.0]);
        assert_eq!(big.slice(1..3), big.slice(3..5));
        assert_eq!(big.slice(1..3), SampleBuf::from(vec![1.0, 2.0]));
        assert_eq!(big.slice(1..3), vec![1.0, 2.0]);
        assert_ne!(big.slice(0..2), big.slice(1..3));
    }

    #[test]
    fn conversions_round_trip() {
        let v = vec![1.5, -2.5];
        let buf = SampleBuf::from(v.clone());
        assert_eq!(Vec::from(buf.slice(..)), v);
        assert_eq!(SampleBuf::from(&v[..]), buf);
        assert_eq!((0..3).map(|i| i as f64).collect::<SampleBuf>().len(), 3);
        assert_eq!(SampleBuf::from([7.0, 8.0]).as_ref(), &[7.0, 8.0]);
        assert!(SampleBuf::default().is_empty());
    }

    #[test]
    fn debug_shows_offset_and_samples() {
        let s = format!("{:?}", SampleBuf::from(vec![0.0, 1.0]).slice(1..2));
        assert!(s.contains("@1"), "{s}");
        assert!(s.contains("1.0"), "{s}");
    }
}
