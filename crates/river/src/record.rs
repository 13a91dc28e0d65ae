//! The record model.
//!
//! "Dynamic River records can be grouped using `record subtype`, `scope`
//! and `scope type` header fields. … Within the data stream, each scope
//! begins with an `OpenScope` record and ends with a `CloseScope`
//! record. Optionally, `CloseScope` records can be replaced with
//! `BadCloseScope` records to enable scope closure while indicating that
//! the scope has not reached its intended point of closure. …
//! Optionally, `OpenScope` records may contain context information, such
//! as the sampling rate of an acoustic clip." (paper §2)

use crate::buf::SampleBuf;
use std::fmt;
use std::sync::Arc;

/// Structural kind of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// Ordinary payload-carrying record.
    Data,
    /// Opens a scope; `scope_type` identifies the scope's meaning.
    OpenScope,
    /// Closes the innermost open scope at its intended point.
    CloseScope,
    /// Closes the innermost open scope *before* its intended point —
    /// synthesized when an upstream segment terminates unexpectedly.
    BadCloseScope,
}

impl RecordKind {
    /// Stable wire tag for this kind.
    pub fn tag(self) -> u8 {
        match self {
            RecordKind::Data => 0,
            RecordKind::OpenScope => 1,
            RecordKind::CloseScope => 2,
            RecordKind::BadCloseScope => 3,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(RecordKind::Data),
            1 => Some(RecordKind::OpenScope),
            2 => Some(RecordKind::CloseScope),
            3 => Some(RecordKind::BadCloseScope),
            _ => None,
        }
    }

    /// `true` for `CloseScope` and `BadCloseScope`.
    pub fn closes_scope(self) -> bool {
        matches!(self, RecordKind::CloseScope | RecordKind::BadCloseScope)
    }
}

/// Typed record payload.
///
/// A variant exists because a shipped producer emits it: `F64` is
/// every audio, score and spectrum record, `Bytes` a WAV file on its
/// way into `wav2rec`, `Pairs` a scope's context. `F64` holds a
/// [`SampleBuf`] — an `Arc`-backed view — so cloning a record never
/// copies samples and re-windowing operators can emit O(1) sub-views
/// of their input (`reslice`, `cutout`, `cutter`). Construct it from
/// owned data with `Payload::F64(vec.into())` or the [`f64`](Self::f64)
/// helper; equality is by sample content, not by allocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Payload {
    /// No payload (scope records, markers).
    #[default]
    Empty,
    /// 64-bit float samples (audio, anomaly scores, spectra) as a
    /// shared, sliceable view.
    F64(SampleBuf),
    /// Raw bytes (encapsulated file content, opaque blobs). Cloning
    /// shares the bytes; build it from a `Vec<u8>` or `&[u8]` with
    /// `.into()`.
    Bytes(Arc<[u8]>),
    /// Key/value context pairs (e.g. `sample_rate` on an `OpenScope`).
    Pairs(Vec<(String, String)>),
}

impl Payload {
    /// Builds an `F64` payload from anything convertible to a
    /// [`SampleBuf`] (`Vec<f64>`, `&[f64]`, an existing view).
    pub fn f64(samples: impl Into<SampleBuf>) -> Payload {
        Payload::F64(samples.into())
    }

    /// Borrows the `F64` samples, if that is the variant.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Payload::F64(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Always `None`: no payload holds complex values since the complex
    /// variant was retired. Kept only because river-bench's clip
    /// digest still calls it; ROADMAP item 22 owns its removal, in a
    /// change that may edit the benchmark.
    pub fn as_complex(&self) -> Option<&[f64]> {
        None
    }

    /// Borrows the `F64` sample view, if that is the variant — for
    /// operators that slice or share the buffer rather than read it.
    pub fn as_f64_buf(&self) -> Option<&SampleBuf> {
        match self {
            Payload::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the pairs, if that is the variant.
    pub fn as_pairs(&self) -> Option<&[(String, String)]> {
        match self {
            Payload::Pairs(p) => Some(p),
            _ => None,
        }
    }

    /// Borrows the bytes, if that is the variant.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Payload::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Looks up a context value by key in a `Pairs` payload.
    pub fn context(&self, key: &str) -> Option<&str> {
        self.as_pairs()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Approximate in-memory payload size in bytes — used for the
    /// paper's data-reduction accounting.
    pub fn byte_len(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::F64(v) => v.len() * 8,
            Payload::Bytes(b) => b.len(),
            Payload::Pairs(p) => p.iter().map(|(k, v)| k.len() + v.len()).sum(),
        }
    }
}

/// A Dynamic River record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Structural kind.
    pub kind: RecordKind,
    /// Application-defined record subtype ("record subtype" header
    /// field) — e.g. audio vs anomaly-score vs trigger records.
    pub subtype: u16,
    /// Scope nesting depth ("scope" header field): "larger values
    /// indicate greater nesting while scope depth 0 indicates the
    /// outermost scope."
    pub scope_depth: u32,
    /// Application-defined scope type ("scope type" header field) — e.g.
    /// `scope_clip` vs `scope_ensemble`.
    pub scope_type: u16,
    /// Monotonic sequence number, assigned by sources; preserved by
    /// operators that transform payloads one-to-one.
    pub seq: u64,
    /// The payload.
    pub payload: Payload,
}

impl Record {
    /// Creates a data record with `subtype` and `payload` (scope fields
    /// zero; set by scope-aware pipelines).
    pub fn data(subtype: u16, payload: Payload) -> Self {
        Record {
            kind: RecordKind::Data,
            subtype,
            scope_depth: 0,
            scope_type: 0,
            seq: 0,
            payload,
        }
    }

    /// Creates an `OpenScope` record of the given scope type with
    /// optional context pairs.
    pub fn open_scope(scope_type: u16, context: Vec<(String, String)>) -> Self {
        Record {
            kind: RecordKind::OpenScope,
            subtype: 0,
            scope_depth: 0,
            scope_type,
            seq: 0,
            payload: if context.is_empty() {
                Payload::Empty
            } else {
                Payload::Pairs(context)
            },
        }
    }

    /// Creates a `CloseScope` record of the given scope type.
    pub fn close_scope(scope_type: u16) -> Self {
        Record {
            kind: RecordKind::CloseScope,
            subtype: 0,
            scope_depth: 0,
            scope_type,
            seq: 0,
            payload: Payload::Empty,
        }
    }

    /// Creates a `BadCloseScope` record of the given scope type.
    pub fn bad_close_scope(scope_type: u16) -> Self {
        Record {
            kind: RecordKind::BadCloseScope,
            subtype: 0,
            scope_depth: 0,
            scope_type,
            seq: 0,
            payload: Payload::Empty,
        }
    }

    /// Builder-style: sets the sequence number.
    #[must_use = "with_seq returns the modified record; it does not mutate in place"]
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Builder-style: sets the scope depth.
    #[must_use = "with_depth returns the modified record; it does not mutate in place"]
    pub fn with_depth(mut self, depth: u32) -> Self {
        self.scope_depth = depth;
        self
    }

    /// Builder-style: sets the subtype.
    #[must_use = "with_subtype returns the modified record; it does not mutate in place"]
    pub fn with_subtype(mut self, subtype: u16) -> Self {
        self.subtype = subtype;
        self
    }

    /// `true` for scope-management records (open/close/bad-close).
    pub fn is_scope_marker(&self) -> bool {
        self.kind != RecordKind::Data
    }

    /// Payload size in bytes (excluding headers).
    pub fn byte_len(&self) -> usize {
        self.payload.byte_len()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            RecordKind::Data => write!(
                f,
                "Data(subtype={}, scope_type={}, depth={}, seq={}, {} bytes)",
                self.subtype,
                self.scope_type,
                self.scope_depth,
                self.seq,
                self.byte_len()
            ),
            RecordKind::OpenScope => write!(
                f,
                "OpenScope(type={}, depth={})",
                self.scope_type, self.scope_depth
            ),
            RecordKind::CloseScope => write!(
                f,
                "CloseScope(type={}, depth={})",
                self.scope_type, self.scope_depth
            ),
            RecordKind::BadCloseScope => write!(
                f,
                "BadCloseScope(type={}, depth={})",
                self.scope_type, self.scope_depth
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_round_trip() {
        for kind in [
            RecordKind::Data,
            RecordKind::OpenScope,
            RecordKind::CloseScope,
            RecordKind::BadCloseScope,
        ] {
            assert_eq!(RecordKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(RecordKind::from_tag(200), None);
    }

    #[test]
    fn closes_scope_classification() {
        assert!(RecordKind::CloseScope.closes_scope());
        assert!(RecordKind::BadCloseScope.closes_scope());
        assert!(!RecordKind::Data.closes_scope());
        assert!(!RecordKind::OpenScope.closes_scope());
    }

    #[test]
    fn payload_accessors() {
        assert_eq!(Payload::f64(vec![1.0]).as_f64(), Some(&[1.0][..]));
        assert!(Payload::f64(vec![1.0]).as_f64_buf().is_some());
        assert!(Payload::f64(vec![1.0]).as_bytes().is_none());
        assert!(Payload::f64(vec![1.0]).as_complex().is_none());
        let bytes = Payload::Bytes(b"x"[..].into());
        assert_eq!(bytes.as_bytes(), Some(&b"x"[..]));
        assert!(bytes.as_f64().is_none());
        assert!(bytes.as_f64_buf().is_none());
        assert!(bytes.as_pairs().is_none());
        let pairs = Payload::Pairs(vec![("rate".into(), "20160".into())]);
        assert_eq!(pairs.context("rate"), Some("20160"));
        assert_eq!(pairs.context("missing"), None);
        assert_eq!(Payload::Empty.context("rate"), None);
    }

    #[test]
    fn byte_len_accounting() {
        assert_eq!(Payload::Empty.byte_len(), 0);
        assert_eq!(Payload::f64(vec![0.0; 10]).byte_len(), 80);
        assert_eq!(Payload::Bytes(b"abcd"[..].into()).byte_len(), 4);
        let pairs = Payload::Pairs(vec![("rate".into(), "20160".into())]);
        assert_eq!(pairs.byte_len(), 9);
    }

    #[test]
    fn constructors_and_builders() {
        let r = Record::data(3, Payload::f64(vec![1.0]))
            .with_seq(9)
            .with_depth(2)
            .with_subtype(5);
        assert_eq!(r.subtype, 5);
        assert_eq!(r.seq, 9);
        assert_eq!(r.scope_depth, 2);
        assert!(!r.is_scope_marker());

        let open = Record::open_scope(7, vec![("k".into(), "v".into())]);
        assert!(open.is_scope_marker());
        assert_eq!(open.payload.context("k"), Some("v"));

        let open_no_ctx = Record::open_scope(7, vec![]);
        assert_eq!(open_no_ctx.payload, Payload::Empty);
    }

    #[test]
    fn display_nonempty() {
        for r in [
            Record::data(0, Payload::Empty),
            Record::open_scope(1, vec![]),
            Record::close_scope(1),
            Record::bad_close_scope(1),
        ] {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn data_display_includes_scope_type() {
        // Inside an ensemble scope, trace output must disambiguate which
        // scope type a data record belongs to.
        let r = Record::data(2, Payload::f64(vec![0.0; 4]))
            .with_depth(2)
            .with_subtype(3);
        let r = Record { scope_type: 9, ..r };
        let s = r.to_string();
        assert!(s.contains("scope_type=9"), "{s}");
        assert!(s.contains("subtype=3"), "{s}");
    }

    #[test]
    fn record_clone_shares_sample_backing() {
        // The acceptance criterion for the zero-copy payload redesign:
        // cloning an F64 record copies no samples — the clone's
        // payload is a view into the same backing allocation. `Bytes`
        // holds an `Arc` for the same reason: a clone shares the bytes.
        use crate::buf::SampleBuf;
        for payload in [
            Payload::f64((0..840).map(|i| i as f64).collect::<Vec<f64>>()),
            Payload::Bytes(vec![7u8; 4_096].into()),
        ] {
            let rec = Record::data(1, payload).with_seq(7);
            let cloned = rec.clone();
            match (&rec.payload, &cloned.payload) {
                (Payload::F64(a), Payload::F64(b)) => assert!(SampleBuf::shares_backing(a, b)),
                (Payload::Bytes(a), Payload::Bytes(b)) => assert!(Arc::ptr_eq(a, b)),
                other => panic!("variant changed by clone: {other:?}"),
            }
            assert_eq!(rec, cloned);
        }
    }
}
