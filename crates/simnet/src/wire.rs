//! The vocabulary every message codec is written in.
//!
//! A message type that travels between live processes implements
//! [`WireCodec`] next to its definition, and its `encode_into` is the only
//! description of its bytes. Run over a `Vec<u8>` it writes the frame a live
//! transport carries; run over a [`ByteCount`] it writes nothing and only
//! adds up lengths, and that count is what [`WireSize::wire_size`] charges
//! in the simulator. Simulated bandwidth and live bytes are therefore one
//! number by construction, not by a test that keeps two copies equal.
//!
//! A frame is laid out as (all integers little-endian):
//!
//! ```text
//! offset 0  u32  len      — number of bytes after this field
//! offset 4  u8   version  — WIRE_VERSION
//! offset 5  u8   proto    — 0 HyParView | 1 BRISA (2 was Cyclon's: retired)
//! offset 6  u8   kind     — variant tag within the protocol
//! offset 7  ...  header tail + body (protocol-specific)
//! ```
//!
//! Decoding is total: any truncated, corrupt or version-skewed input
//! returns a [`WireError`], never panics, and never reads past the frame.

use crate::{NodeId, WireSize};
use std::fmt;

/// Version byte carried by every frame.
pub const WIRE_VERSION: u8 = 1;

/// Size of a frame's `u32` length prefix.
pub const LEN_PREFIX_BYTES: usize = 4;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced frame did.
    Truncated {
        /// Bytes needed to make progress.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The frame's version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The frame belongs to another protocol.
    BadProto(u8),
    /// Unknown variant tag within a known protocol.
    BadKind {
        /// The protocol discriminant.
        proto: u8,
        /// The offending variant tag.
        kind: u8,
    },
    /// The frame parsed but violates a structural rule (bad length prefix,
    /// trailing bytes, oversized count, ...).
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadProto(p) => write!(f, "unknown protocol discriminant {p}"),
            WireError::BadKind { proto, kind } => {
                write!(f, "unknown message kind {kind} for protocol {proto}")
            }
            WireError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

/// Types that encode to / decode from a self-contained wire frame.
///
/// Every implementor is a [`WireSize`] for free: its size is its encoder
/// run over a [`ByteCount`].
pub trait WireCodec: Sized {
    /// Writes the full frame (length prefix included) to `out`.
    fn encode_into<S: Sink>(&self, out: &mut S);

    /// Decodes a full frame. `frame` must be exactly one frame (length
    /// prefix included); trailing bytes are an error.
    fn decode(frame: &[u8]) -> Result<Self, WireError>;

    /// Convenience: encodes into a fresh vector.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

impl<T: WireCodec> WireSize for T {
    fn wire_size(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode_into(&mut count);
        count.0
    }
}

/// Where an encoder puts its bytes: a `Vec<u8>` writes them, a
/// [`ByteCount`] only counts them. Every append returns the sink, so a
/// message's layout reads as one chain.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]) -> &mut Self;

    /// Appends a node list: a `u16` count, then each node as [`Sink::node`]
    /// writes it.
    fn nodes(&mut self, nodes: &[NodeId]) -> &mut Self;

    /// Appends `len` bytes of the deterministic filler that stands in for
    /// the opaque payload of stream message `seq`.
    fn filler(&mut self, seq: u64, len: usize) -> &mut Self;

    /// Appends one frame: the length prefix and the version byte, then
    /// whatever `body` writes (protocol byte, kind tag, header tail, fields).
    fn frame(&mut self, body: impl FnOnce(&mut Self) -> &mut Self);

    /// Appends a `u8`.
    fn u8(&mut self, v: u8) -> &mut Self {
        self.put(&[v])
    }

    /// Appends a `u16`.
    fn u16(&mut self, v: u16) -> &mut Self {
        self.put(&v.to_le_bytes())
    }

    /// Appends a `u32`.
    fn u32(&mut self, v: u32) -> &mut Self {
        self.put(&v.to_le_bytes())
    }

    /// Appends a `u64`.
    fn u64(&mut self, v: u64) -> &mut Self {
        self.put(&v.to_le_bytes())
    }

    /// Appends a node identifier: the 32-bit index plus the two reserved
    /// "port" bytes of the paper's 6-byte footprint.
    fn node(&mut self, n: NodeId) -> &mut Self {
        self.u32(n.0).u16(0)
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.extend_from_slice(bytes);
        self
    }

    fn frame(&mut self, body: impl FnOnce(&mut Self) -> &mut Self) {
        let start = self.len();
        // The length prefix is patched once the body is written.
        body(self.put(&[0; LEN_PREFIX_BYTES]).u8(WIRE_VERSION));
        let len = (self.len() - start - LEN_PREFIX_BYTES) as u32;
        self[start..start + LEN_PREFIX_BYTES].copy_from_slice(&len.to_le_bytes());
    }

    fn nodes(&mut self, nodes: &[NodeId]) -> &mut Self {
        let count = u16::try_from(nodes.len()).expect("node list too long to encode");
        self.u16(count);
        for &n in nodes {
            self.node(n);
        }
        self
    }

    fn filler(&mut self, seq: u64, len: usize) -> &mut Self {
        // The pattern repeats every 256 bytes (it depends on the offset `i`
        // only through `i as u8`), so build one period and copy it in
        // slices: this is the hot path of every live data send.
        let period: [u8; 256] = std::array::from_fn(|i| (seq as u8) ^ (i as u8).wrapping_mul(31));
        self.reserve(len);
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(period.len());
            self.extend_from_slice(&period[..n]);
            remaining -= n;
        }
        self
    }
}

/// A sink that writes nothing and counts what it is given: node lists and
/// payload filler in O(1), so charging a simulated send its size costs no
/// allocation and no walk over the path or the payload.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.0 += bytes.len();
        self
    }

    #[inline]
    fn frame(&mut self, body: impl FnOnce(&mut Self) -> &mut Self) {
        body(self.put(&[0; LEN_PREFIX_BYTES]).u8(WIRE_VERSION));
    }

    #[inline]
    fn nodes(&mut self, nodes: &[NodeId]) -> &mut Self {
        self.0 += nodes.len() * NodeId::WIRE_SIZE;
        self.u16(0)
    }

    #[inline]
    fn filler(&mut self, _seq: u64, len: usize) -> &mut Self {
        self.0 += len;
        self
    }
}

/// A bounds-checked cursor over one frame.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Checks the fixed header of a `proto` frame — length prefix against
    /// the frame, version, protocol byte — and returns the kind tag with the
    /// reader positioned after it.
    pub fn open(frame: &'a [u8], proto: u8) -> Result<(u8, Reader<'a>), WireError> {
        let mut r = Reader { buf: frame, pos: 0 };
        let len = r.u32()? as usize;
        if len != frame.len() - LEN_PREFIX_BYTES {
            return Err(WireError::Corrupt("length prefix does not match frame"));
        }
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let actual = r.u8()?;
        if actual != proto {
            return Err(WireError::BadProto(actual));
        }
        let kind = r.u8()?;
        Ok((kind, r))
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let available = self.buf.len() - self.pos;
        if available < n {
            return Err(WireError::Truncated {
                needed: n,
                available,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads a node identifier written by [`Sink::node`].
    pub fn node(&mut self) -> Result<NodeId, WireError> {
        let id = self.u32()?;
        self.take(2)?; // reserved "port" bytes
        Ok(NodeId(id))
    }

    /// Reads a node list written by [`Sink::nodes`] into any collection.
    /// The entries are taken as one block, which bounds the count by the
    /// bytes actually present, so the collect is one exact-size allocation.
    pub fn nodes<C: FromIterator<NodeId>>(&mut self) -> Result<C, WireError> {
        let count = self.u16()? as usize;
        let entries = self.take(count * NodeId::WIRE_SIZE)?;
        Ok(entries
            .chunks_exact(NodeId::WIRE_SIZE)
            .map(|e| NodeId(u32::from_le_bytes([e[0], e[1], e[2], e[3]])))
            .collect())
    }

    /// Fails unless the whole frame was read.
    pub fn done(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Corrupt("trailing bytes after message body"));
        }
        Ok(())
    }
}
