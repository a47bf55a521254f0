//! The wire codec: a length-prefixed, versioned binary framing for every
//! message type of the protocol stack.
//!
//! A frame is laid out as (all integers little-endian):
//!
//! ```text
//! offset 0  u32  len      — number of bytes after this field
//! offset 4  u8   version  — WIRE_VERSION
//! offset 5  u8   proto    — 0 HyParView | 1 BRISA | 2 Cyclon
//! offset 6  u8   kind     — variant tag within the protocol
//! offset 7  ...  header tail + body (protocol-specific)
//! ```
//!
//! The header tail pads the fixed header to exactly the per-message
//! overhead the simulator has always charged: [`brisa_membership::HPV_HEADER_BYTES`] (8) for
//! HyParView and Cyclon frames (one reserved byte), [`brisa::BRISA_HEADER_BYTES`]
//! (16) for BRISA frames (a `u64` stream identifier — always 0 while the
//! stack carries a single stream — plus one reserved byte). With the
//! explicit counts added to the `WireSize` formulas in this PR, **the
//! encoded frame length equals `wire_size()` for every variant**, so the
//! simulator's bandwidth accounting and the bytes a live transport carries
//! are the same number; the codec tests pin this per variant.
//!
//! [`DataMsg`] payloads are opaque in the protocol (only their size is
//! carried in the struct); the codec materialises `payload_bytes` of a
//! deterministic pattern so live transports move — and live benches measure
//! — real full-size frames. Decoding validates the length and recovers the
//! size, not the pattern.
//!
//! Decoding is total: any truncated, corrupt or version-skewed input
//! returns a [`WireError`], never panics, and never reads past the frame.

use brisa::{BrisaMsg, CycleGuard, DataMsg, StackMsg};
use brisa_membership::{CyclonMsg, Descriptor, HpvMsg};
use brisa_simnet::NodeId;
use std::fmt;
use std::sync::Arc;

/// Version byte carried by every frame.
pub const WIRE_VERSION: u8 = 1;

/// Size of the `u32` length prefix.
pub const LEN_PREFIX_BYTES: usize = 4;

/// Upper bound a receiver accepts for the `len` field (a corrupt length
/// prefix must not make a TCP reader allocate gigabytes).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Protocol discriminants (frame offset 5).
mod proto {
    pub const HPV: u8 = 0;
    pub const BRISA: u8 = 1;
    pub const CYCLON: u8 = 2;
}

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
    /// Unknown protocol discriminant.
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
pub trait WireCodec: Sized {
    /// Appends the full frame (length prefix included) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

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

/// Reads the length prefix of a buffered stream and returns the total frame
/// size (prefix included) if the prefix is complete, or `None` if more
/// bytes are needed. Used by transports to split a byte stream into frames
/// before handing each to [`WireCodec::decode`].
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if buf.len() < LEN_PREFIX_BYTES {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if !(3..=MAX_FRAME_BYTES).contains(&len) {
        return Err(WireError::Corrupt("length prefix out of range"));
    }
    Ok(Some(LEN_PREFIX_BYTES + len))
}

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// Index of the frame's length prefix, patched on finish.
    len_at: usize,
}

impl<'a> Writer<'a> {
    fn begin(out: &'a mut Vec<u8>, protocol: u8, kind: u8) -> Self {
        let len_at = out.len();
        out.extend_from_slice(&[0, 0, 0, 0]);
        out.push(WIRE_VERSION);
        out.push(protocol);
        out.push(kind);
        Writer { out, len_at }
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// A node identifier in the paper's 6-byte `ip:port` footprint: the
    /// 32-bit index plus two reserved bytes.
    fn node(&mut self, n: NodeId) {
        self.u32(n.0);
        self.u16(0);
    }

    fn finish(self) {
        let len = (self.out.len() - self.len_at - LEN_PREFIX_BYTES) as u32;
        self.out[self.len_at..self.len_at + LEN_PREFIX_BYTES].copy_from_slice(&len.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.buf.len() - self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn node(&mut self) -> Result<NodeId, WireError> {
        let id = self.u32()?;
        self.take(2)?; // reserved "port" bytes
        Ok(NodeId(id))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Corrupt("trailing bytes after message body"));
        }
        Ok(())
    }

    /// Validates the fixed prefix and returns `(proto, kind)` with the
    /// reader positioned after the kind byte.
    fn open(frame: &'a [u8]) -> Result<(u8, u8, Reader<'a>), WireError> {
        let mut r = Reader { buf: frame, pos: 0 };
        let len = r.u32()? as usize;
        if len != frame.len() - LEN_PREFIX_BYTES {
            return Err(WireError::Corrupt("length prefix does not match frame"));
        }
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let protocol = r.u8()?;
        let kind = r.u8()?;
        Ok((protocol, kind, r))
    }
}

/// The deterministic filler byte at offset `i` of the payload of stream
/// message `seq`. Purely a function of its arguments so encoding is a pure
/// function of the message value.
fn payload_byte(seq: u64, i: usize) -> u8 {
    (seq as u8) ^ (i as u8).wrapping_mul(31)
}

// ---------------------------------------------------------------------------
// HyParView
// ---------------------------------------------------------------------------

mod hpv_kind {
    pub const JOIN: u8 = 0;
    pub const FORWARD_JOIN: u8 = 1;
    pub const NEIGHBOR: u8 = 2;
    pub const NEIGHBOR_REPLY: u8 = 3;
    pub const DISCONNECT: u8 = 4;
    pub const SHUFFLE: u8 = 5;
    pub const SHUFFLE_REPLY: u8 = 6;
    pub const KEEP_ALIVE: u8 = 7;
    pub const KEEP_ALIVE_ACK: u8 = 8;
}

fn write_nodes(w: &mut Writer<'_>, nodes: &[NodeId]) {
    assert!(
        nodes.len() <= u16::MAX as usize,
        "node list too long to encode"
    );
    w.u16(nodes.len() as u16);
    for &n in nodes {
        w.node(n);
    }
}

fn read_nodes(r: &mut Reader<'_>) -> Result<Vec<NodeId>, WireError> {
    let count = r.u16()? as usize;
    let mut nodes = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        nodes.push(r.node()?);
    }
    Ok(nodes)
}

impl WireCodec for HpvMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let kind = match self {
            HpvMsg::Join => hpv_kind::JOIN,
            HpvMsg::ForwardJoin { .. } => hpv_kind::FORWARD_JOIN,
            HpvMsg::Neighbor { .. } => hpv_kind::NEIGHBOR,
            HpvMsg::NeighborReply { .. } => hpv_kind::NEIGHBOR_REPLY,
            HpvMsg::Disconnect => hpv_kind::DISCONNECT,
            HpvMsg::Shuffle { .. } => hpv_kind::SHUFFLE,
            HpvMsg::ShuffleReply { .. } => hpv_kind::SHUFFLE_REPLY,
            HpvMsg::KeepAlive { .. } => hpv_kind::KEEP_ALIVE,
            HpvMsg::KeepAliveAck { .. } => hpv_kind::KEEP_ALIVE_ACK,
        };
        let mut w = Writer::begin(out, proto::HPV, kind);
        w.u8(0); // reserved: pads the header to HPV_HEADER_BYTES
        match self {
            HpvMsg::Join | HpvMsg::Disconnect => {}
            HpvMsg::ForwardJoin { new_node, ttl } => {
                w.node(*new_node);
                w.u8(*ttl);
            }
            HpvMsg::Neighbor { high_priority } => w.u8(*high_priority as u8),
            HpvMsg::NeighborReply { accepted } => w.u8(*accepted as u8),
            HpvMsg::Shuffle { origin, nodes, ttl } => {
                w.node(*origin);
                w.u8(*ttl);
                write_nodes(&mut w, nodes);
            }
            HpvMsg::ShuffleReply { nodes } => write_nodes(&mut w, nodes),
            HpvMsg::KeepAlive { nonce } | HpvMsg::KeepAliveAck { nonce } => w.u64(*nonce),
        }
        w.finish();
    }

    fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let (protocol, kind, mut r) = Reader::open(frame)?;
        if protocol != proto::HPV {
            return Err(WireError::BadProto(protocol));
        }
        r.u8()?; // reserved
        let msg = match kind {
            hpv_kind::JOIN => HpvMsg::Join,
            hpv_kind::FORWARD_JOIN => HpvMsg::ForwardJoin {
                new_node: r.node()?,
                ttl: r.u8()?,
            },
            hpv_kind::NEIGHBOR => HpvMsg::Neighbor {
                high_priority: r.u8()? != 0,
            },
            hpv_kind::NEIGHBOR_REPLY => HpvMsg::NeighborReply {
                accepted: r.u8()? != 0,
            },
            hpv_kind::DISCONNECT => HpvMsg::Disconnect,
            hpv_kind::SHUFFLE => {
                let origin = r.node()?;
                let ttl = r.u8()?;
                HpvMsg::Shuffle {
                    origin,
                    nodes: read_nodes(&mut r)?,
                    ttl,
                }
            }
            hpv_kind::SHUFFLE_REPLY => HpvMsg::ShuffleReply {
                nodes: read_nodes(&mut r)?,
            },
            hpv_kind::KEEP_ALIVE => HpvMsg::KeepAlive { nonce: r.u64()? },
            hpv_kind::KEEP_ALIVE_ACK => HpvMsg::KeepAliveAck { nonce: r.u64()? },
            other => {
                return Err(WireError::BadKind {
                    proto: protocol,
                    kind: other,
                })
            }
        };
        r.done()?;
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// BRISA
// ---------------------------------------------------------------------------

mod brisa_kind {
    pub const DATA: u8 = 0;
    pub const DEACTIVATE: u8 = 1;
    pub const ACTIVATE: u8 = 2;
    pub const REACTIVATION_ORDER: u8 = 3;
    pub const DEPTH_UPDATE: u8 = 4;
    pub const RETRANSMIT: u8 = 5;
    pub const EDGE: u8 = 6;
}

mod guard_kind {
    pub const PATH: u8 = 1;
    pub const DEPTH: u8 = 2;
}

fn write_guard(w: &mut Writer<'_>, guard: &CycleGuard) {
    match guard {
        CycleGuard::Path(path) => {
            w.u8(guard_kind::PATH);
            write_nodes(w, path);
        }
        CycleGuard::Depth(d) => {
            w.u8(guard_kind::DEPTH);
            w.u32(*d);
        }
    }
}

/// Decodes a hop list straight into the shared slice a
/// [`CycleGuard::Path`] holds. The hops are taken as one block — which
/// bounds the count by the bytes actually present — so the collect is a
/// single exact-size allocation.
fn read_path(r: &mut Reader<'_>) -> Result<Arc<[NodeId]>, WireError> {
    let count = r.u16()? as usize;
    let hops = r.take(count * NodeId::WIRE_SIZE)?;
    Ok(hops
        .chunks_exact(NodeId::WIRE_SIZE)
        .map(|h| NodeId(u32::from_le_bytes([h[0], h[1], h[2], h[3]])))
        .collect())
}

fn read_guard(r: &mut Reader<'_>) -> Result<CycleGuard, WireError> {
    match r.u8()? {
        guard_kind::PATH => Ok(CycleGuard::Path(read_path(r)?)),
        guard_kind::DEPTH => Ok(CycleGuard::Depth(r.u32()?)),
        _ => Err(WireError::Corrupt("unknown cycle-guard kind")),
    }
}

impl WireCodec for BrisaMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let kind = match self {
            BrisaMsg::Data(_) => brisa_kind::DATA,
            BrisaMsg::Deactivate { .. } => brisa_kind::DEACTIVATE,
            BrisaMsg::Activate => brisa_kind::ACTIVATE,
            BrisaMsg::ReactivationOrder => brisa_kind::REACTIVATION_ORDER,
            BrisaMsg::DepthUpdate { .. } => brisa_kind::DEPTH_UPDATE,
            BrisaMsg::Retransmit { .. } => brisa_kind::RETRANSMIT,
            BrisaMsg::Edge { .. } => brisa_kind::EDGE,
        };
        let mut w = Writer::begin(out, proto::BRISA, kind);
        w.u64(0); // stream identifier: a single stream for now
        w.u8(0); // reserved: pads the header to BRISA_HEADER_BYTES
        match self {
            BrisaMsg::Data(d) => {
                assert!(
                    d.payload_bytes <= u32::MAX as usize,
                    "payload too large to encode"
                );
                w.u64(d.seq);
                w.u32(d.payload_bytes as u32);
                w.u32(d.sender_uptime_secs);
                w.u16(d.sender_load);
                write_guard(&mut w, &d.guard);
                // The filler pattern repeats every 256 bytes (it depends on
                // `i` only through `i as u8`), so build one period and copy
                // it in slices — this is the hot path of every data send.
                let mut period = [0u8; 256];
                for (i, b) in period.iter_mut().enumerate() {
                    *b = payload_byte(d.seq, i);
                }
                w.out.reserve(d.payload_bytes);
                let mut remaining = d.payload_bytes;
                while remaining > 0 {
                    let n = remaining.min(period.len());
                    w.out.extend_from_slice(&period[..n]);
                    remaining -= n;
                }
            }
            BrisaMsg::Deactivate { symmetric } => w.u8(*symmetric as u8),
            BrisaMsg::Activate | BrisaMsg::ReactivationOrder => {}
            BrisaMsg::DepthUpdate { depth } => w.u32(*depth),
            BrisaMsg::Retransmit { from_seq, to_seq } => {
                w.u64(*from_seq);
                w.u64(*to_seq);
            }
            BrisaMsg::Edge { highest } => w.u64(*highest),
        }
        w.finish();
    }

    fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let (protocol, kind, mut r) = Reader::open(frame)?;
        if protocol != proto::BRISA {
            return Err(WireError::BadProto(protocol));
        }
        r.u64()?; // stream identifier
        r.u8()?; // reserved
        let msg = match kind {
            brisa_kind::DATA => {
                let seq = r.u64()?;
                let payload_bytes = r.u32()? as usize;
                let sender_uptime_secs = r.u32()?;
                let sender_load = r.u16()?;
                let guard = read_guard(&mut r)?;
                // The payload pattern is opaque; only its length matters.
                r.take(payload_bytes)?;
                BrisaMsg::data(DataMsg {
                    seq,
                    payload_bytes,
                    guard,
                    sender_uptime_secs,
                    sender_load,
                })
            }
            brisa_kind::DEACTIVATE => BrisaMsg::Deactivate {
                symmetric: r.u8()? != 0,
            },
            brisa_kind::ACTIVATE => BrisaMsg::Activate,
            brisa_kind::REACTIVATION_ORDER => BrisaMsg::ReactivationOrder,
            brisa_kind::DEPTH_UPDATE => BrisaMsg::DepthUpdate { depth: r.u32()? },
            brisa_kind::RETRANSMIT => BrisaMsg::Retransmit {
                from_seq: r.u64()?,
                to_seq: r.u64()?,
            },
            brisa_kind::EDGE => BrisaMsg::Edge { highest: r.u64()? },
            other => {
                return Err(WireError::BadKind {
                    proto: protocol,
                    kind: other,
                })
            }
        };
        r.done()?;
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// Cyclon
// ---------------------------------------------------------------------------

mod cyclon_kind {
    pub const SHUFFLE_REQUEST: u8 = 0;
    pub const SHUFFLE_RESPONSE: u8 = 1;
}

fn write_descriptors(w: &mut Writer<'_>, descriptors: &[Descriptor]) {
    assert!(
        descriptors.len() <= u16::MAX as usize,
        "descriptor list too long to encode"
    );
    w.u16(descriptors.len() as u16);
    for d in descriptors {
        w.node(d.node);
        w.u16(d.age);
    }
}

fn read_descriptors(r: &mut Reader<'_>) -> Result<Vec<Descriptor>, WireError> {
    let count = r.u16()? as usize;
    let mut descriptors = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let node = r.node()?;
        let age = r.u16()?;
        descriptors.push(Descriptor { node, age });
    }
    Ok(descriptors)
}

impl WireCodec for CyclonMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let kind = match self {
            CyclonMsg::ShuffleRequest { .. } => cyclon_kind::SHUFFLE_REQUEST,
            CyclonMsg::ShuffleResponse { .. } => cyclon_kind::SHUFFLE_RESPONSE,
        };
        let mut w = Writer::begin(out, proto::CYCLON, kind);
        w.u8(0); // reserved: pads the header to CYCLON_HEADER_BYTES
        match self {
            CyclonMsg::ShuffleRequest { descriptors }
            | CyclonMsg::ShuffleResponse { descriptors } => write_descriptors(&mut w, descriptors),
        }
        w.finish();
    }

    fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let (protocol, kind, mut r) = Reader::open(frame)?;
        if protocol != proto::CYCLON {
            return Err(WireError::BadProto(protocol));
        }
        r.u8()?; // reserved
        let msg = match kind {
            cyclon_kind::SHUFFLE_REQUEST => CyclonMsg::ShuffleRequest {
                descriptors: read_descriptors(&mut r)?,
            },
            cyclon_kind::SHUFFLE_RESPONSE => CyclonMsg::ShuffleResponse {
                descriptors: read_descriptors(&mut r)?,
            },
            other => {
                return Err(WireError::BadKind {
                    proto: protocol,
                    kind: other,
                })
            }
        };
        r.done()?;
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// The combined stack
// ---------------------------------------------------------------------------

impl WireCodec for StackMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            StackMsg::Hpv(m) => m.encode_into(out),
            StackMsg::Brisa(m) => m.encode_into(out),
        }
    }

    fn decode(frame: &[u8]) -> Result<Self, WireError> {
        // Peek the protocol discriminant (offset 5) to route the frame; the
        // per-protocol decoder re-validates the whole prefix.
        let Some(&protocol) = frame.get(LEN_PREFIX_BYTES + 1) else {
            return Err(WireError::Truncated {
                needed: LEN_PREFIX_BYTES + 3,
                available: frame.len(),
            });
        };
        match protocol {
            proto::HPV => Ok(StackMsg::Hpv(HpvMsg::decode(frame)?)),
            proto::BRISA => Ok(StackMsg::Brisa(BrisaMsg::decode(frame)?)),
            other => Err(WireError::BadProto(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_simnet::WireSize;

    /// One representative value per variant of every message type the codec
    /// handles. Kept exhaustive by the match in `variant_name`.
    pub(crate) fn stack_specimens() -> Vec<StackMsg> {
        let mut v: Vec<StackMsg> = vec![
            StackMsg::Hpv(HpvMsg::Join),
            StackMsg::Hpv(HpvMsg::ForwardJoin {
                new_node: NodeId(7),
                ttl: 3,
            }),
            StackMsg::Hpv(HpvMsg::Neighbor {
                high_priority: true,
            }),
            StackMsg::Hpv(HpvMsg::NeighborReply { accepted: false }),
            StackMsg::Hpv(HpvMsg::Disconnect),
            StackMsg::Hpv(HpvMsg::Shuffle {
                origin: NodeId(1),
                nodes: vec![NodeId(2), NodeId(3), NodeId(4)],
                ttl: 2,
            }),
            StackMsg::Hpv(HpvMsg::ShuffleReply {
                nodes: vec![NodeId(9)],
            }),
            StackMsg::Hpv(HpvMsg::KeepAlive { nonce: 0xDEAD }),
            StackMsg::Hpv(HpvMsg::KeepAliveAck { nonce: 0xBEEF }),
            StackMsg::Brisa(BrisaMsg::data(DataMsg {
                seq: 42,
                payload_bytes: 1024,
                guard: CycleGuard::Path(vec![NodeId(0), NodeId(5)].into()),
                sender_uptime_secs: 17,
                sender_load: 3,
            })),
            StackMsg::Brisa(BrisaMsg::data(DataMsg {
                seq: 0,
                payload_bytes: 0,
                guard: CycleGuard::Depth(6),
                sender_uptime_secs: 0,
                sender_load: 0,
            })),
            StackMsg::Brisa(BrisaMsg::Deactivate { symmetric: true }),
            StackMsg::Brisa(BrisaMsg::Deactivate { symmetric: false }),
            StackMsg::Brisa(BrisaMsg::Activate),
            StackMsg::Brisa(BrisaMsg::ReactivationOrder),
            StackMsg::Brisa(BrisaMsg::DepthUpdate { depth: 4 }),
            StackMsg::Brisa(BrisaMsg::Retransmit {
                from_seq: 10,
                to_seq: 20,
            }),
            StackMsg::Brisa(BrisaMsg::Edge { highest: 599 }),
        ];
        // Edge cases: empty node lists.
        v.push(StackMsg::Hpv(HpvMsg::Shuffle {
            origin: NodeId(0),
            nodes: vec![],
            ttl: 0,
        }));
        v.push(StackMsg::Hpv(HpvMsg::ShuffleReply { nodes: vec![] }));
        v.push(StackMsg::Brisa(BrisaMsg::data(DataMsg {
            seq: 1,
            payload_bytes: 3,
            guard: CycleGuard::Path(Arc::from([])),
            sender_uptime_secs: 1,
            sender_load: 1,
        })));
        v
    }

    fn cyclon_specimens() -> Vec<CyclonMsg> {
        vec![
            CyclonMsg::ShuffleRequest {
                descriptors: vec![
                    Descriptor {
                        node: NodeId(3),
                        age: 2,
                    },
                    Descriptor {
                        node: NodeId(8),
                        age: 0,
                    },
                ],
            },
            CyclonMsg::ShuffleResponse {
                descriptors: vec![],
            },
        ]
    }

    #[test]
    fn stack_roundtrip_every_variant() {
        for msg in stack_specimens() {
            let frame = msg.encode();
            let back = StackMsg::decode(&frame).expect("decode");
            assert_eq!(back, msg);
            // Re-encoding the decoded value is bit-identical.
            assert_eq!(back.encode(), frame);
        }
    }

    #[test]
    fn cyclon_roundtrip_every_variant() {
        for msg in cyclon_specimens() {
            let frame = msg.encode();
            assert_eq!(CyclonMsg::decode(&frame).expect("decode"), msg);
            assert_eq!(frame.len(), msg.wire_size());
        }
    }

    /// The satellite contract: `wire_size()` is the *actual* encoded size,
    /// for every variant.
    #[test]
    fn wire_size_is_encoded_len_for_every_variant() {
        for msg in stack_specimens() {
            let frame = msg.encode();
            assert_eq!(frame.len(), msg.wire_size(), "wire_size drift for {msg:?}");
        }
    }

    #[test]
    fn truncation_never_panics_and_always_errs() {
        for msg in stack_specimens() {
            let frame = msg.encode();
            for cut in 0..frame.len() {
                assert!(
                    StackMsg::decode(&frame[..cut]).is_err(),
                    "truncated frame (cut at {cut}) decoded for {msg:?}"
                );
            }
        }
    }

    #[test]
    fn header_corruption_is_rejected() {
        let frame = StackMsg::Hpv(HpvMsg::KeepAlive { nonce: 1 }).encode();
        // Version skew.
        let mut bad = frame.clone();
        bad[4] = WIRE_VERSION + 1;
        assert_eq!(
            StackMsg::decode(&bad),
            Err(WireError::BadVersion(WIRE_VERSION + 1))
        );
        // Unknown protocol.
        let mut bad = frame.clone();
        bad[5] = 99;
        assert_eq!(StackMsg::decode(&bad), Err(WireError::BadProto(99)));
        // Unknown kind.
        let mut bad = frame.clone();
        bad[6] = 200;
        assert!(matches!(
            StackMsg::decode(&bad),
            Err(WireError::BadKind { kind: 200, .. })
        ));
        // Length prefix mismatch.
        let mut bad = frame.clone();
        bad[0] ^= 1;
        assert!(StackMsg::decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = frame.clone();
        bad.push(0);
        assert!(StackMsg::decode(&bad).is_err());
    }

    #[test]
    fn frame_len_splits_streams() {
        let a = StackMsg::Hpv(HpvMsg::Join).encode();
        let b = StackMsg::Brisa(BrisaMsg::Deactivate { symmetric: false }).encode();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let la = frame_len(&stream).unwrap().unwrap();
        assert_eq!(la, a.len());
        let lb = frame_len(&stream[la..]).unwrap().unwrap();
        assert_eq!(lb, b.len());
        assert_eq!(frame_len(&stream[..2]).unwrap(), None);
        // A hostile length prefix is rejected instead of allocating.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
        assert!(frame_len(&huge).is_err());
    }

    #[test]
    fn data_payload_bytes_are_materialised() {
        let msg = BrisaMsg::data(DataMsg {
            seq: 9,
            payload_bytes: 100,
            guard: CycleGuard::Depth(1),
            sender_uptime_secs: 0,
            sender_load: 0,
        });
        let frame = msg.encode();
        assert_eq!(frame.len(), msg.wire_size());
        // The last 100 bytes are the deterministic pattern.
        let tail = &frame[frame.len() - 100..];
        for (i, &b) in tail.iter().enumerate() {
            assert_eq!(b, payload_byte(9, i));
        }
    }
}
