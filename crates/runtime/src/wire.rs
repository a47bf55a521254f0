//! Framing for stream transports: how a byte stream is cut into the frames
//! the message codecs read.
//!
//! The codecs themselves live with their message types
//! (`brisa_membership`'s `HpvMsg`, `brisa`'s `BrisaMsg` and `StackMsg`),
//! written against the vocabulary and frame layout of
//! [`brisa_simnet::wire`]; they are re-exported here. What only a stream
//! reader needs is added: the largest frame a receiver accepts and the
//! splitter that finds where each frame ends.

pub use brisa_simnet::wire::{WireCodec, WireError, LEN_PREFIX_BYTES, WIRE_VERSION};

/// Upper bound a receiver accepts for the `len` field (a corrupt length
/// prefix must not make a TCP reader allocate gigabytes).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Reads the length prefix of a buffered stream and returns the total frame
/// size (prefix included) if the prefix is complete, or `None` if more
/// bytes are needed. Used by transports to split a byte stream into frames
/// before handing each to [`WireCodec::decode`]. A frame body holds at
/// least the version, protocol and kind bytes.
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

#[cfg(test)]
mod tests {
    use super::*;
    use brisa::{BrisaMsg, StackMsg};
    use brisa_membership::HpvMsg;

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
}
