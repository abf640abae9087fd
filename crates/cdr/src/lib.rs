//! CDR-style marshaling for PARDIS.
//!
//! CORBA transports values between heterogeneous machines in the *Common Data
//! Representation* (CDR): primitives are aligned to their natural size
//! relative to the start of the stream, the sender's byte order is carried as
//! a flag, and constructed types (strings, sequences, structs) are encoded
//! recursively. The PARDIS paper leans on this machinery for its headline
//! programmability claim — the IDL compiler generates marshaling for
//! *dynamically-sized, nested* structures (`dsequence<sequence<double>>`,
//! the `matrix` of §4.1) that programmers previously had to hand-code.
//!
//! This crate provides:
//!
//! * [`Encoder`] / [`Decoder`] — aligned, endian-aware CDR streams over
//!   [`bytes`] buffers;
//! * [`CdrCodec`] — the trait the IDL compiler's generated types implement;
//! * [`TypeCode`] and [`Any`] — runtime type descriptions and dynamically
//!   typed values, used by the dynamic invocation interface and by the
//!   repository wire format.

mod any;
mod codec;
mod decode;
mod encode;
mod error;
mod typecode;

pub use any::{Any, Value};
pub use decode::{Decoder, ElemSink};
pub use encode::Encoder;
pub use error::CdrError;
pub use typecode::TypeCode;

use bytes::Bytes;

/// Byte order of an encoded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOrder {
    /// Big-endian ("network order"); CORBA's canonical order.
    Big,
    /// Little-endian; what the paper's SGI/Intel mix makes unavoidable.
    Little,
}

impl ByteOrder {
    /// The byte order of the machine we are running on.
    pub fn native() -> ByteOrder {
        if cfg!(target_endian = "big") {
            ByteOrder::Big
        } else {
            ByteOrder::Little
        }
    }

    /// CDR flag byte (0 = big endian, 1 = little endian).
    pub fn flag(self) -> u8 {
        match self {
            ByteOrder::Big => 0,
            ByteOrder::Little => 1,
        }
    }

    /// Parse a CDR flag byte.
    pub fn from_flag(flag: u8) -> Result<ByteOrder, CdrError> {
        match flag {
            0 => Ok(ByteOrder::Big),
            1 => Ok(ByteOrder::Little),
            other => Err(CdrError::BadByteOrderFlag(other)),
        }
    }
}

/// Types that can be marshaled to and from CDR.
///
/// Implementations exist for all IDL primitive mappings, `String`, `Vec<T>`,
/// fixed-size arrays and tuples; the IDL compiler generates implementations
/// for user-defined structs and enums.
pub trait CdrCodec: Sized {
    /// Append this value to the stream.
    fn encode(&self, e: &mut Encoder);
    /// Read a value of this type from the stream.
    fn decode(d: &mut Decoder) -> Result<Self, CdrError>;
    /// The runtime type description of this type.
    fn type_code() -> TypeCode;

    /// Append `items` back-to-back with no count prefix. Sequence encoding
    /// funnels through this hook so primitive element types can override the
    /// per-element loop with a bulk copy; overrides must stay byte-identical
    /// to the default.
    fn encode_elems(items: &[Self], e: &mut Encoder) {
        for item in items {
            item.encode(e);
        }
    }

    /// Append the blocks of `block` items that start every `stride` items
    /// of `items` (the last block ends where `items` ends), back to back —
    /// [`CdrCodec::encode_elems`] of each block in turn, in one call.
    /// Overrides must stay byte-identical to the default.
    ///
    /// The caller keeps `0 < block <= stride`, and `items` empty or ending
    /// at a block end; a short last block panics.
    fn encode_strided(items: &[Self], block: usize, stride: usize, e: &mut Encoder) {
        for blk in items.chunks(stride) {
            Self::encode_elems(&blk[..block], e);
        }
    }

    /// `items` as the bytes [`CdrCodec::encode_elems`] appends for them in
    /// native byte order at a position aligned to the element size, when
    /// those bytes are the slice's own memory: `Some` for `f64` and the
    /// fixed-width integers, whose memory image is their native CDR
    /// encoding, `None` (the default) for everything else. A sender may then hand the
    /// storage itself to the transport instead of encoding a copy of it.
    fn native_image(_items: &[Self]) -> Option<&[u8]> {
        None
    }

    /// The inverse of [`CdrCodec::native_image`]: `bytes`, the native-order
    /// encoding of some elements from an aligned position, as those
    /// elements, borrowed in place. `Some` exactly for the types with a
    /// native image, and only when `bytes` is aligned for `Self` in memory
    /// and holds a whole number of elements; `None` (the default) for
    /// everything else. A receiver may then keep the payload itself as the
    /// elements instead of decoding a copy of it.
    fn native_view(_bytes: &[u8]) -> Option<&[Self]> {
        None
    }

    /// Read `n` elements back-to-back (count already consumed) — the decode
    /// half of the [`CdrCodec::encode_elems`] bulk hook.
    fn decode_elems(d: &mut Decoder, n: usize) -> Result<Vec<Self>, CdrError> {
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(Self::decode(d)?);
        }
        Ok(out)
    }

    /// Read elements back-to-back into the unstored slots of `out` until it is
    /// full — [`CdrCodec::decode_elems`] without the vector, for a caller
    /// that already owns the destination. On an error the elements decoded
    /// before it stay in the sink ([`ElemSink::filled`] says how many).
    fn decode_elems_into(d: &mut Decoder, out: &mut ElemSink<'_, Self>) -> Result<(), CdrError> {
        while out.remaining() > 0 {
            out.push(Self::decode(d)?);
        }
        Ok(())
    }

    /// Encoded size of one element when every element occupies the same
    /// number of bytes at any stream position — `Some(size)` for the fixed
    /// primitives (CDR aligns a primitive to its natural size, so a
    /// homogeneous array encoded from stream offset 0 places element `i` at
    /// exactly `i * size` with no padding), `None` for everything
    /// variable-length or padded (strings, structs, nested sequences).
    ///
    /// `Some` licenses byte-range arithmetic on an encoded array: a consumer
    /// may fetch elements `a..b` as the byte span `a*size..b*size` — the
    /// contract the one-sided pull redistribution relies on.
    fn fixed_wire_size() -> Option<usize> {
        None
    }
}

/// Encode a single value into a fresh native-endian buffer.
pub fn to_bytes<T: CdrCodec>(value: &T) -> Bytes {
    let mut e = Encoder::new(ByteOrder::native());
    value.encode(&mut e);
    e.finish()
}

/// Decode a single value from a buffer produced by [`to_bytes`].
pub fn from_bytes<T: CdrCodec>(bytes: &Bytes) -> Result<T, CdrError> {
    let mut d = Decoder::new(bytes.clone(), ByteOrder::native());
    T::decode(&mut d)
}

/// Decode a single value from a plain byte slice (native order).
pub fn decode_slice<T: CdrCodec>(data: &[u8]) -> Result<T, CdrError> {
    let mut d = Decoder::new(Bytes::copy_from_slice(data), ByteOrder::native());
    T::decode(&mut d)
}

#[cfg(test)]
mod tests;
