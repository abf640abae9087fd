//! The CDR encoder.

use crate::ByteOrder;
use bytes::Bytes;

/// An append-only CDR stream.
///
/// Primitives are aligned to their natural size measured from the beginning
/// of the stream, exactly as CORBA CDR requires, so a decoder can recompute
/// the same padding without any in-band markers.
#[derive(Debug)]
pub struct Encoder {
    buf: Vec<u8>,
    order: ByteOrder,
    /// Buffer offset alignment is measured from: 0, except while
    /// [`Encoder::write_byte_seq_with`] encodes a nested stream in place.
    origin: usize,
}

macro_rules! write_prim {
    ($name:ident, $ty:ty, $size:expr) => {
        /// Append an aligned primitive.
        pub fn $name(&mut self, v: $ty) {
            self.align($size);
            match self.order {
                ByteOrder::Big => self.buf.extend_from_slice(&v.to_be_bytes()),
                ByteOrder::Little => self.buf.extend_from_slice(&v.to_le_bytes()),
            }
        }
    };
}

impl Encoder {
    /// A fresh stream in the given byte order.
    pub fn new(order: ByteOrder) -> Self {
        Encoder::with_capacity(order, 64)
    }

    /// A fresh stream with preallocated capacity (use when the encoded size
    /// is roughly known; bulk sequence marshaling benefits measurably).
    pub fn with_capacity(order: ByteOrder, cap: usize) -> Self {
        Encoder { buf: Vec::with_capacity(cap), order, origin: 0 }
    }

    /// The stream's byte order.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Bytes written so far (including padding).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Insert padding so the next write lands on an `n`-byte boundary.
    pub fn align(&mut self, n: usize) {
        debug_assert!(n.is_power_of_two() && n <= 8);
        let misalign = (self.buf.len() - self.origin) & (n - 1);
        if misalign != 0 {
            for _ in 0..(n - misalign) {
                self.buf.push(0);
            }
        }
    }

    /// Append a raw octet (no alignment needed).
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a raw signed octet.
    pub fn write_i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    /// Append a boolean as an octet (1/0).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    write_prim!(write_u16, u16, 2);
    write_prim!(write_i16, i16, 2);
    write_prim!(write_u32, u32, 4);
    write_prim!(write_i32, i32, 4);
    write_prim!(write_u64, u64, 8);
    write_prim!(write_i64, i64, 8);

    /// Append an aligned IEEE-754 single.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Append an aligned IEEE-754 double.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Append a Unicode scalar as a ULong (PARDIS maps IDL `char` to a full
    /// scalar rather than a single octet; see DESIGN.md).
    pub fn write_char(&mut self, v: char) {
        self.write_u32(v as u32);
    }

    /// Append a CORBA string: ULong length *including* the terminating NUL,
    /// then the bytes, then NUL.
    pub fn write_string(&mut self, s: &str) {
        self.write_u32(s.len() as u32 + 1);
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(0);
    }

    /// Append raw bytes verbatim (caller controls framing and alignment).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a byte sequence: ULong count then the octets.
    pub fn write_byte_seq(&mut self, bytes: &[u8]) {
        self.write_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Append a byte sequence whose octets are themselves a CDR stream,
    /// encoded in place by `fill` (which must only append): the ULong count
    /// is reserved, `fill` runs with alignment measured from the first
    /// octet of the sequence, then the count is patched. The bytes equal
    /// [`Encoder::write_byte_seq`] of what `fill` would have produced in a
    /// fresh encoder of the same byte order — which is how a receiver that
    /// decodes the sequence from offset 0 reads it — without staging the
    /// nested stream in a buffer of its own.
    pub fn write_byte_seq_with(&mut self, fill: impl FnOnce(&mut Encoder)) {
        self.write_u32(0);
        let start = self.buf.len();
        let outer = std::mem::replace(&mut self.origin, start);
        fill(self);
        self.origin = outer;
        let count = (self.buf.len() - start) as u32;
        let word = match self.order {
            ByteOrder::Big => count.to_be_bytes(),
            ByteOrder::Little => count.to_le_bytes(),
        };
        self.buf[start - 4..start].copy_from_slice(&word);
    }

    /// Bulk-append a `f64` slice: ULong count then aligned doubles. This is
    /// the hot path for distributed-sequence fragments: in native order the
    /// payload is one `memcpy`; only the foreign order pays the per-element
    /// byte swap.
    pub fn write_f64_slice(&mut self, values: &[f64]) {
        self.write_u32(values.len() as u32);
        self.write_f64_elems(values);
    }

    /// The element part of [`Encoder::write_f64_slice`] (no count prefix) —
    /// byte-for-byte identical to encoding each element with
    /// [`Encoder::write_f64`].
    pub fn write_f64_elems(&mut self, values: &[f64]) {
        // Zero elements append zero bytes: per-element encoding never
        // aligns, so the bulk path must not either.
        if values.is_empty() {
            return;
        }
        self.align(8);
        if self.order == ByteOrder::native() {
            // SAFETY: f64 has no padding and size_of::<f64>() == 8, so the
            // value slice is readable as exactly `len * 8` initialized bytes.
            let raw = unsafe {
                std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 8)
            };
            self.buf.extend_from_slice(raw);
        } else {
            self.buf.reserve(values.len() * 8);
            match self.order {
                ByteOrder::Big => {
                    for v in values {
                        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
                    }
                }
                ByteOrder::Little => {
                    for v in values {
                        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }

    /// Finish the stream and take the buffer.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }
}
