//! The CDR encoder.

use crate::ByteOrder;
use bytes::Bytes;

/// `n` as the ULong length word CDR carries it in.
///
/// # Panics
/// Panics if `n` does not fit in 32 bits: a wrapped count over correct
/// bytes would make the receiver misread everything after it.
pub(crate) fn ulong_len(n: usize) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("CDR length {n} does not fit in a ULong"))
}

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
    ///
    /// # Panics
    /// Panics if the length with its NUL does not fit in a ULong.
    pub fn write_string(&mut self, s: &str) {
        // A `str` is at most `isize::MAX` bytes, so counting the NUL in
        // `usize` cannot overflow; `ulong_len` refuses what exceeds a ULong.
        self.write_u32(ulong_len(s.len() + 1));
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(0);
    }

    /// Append raw bytes verbatim (caller controls framing and alignment).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a byte sequence: ULong count then the octets.
    ///
    /// # Panics
    /// Panics if the count does not fit in a ULong.
    pub fn write_byte_seq(&mut self, bytes: &[u8]) {
        self.write_u32(ulong_len(bytes.len()));
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
    ///
    /// `tail` more octets of the sequence travel outside this stream, right
    /// after it: the count includes them. With a tail, this is the last
    /// write to the stream (and to every stream it is nested in).
    ///
    /// # Panics
    /// Panics if the nested stream's length does not fit in a ULong.
    pub fn write_byte_seq_with(&mut self, tail: usize, fill: impl FnOnce(&mut Encoder)) {
        self.write_u32(0);
        let start = self.buf.len();
        let outer = std::mem::replace(&mut self.origin, start);
        fill(self);
        self.origin = outer;
        let count = ulong_len(self.buf.len() - start + tail);
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
    ///
    /// # Panics
    /// Panics if the count does not fit in a ULong.
    pub fn write_f64_slice(&mut self, values: &[f64]) {
        self.write_u32(ulong_len(values.len()));
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

    /// The blocks of `block` doubles that start every `stride` doubles of
    /// `values`, back to back — byte-for-byte [`Encoder::write_f64_elems`]
    /// of each block in turn. Aligns and grows the buffer once, then stores
    /// each double in one tight loop over the blocks: no `memcpy` call per
    /// block, so a block of one costs what an element costs.
    ///
    /// # Panics
    /// Panics unless `0 < block <= stride`; `values` must be empty or end at
    /// a block end, and a short last block panics.
    pub fn write_f64_strided(&mut self, values: &[f64], block: usize, stride: usize) {
        assert!(0 < block && block <= stride, "blocks of {block} doubles every {stride}");
        if values.is_empty() {
            return;
        }
        self.align(8);
        let start = self.buf.len();
        self.buf.resize(start + values.chunks(stride).len() * block * 8, 0);
        let out = &mut self.buf[start..];
        match self.order {
            ByteOrder::Big => scatter_f64(out, values, block, stride, f64::to_be_bytes),
            ByteOrder::Little => scatter_f64(out, values, block, stride, f64::to_le_bytes),
        }
    }

    /// Finish the stream and take the buffer.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finish the stream and take the buffer as the vector it was written
    /// into, for a consumer that wants to own it.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Store the doubles of `values`' blocks (of `block`, every `stride`) one
/// after another into `out`, eight bytes each as `bytes` lays them out.
fn scatter_f64(
    out: &mut [u8],
    values: &[f64],
    block: usize,
    stride: usize,
    bytes: impl Fn(f64) -> [u8; 8],
) {
    let mut words = out.chunks_exact_mut(8);
    for blk in values.chunks(stride) {
        // The block leads the zip: it runs out first, before a word is
        // taken that it has no double for.
        for (v, word) in blk[..block].iter().zip(words.by_ref()) {
            word.copy_from_slice(&bytes(*v));
        }
    }
}
