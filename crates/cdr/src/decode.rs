//! The CDR decoder.

use crate::{ByteOrder, CdrError};
use bytes::Bytes;
use std::marker::PhantomData;
use std::mem::MaybeUninit;

/// Largest single allocation a decoder will make for one length field.
/// Corrupt or hostile streams cannot force absurd allocations.
const MAX_ALLOC: u64 = 1 << 32;

/// Uninitialised element slots being filled front to back: the destination
/// [`crate::CdrCodec::decode_elems_into`] decodes into. The sink, not the
/// codec, counts what has been initialised, so a caller may rely on
/// [`ElemSink::filled`] for memory safety whatever a codec does.
pub struct ElemSink<'a, T> {
    slots: &'a mut [MaybeUninit<T>],
    /// `slots[..filled]` are initialised.
    filled: usize,
    /// Makes the type invariant in `'a`, so that a codec holding
    /// `&mut ElemSink<'a, T>` cannot assign a sink over some longer-lived
    /// buffer of its own — and that sink's count — in place of this one.
    _invariant: PhantomData<fn(&'a ()) -> &'a ()>,
}

impl<'a, T> ElemSink<'a, T> {
    /// A sink over `slots`, none of which is taken to hold a value.
    pub fn new(slots: &'a mut [MaybeUninit<T>]) -> Self {
        ElemSink { slots, filled: 0, _invariant: PhantomData }
    }

    /// Leading slots initialised so far.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Slots still empty.
    pub fn remaining(&self) -> usize {
        self.slots.len() - self.filled
    }

    /// Store `v` in the next empty slot.
    ///
    /// # Panics
    /// Panics if every slot is already filled.
    pub fn push(&mut self, v: T) {
        self.slots[self.filled].write(v);
        self.filled += 1;
    }
}

/// Copy `dst.len()` doubles out of `raw` (exactly `8 * dst.len()` bytes in
/// `order`, possibly unaligned): one `memcpy` in native order, a
/// byte-swapping loop otherwise. Every slot of `dst` is initialised on
/// return.
fn fill_f64(order: ByteOrder, raw: &[u8], dst: &mut [MaybeUninit<f64>]) {
    assert_eq!(raw.len(), dst.len() * 8, "one double per slot");
    if order == ByteOrder::native() {
        // SAFETY: source and destination are both exactly `raw.len()` bytes
        // (asserted above) and cannot overlap (`dst` is a unique borrow),
        // every bit pattern is a valid f64, and the byte-wise copy
        // tolerates an unaligned source.
        unsafe {
            std::ptr::copy_nonoverlapping(raw.as_ptr(), dst.as_mut_ptr().cast::<u8>(), raw.len());
        }
        return;
    }
    for (slot, chunk) in dst.iter_mut().zip(raw.chunks_exact(8)) {
        let bytes: [u8; 8] = chunk.try_into().expect("chunks_exact(8)");
        slot.write(f64::from_bits(match order {
            ByteOrder::Big => u64::from_be_bytes(bytes),
            ByteOrder::Little => u64::from_le_bytes(bytes),
        }));
    }
}

/// A cursor over a CDR stream, recomputing the encoder's alignment padding.
#[derive(Debug, Clone)]
pub struct Decoder {
    buf: Bytes,
    pos: usize,
    order: ByteOrder,
}

macro_rules! read_prim {
    ($name:ident, $ty:ty, $size:expr) => {
        /// Read an aligned primitive.
        pub fn $name(&mut self) -> Result<$ty, CdrError> {
            self.align($size);
            let raw = self.take($size)?;
            let arr: [u8; $size] = raw.try_into().expect("take returned wrong length");
            Ok(match self.order {
                ByteOrder::Big => <$ty>::from_be_bytes(arr),
                ByteOrder::Little => <$ty>::from_le_bytes(arr),
            })
        }
    };
}

impl Decoder {
    /// Decode `buf` assuming the given byte order.
    pub fn new(buf: Bytes, order: ByteOrder) -> Self {
        Decoder { buf, pos: 0, order }
    }

    /// The stream's byte order.
    pub fn order(&self) -> ByteOrder {
        self.order
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor position from the start of the stream.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Skip padding so the next read lands on an `n`-byte boundary.
    pub fn align(&mut self, n: usize) {
        debug_assert!(n.is_power_of_two() && n <= 8);
        let misalign = self.pos & (n - 1);
        if misalign != 0 {
            self.pos = (self.pos + n - misalign).min(self.buf.len());
        }
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CdrError> {
        if self.remaining() < n {
            return Err(CdrError::Truncated { needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a raw octet.
    pub fn read_u8(&mut self) -> Result<u8, CdrError> {
        Ok(self.take(1)?[0])
    }

    /// Read a raw signed octet.
    pub fn read_i8(&mut self) -> Result<i8, CdrError> {
        Ok(self.read_u8()? as i8)
    }

    /// Read a boolean octet, rejecting anything but 0/1.
    pub fn read_bool(&mut self) -> Result<bool, CdrError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CdrError::InvalidBool(other)),
        }
    }

    read_prim!(read_u16, u16, 2);
    read_prim!(read_i16, i16, 2);
    read_prim!(read_u32, u32, 4);
    read_prim!(read_i32, i32, 4);
    read_prim!(read_u64, u64, 8);
    read_prim!(read_i64, i64, 8);

    /// Read an aligned IEEE-754 single.
    pub fn read_f32(&mut self) -> Result<f32, CdrError> {
        Ok(f32::from_bits(self.read_u32()?))
    }

    /// Read an aligned IEEE-754 double.
    pub fn read_f64(&mut self) -> Result<f64, CdrError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Read a Unicode scalar written by [`crate::Encoder::write_char`].
    pub fn read_char(&mut self) -> Result<char, CdrError> {
        let raw = self.read_u32()?;
        char::from_u32(raw).ok_or(CdrError::InvalidChar(raw))
    }

    /// Read a CORBA string (length including NUL, bytes, NUL).
    pub fn read_string(&mut self) -> Result<String, CdrError> {
        let len = self.read_u32()? as u64;
        if len == 0 {
            return Err(CdrError::MissingNul);
        }
        if len > MAX_ALLOC {
            return Err(CdrError::ImplementationLimit(len));
        }
        let raw = self.take(len as usize)?;
        let (body, nul) = raw.split_at(raw.len() - 1);
        if nul != [0] {
            return Err(CdrError::MissingNul);
        }
        String::from_utf8(body.to_vec()).map_err(|_| CdrError::InvalidUtf8)
    }

    /// Read `n` raw bytes verbatim.
    pub fn read_raw(&mut self, n: usize) -> Result<Vec<u8>, CdrError> {
        Ok(self.take(n)?.to_vec())
    }

    /// Read `n` raw bytes as a zero-copy slice of the underlying buffer
    /// (a refcount bump, no allocation).
    pub fn read_bytes(&mut self, n: usize) -> Result<Bytes, CdrError> {
        if self.remaining() < n {
            return Err(CdrError::Truncated { needed: n, remaining: self.remaining() });
        }
        let s = self.buf.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(s)
    }

    /// Read a byte sequence written by [`crate::Encoder::write_byte_seq`].
    pub fn read_byte_seq(&mut self) -> Result<Vec<u8>, CdrError> {
        let n = self.read_u32()? as u64;
        if n > MAX_ALLOC {
            return Err(CdrError::ImplementationLimit(n));
        }
        self.read_raw(n as usize)
    }

    /// Zero-copy variant of [`Decoder::read_byte_seq`]: the payload is a
    /// slice of the decoder's buffer, so bulk blobs survive the frame decode
    /// without being copied.
    pub fn read_byte_seq_bytes(&mut self) -> Result<Bytes, CdrError> {
        let n = self.read_u32()? as u64;
        if n > MAX_ALLOC {
            return Err(CdrError::ImplementationLimit(n));
        }
        self.read_bytes(n as usize)
    }

    /// Read an element count for a sequence, enforcing the allocation limit
    /// and (if given) the IDL bound.
    pub fn read_seq_len(&mut self, bound: Option<u32>) -> Result<usize, CdrError> {
        let n = self.read_u32()?;
        if let Some(b) = bound {
            if n > b {
                return Err(CdrError::BoundExceeded { bound: b, got: n });
            }
        }
        if n as u64 > MAX_ALLOC {
            return Err(CdrError::ImplementationLimit(n as u64));
        }
        Ok(n as usize)
    }

    /// Bulk-read an `f64` slice written by
    /// [`crate::Encoder::write_f64_slice`]: one `memcpy` in native order
    /// (the wire source may be unaligned; the destination `Vec<f64>` is
    /// aligned by construction), per-element byte swap otherwise.
    pub fn read_f64_vec(&mut self) -> Result<Vec<f64>, CdrError> {
        let n = self.read_seq_len(None)?;
        self.read_f64_elems(n)
    }

    /// The element part of [`Decoder::read_f64_vec`] (count already read) —
    /// equivalent to decoding `n` elements with [`Decoder::read_f64`].
    pub fn read_f64_elems(&mut self, n: usize) -> Result<Vec<f64>, CdrError> {
        // Mirror of the encoder: an empty sequence carries no alignment
        // padding after the count.
        if n == 0 {
            return Ok(Vec::new());
        }
        self.align(8);
        let order = self.order;
        // `n` is trusted for the allocation only once the stream has been
        // seen to hold that many doubles.
        let raw = self.take(n.saturating_mul(8))?;
        let mut out: Vec<f64> = Vec::with_capacity(n);
        fill_f64(order, raw, &mut out.spare_capacity_mut()[..n]);
        // SAFETY: `fill_f64` initialised the first `n` slots of the spare
        // capacity, which is at least `n`.
        unsafe { out.set_len(n) };
        Ok(out)
    }

    /// [`Decoder::read_f64_elems`] straight into the empty slots of `sink`
    /// (as many doubles as it has room for), with no vector in between.
    pub fn read_f64_into(&mut self, sink: &mut ElemSink<'_, f64>) -> Result<(), CdrError> {
        let n = sink.remaining();
        if n == 0 {
            return Ok(());
        }
        self.align(8);
        let order = self.order;
        let raw = self.take(n.saturating_mul(8))?;
        fill_f64(order, raw, &mut sink.slots[sink.filled..]);
        sink.filled += n;
        Ok(())
    }
}
