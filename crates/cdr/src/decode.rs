//! The CDR decoder.

use crate::{ByteOrder, CdrError};
use bytes::Bytes;
use std::marker::PhantomData;

/// Largest single allocation a decoder will make for one length field.
/// Corrupt or hostile streams cannot force absurd allocations.
const MAX_ALLOC: u64 = 1 << 32;

/// Element slots being overwritten front to back: the destination
/// [`crate::CdrCodec::decode_elems_into`] decodes into. The slots are laid
/// out in blocks of `block` consecutive slots, `stride` apart; a contiguous
/// sink is one block. Every slot already holds a value, which a store
/// replaces (and drops). The sink, not the codec, counts the stores, so a
/// caller may rely on [`ElemSink::filled`] whatever a codec does: the first
/// `filled` slots *in layout order* took new values, and no other slot was
/// written.
pub struct ElemSink<'a, T> {
    slots: &'a mut [T],
    block: usize,
    stride: usize,
    /// Slots in the layout.
    total: usize,
    /// The first `filled` slots in layout order took new values.
    filled: usize,
    /// Index in `slots` of the next unstored slot, and the end of its block.
    at: usize,
    block_end: usize,
    /// Makes the type invariant in `'a`, so that a codec holding
    /// `&mut ElemSink<'a, T>` cannot assign a sink over some longer-lived
    /// buffer of its own — and that sink's count — in place of this one.
    _invariant: PhantomData<fn(&'a ()) -> &'a ()>,
}

impl<'a, T> ElemSink<'a, T> {
    /// A sink over all of `slots`.
    pub fn new(slots: &'a mut [T]) -> Self {
        let n = slots.len();
        ElemSink::strided(slots, n.max(1), n.max(1))
    }

    /// A sink over the blocks of `block` slots that start every `stride`
    /// slots of `slots`, the last block ending where `slots` ends.
    ///
    /// # Panics
    /// Panics unless `0 < block <= stride` and `slots` is empty or ends at a
    /// block end.
    pub fn strided(slots: &'a mut [T], block: usize, stride: usize) -> Self {
        let total = layout_total(slots.len(), block, stride);
        ElemSink {
            slots,
            block,
            stride,
            total,
            filled: 0,
            at: 0,
            block_end: block,
            _invariant: PhantomData,
        }
    }

    /// Slots stored so far, counted in layout order.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Slots not yet stored.
    pub fn remaining(&self) -> usize {
        self.total - self.filled
    }

    /// Store `v` in the next unstored slot.
    ///
    /// # Panics
    /// Panics if every slot is already filled.
    pub fn push(&mut self, v: T) {
        assert!(self.filled < self.total, "every slot of the sink is filled");
        if self.at == self.block_end {
            // The current block is full and another one follows.
            self.at += self.stride - self.block;
            self.block_end = self.at + self.block;
        }
        self.slots[self.at] = v;
        self.at += 1;
        self.filled += 1;
    }

    /// Store clones of the elements of `src`, laid out in blocks of `block`
    /// every `stride` (the last block ending where `src` ends), in every
    /// unstored slot, in layout order: one pass over both layouts.
    ///
    /// # Panics
    /// Panics unless `0 < block <= stride`, `src` is empty or ends at a
    /// block end, and its layout holds exactly [`ElemSink::remaining`]
    /// elements. Nothing is stored then.
    pub fn fill_strided(&mut self, src: &[T], block: usize, stride: usize)
    where
        T: Clone,
    {
        let given = layout_total(src.len(), block, stride);
        assert_eq!(given, self.remaining(), "{given} elements for {} slots", self.remaining());
        self.fill_from(src.chunks(stride).flat_map(|blk| blk[..block].iter().cloned()));
    }

    /// Store the next of `values` in every unstored slot, in layout order:
    /// the rest of the current block, then each later block, in one tight
    /// loop.
    ///
    /// # Panics
    /// Panics if `values` runs out first. The count then stays where it
    /// was.
    fn fill_from(&mut self, mut values: impl Iterator<Item = T>) {
        let len = self.slots.len();
        let (mut lo, mut hi) = (self.at, self.block_end);
        while hi <= len {
            for slot in &mut self.slots[lo..hi] {
                *slot = values.next().expect("a value for every empty slot");
            }
            lo = hi.saturating_add(self.stride - self.block);
            hi = lo.saturating_add(self.block);
        }
        (self.filled, self.at, self.block_end) = (self.total, len, len);
    }
}

/// Elements in a layout of `len` slots with blocks of `block` every
/// `stride`, the last block ending at `len`.
///
/// # Panics
/// Panics unless `0 < block <= stride` and `len` is zero or a block end.
fn layout_total(len: usize, block: usize, stride: usize) -> usize {
    assert!(0 < block && block <= stride, "blocks of {block} slots every {stride}");
    let blocks = match len.checked_sub(block) {
        None if len == 0 => 0,
        Some(past) if past % stride == 0 => past / stride + 1,
        _ => panic!("{len} slots do not end at a block of {block} every {stride}"),
    };
    blocks * block
}

/// The doubles in `raw`, eight bytes each as `from` reads them, possibly
/// unaligned. In native order each is one plain load: no `memcpy` call per
/// run, so a run of one costs what an element costs.
fn doubles<'a>(
    raw: &'a [u8],
    from: impl Fn([u8; 8]) -> f64 + 'a,
) -> impl Iterator<Item = f64> + 'a {
    raw.chunks_exact(8).map(move |chunk| from(chunk.try_into().expect("chunks_exact(8)")))
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
    /// [`crate::Encoder::write_f64_slice`]: one tight copy loop into a
    /// vector reserved once (the wire source may be unaligned; the
    /// destination `Vec<f64>` is aligned by construction), with a byte swap
    /// per element in foreign order.
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
        Ok(match order {
            ByteOrder::Big => doubles(raw, f64::from_be_bytes).collect(),
            ByteOrder::Little => doubles(raw, f64::from_le_bytes).collect(),
        })
    }

    /// [`Decoder::read_f64_elems`] straight into the unstored slots of `sink`
    /// (as many doubles as it has room for), with no vector in between: all
    /// or nothing, in one pass over a strided sink's blocks.
    pub fn read_f64_into(&mut self, sink: &mut ElemSink<'_, f64>) -> Result<(), CdrError> {
        let n = sink.remaining();
        if n == 0 {
            return Ok(());
        }
        self.align(8);
        let order = self.order;
        let raw = self.take(n.saturating_mul(8))?;
        match order {
            ByteOrder::Big => sink.fill_from(doubles(raw, f64::from_be_bytes)),
            ByteOrder::Little => sink.fill_from(doubles(raw, f64::from_le_bytes)),
        }
        Ok(())
    }
}
