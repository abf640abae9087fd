//! [`CdrCodec`] implementations for the IDL primitive mappings and the
//! standard constructed types.

use crate::encode::ulong_len;
use crate::{CdrCodec, CdrError, Decoder, ElemSink, Encoder, TypeCode};

/// The memory of `items`, byte for byte.
///
/// Only for the fixed-width numbers: no padding, every byte initialised.
fn memory_image<T: Copy>(items: &[T]) -> &[u8] {
    // SAFETY: `T` is a primitive number (every caller below), so the slice
    // is `size_of_val(items)` initialised bytes with no padding, borrowed
    // for as long as `items` is.
    unsafe { std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), std::mem::size_of_val(items)) }
}

/// The numbers whose memory `bytes` is — the inverse of [`memory_image`]:
/// `None` unless `bytes` is aligned for `T` and holds a whole number of them.
///
/// Only for the fixed-width numbers: every bit pattern is a value.
fn memory_view<T: Copy>(bytes: &[u8]) -> Option<&[T]> {
    let size = std::mem::size_of::<T>();
    if bytes.as_ptr().align_offset(std::mem::align_of::<T>()) != 0
        || !bytes.len().is_multiple_of(size)
    {
        return None;
    }
    // SAFETY: `T` is a primitive number (every caller below), so any
    // `size_of::<T>()` initialised bytes are one valid value; the pointer is
    // aligned for `T` and the slice covers exactly the borrowed bytes, for
    // as long as they are borrowed.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) })
}

macro_rules! prim_codec {
    ($ty:ty, $tc:expr, $write:ident, $read:ident, $wire:expr, native) => {
        prim_codec!($ty, $tc, $write, $read, $wire, {
            fn native_image(items: &[Self]) -> Option<&[u8]> {
                Some(memory_image(items))
            }
            fn native_view(bytes: &[u8]) -> Option<&[Self]> {
                memory_view(bytes)
            }
        });
    };
    ($ty:ty, $tc:expr, $write:ident, $read:ident, $wire:expr) => {
        prim_codec!($ty, $tc, $write, $read, $wire, {});
    };
    ($ty:ty, $tc:expr, $write:ident, $read:ident, $wire:expr, { $($extra:item)* }) => {
        impl CdrCodec for $ty {
            fn encode(&self, e: &mut Encoder) {
                e.$write(*self);
            }
            fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
                d.$read()
            }
            fn type_code() -> TypeCode {
                $tc
            }
            fn fixed_wire_size() -> Option<usize> {
                Some($wire)
            }
            $($extra)*
        }
    };
}

prim_codec!(bool, TypeCode::Boolean, write_bool, read_bool, 1);

impl CdrCodec for u8 {
    fn encode(&self, e: &mut Encoder) {
        e.write_u8(*self);
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        d.read_u8()
    }
    fn type_code() -> TypeCode {
        TypeCode::Octet
    }
    fn encode_elems(items: &[Self], e: &mut Encoder) {
        e.write_raw(items);
    }
    fn native_image(items: &[Self]) -> Option<&[u8]> {
        Some(items)
    }
    fn native_view(bytes: &[u8]) -> Option<&[Self]> {
        Some(bytes)
    }
    fn decode_elems(d: &mut Decoder, n: usize) -> Result<Vec<Self>, CdrError> {
        d.read_raw(n)
    }
    fn fixed_wire_size() -> Option<usize> {
        Some(1)
    }
}
prim_codec!(i16, TypeCode::Short, write_i16, read_i16, 2, native);
prim_codec!(u16, TypeCode::UShort, write_u16, read_u16, 2, native);
prim_codec!(i32, TypeCode::Long, write_i32, read_i32, 4, native);
prim_codec!(u32, TypeCode::ULong, write_u32, read_u32, 4, native);
prim_codec!(i64, TypeCode::LongLong, write_i64, read_i64, 8, native);
prim_codec!(u64, TypeCode::ULongLong, write_u64, read_u64, 8, native);
prim_codec!(f32, TypeCode::Float, write_f32, read_f32, 4);
// An IDL char marshals as a code point in a 4-byte slot (see
// `Encoder::write_char`), so its wire footprint is that of a u32.
prim_codec!(char, TypeCode::Char, write_char, read_char, 4);

impl CdrCodec for f64 {
    fn encode(&self, e: &mut Encoder) {
        e.write_f64(*self);
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        d.read_f64()
    }
    fn type_code() -> TypeCode {
        TypeCode::Double
    }
    fn encode_elems(items: &[Self], e: &mut Encoder) {
        e.write_f64_elems(items);
    }
    fn encode_strided(items: &[Self], block: usize, stride: usize, e: &mut Encoder) {
        e.write_f64_strided(items, block, stride);
    }
    fn native_image(items: &[Self]) -> Option<&[u8]> {
        Some(memory_image(items))
    }
    fn native_view(bytes: &[u8]) -> Option<&[Self]> {
        memory_view(bytes)
    }
    fn decode_elems(d: &mut Decoder, n: usize) -> Result<Vec<Self>, CdrError> {
        d.read_f64_elems(n)
    }
    fn decode_elems_into(d: &mut Decoder, out: &mut ElemSink<'_, Self>) -> Result<(), CdrError> {
        d.read_f64_into(out)
    }
    fn fixed_wire_size() -> Option<usize> {
        Some(8)
    }
}

impl CdrCodec for String {
    fn encode(&self, e: &mut Encoder) {
        e.write_string(self);
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        d.read_string()
    }
    fn type_code() -> TypeCode {
        TypeCode::String
    }
}

impl CdrCodec for () {
    fn encode(&self, _e: &mut Encoder) {}
    fn decode(_d: &mut Decoder) -> Result<Self, CdrError> {
        Ok(())
    }
    fn type_code() -> TypeCode {
        TypeCode::Void
    }
}

impl<T: CdrCodec> CdrCodec for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.write_u32(ulong_len(self.len()));
        T::encode_elems(self, e);
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        let n = d.read_seq_len(None)?;
        T::decode_elems(d, n)
    }
    fn type_code() -> TypeCode {
        TypeCode::sequence(T::type_code())
    }
}

impl<T: CdrCodec, const N: usize> CdrCodec for [T; N] {
    fn encode(&self, e: &mut Encoder) {
        for item in self {
            item.encode(e);
        }
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(d)?);
        }
        out.try_into().map_err(|_| unreachable!("length is exactly N"))
    }
    fn type_code() -> TypeCode {
        TypeCode::bounded_sequence(T::type_code(), N as u32)
    }
}

impl<A: CdrCodec, B: CdrCodec> CdrCodec for (A, B) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
    fn type_code() -> TypeCode {
        TypeCode::Struct {
            name: "pair".to_string(),
            fields: std::sync::Arc::new(vec![
                ("first".to_string(), A::type_code()),
                ("second".to_string(), B::type_code()),
            ]),
        }
    }
}

impl<A: CdrCodec, B: CdrCodec, C: CdrCodec> CdrCodec for (A, B, C) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
        self.2.encode(e);
    }
    fn decode(d: &mut Decoder) -> Result<Self, CdrError> {
        Ok((A::decode(d)?, B::decode(d)?, C::decode(d)?))
    }
    fn type_code() -> TypeCode {
        TypeCode::Struct {
            name: "triple".to_string(),
            fields: std::sync::Arc::new(vec![
                ("first".to_string(), A::type_code()),
                ("second".to_string(), B::type_code()),
                ("third".to_string(), C::type_code()),
            ]),
        }
    }
}

/// Implement [`CdrCodec`] for a struct with named fields. Used by hand-written
/// protocol types; the IDL compiler emits the expanded form directly.
///
/// ```
/// use pardis_cdr::{impl_cdr_struct, CdrCodec};
///
/// #[derive(Debug, PartialEq, Clone)]
/// struct Point { x: f64, y: f64 }
/// impl_cdr_struct!(Point { x: f64, y: f64 });
///
/// let p = Point { x: 1.0, y: -2.0 };
/// let bytes = pardis_cdr::to_bytes(&p);
/// assert_eq!(pardis_cdr::from_bytes::<Point>(&bytes).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_cdr_struct {
    ($name:ident { $($field:ident : $fty:ty),+ $(,)? }) => {
        impl $crate::CdrCodec for $name {
            fn encode(&self, e: &mut $crate::Encoder) {
                $( $crate::CdrCodec::encode(&self.$field, e); )+
            }
            fn decode(d: &mut $crate::Decoder) -> Result<Self, $crate::CdrError> {
                Ok($name {
                    $( $field: <$fty as $crate::CdrCodec>::decode(d)?, )+
                })
            }
            fn type_code() -> $crate::TypeCode {
                $crate::TypeCode::Struct {
                    name: stringify!($name).to_string(),
                    fields: std::sync::Arc::new(vec![
                        $( (stringify!($field).to_string(), <$fty as $crate::CdrCodec>::type_code()), )+
                    ]),
                }
            }
        }
    };
}
