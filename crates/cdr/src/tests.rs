use crate::*;
use bytes::Bytes;

fn roundtrip<T: CdrCodec + PartialEq + std::fmt::Debug>(v: T) {
    let bytes = to_bytes(&v);
    let back: T = from_bytes(&bytes).expect("decode");
    assert_eq!(back, v);
}

#[test]
fn primitives_roundtrip() {
    roundtrip(true);
    roundtrip(false);
    roundtrip(0xabu8);
    roundtrip(-1234i16);
    roundtrip(65535u16);
    roundtrip(-7i32);
    roundtrip(0xdead_beefu32);
    roundtrip(i64::MIN);
    roundtrip(u64::MAX);
    roundtrip(std::f32::consts::PI);
    roundtrip(-std::f64::consts::E);
    roundtrip('λ');
    roundtrip(String::from("hello pardis"));
    roundtrip(String::new());
}

#[test]
fn nan_survives_roundtrip_bitwise() {
    let bytes = to_bytes(&f64::NAN);
    let back: f64 = from_bytes(&bytes).unwrap();
    assert!(back.is_nan());
}

#[test]
fn both_byte_orders_roundtrip() {
    for order in [ByteOrder::Big, ByteOrder::Little] {
        let mut e = Encoder::new(order);
        e.write_u32(0x0102_0304);
        e.write_f64(1.5);
        e.write_string("x");
        let b = e.finish();
        let mut d = Decoder::new(b, order);
        assert_eq!(d.read_u32().unwrap(), 0x0102_0304);
        assert_eq!(d.read_f64().unwrap(), 1.5);
        assert_eq!(d.read_string().unwrap(), "x");
    }
}

#[test]
fn big_endian_layout_is_network_order() {
    let mut e = Encoder::new(ByteOrder::Big);
    e.write_u32(0x0102_0304);
    assert_eq!(&e.finish()[..], &[1, 2, 3, 4]);
}

#[test]
fn alignment_is_relative_to_stream_start() {
    let mut e = Encoder::new(ByteOrder::Big);
    e.write_u8(0xff); // pos 1
    e.write_u32(7); // pads to 4, writes at 4..8
    let b = e.finish();
    assert_eq!(b.len(), 8);
    assert_eq!(&b[..4], &[0xff, 0, 0, 0]);
    let mut d = Decoder::new(b, ByteOrder::Big);
    assert_eq!(d.read_u8().unwrap(), 0xff);
    assert_eq!(d.read_u32().unwrap(), 7);
}

#[test]
fn eight_byte_alignment() {
    let mut e = Encoder::new(ByteOrder::Big);
    e.write_u8(1);
    e.write_f64(2.0); // pads to offset 8
    let b = e.finish();
    assert_eq!(b.len(), 16);
    let mut d = Decoder::new(b, ByteOrder::Big);
    d.read_u8().unwrap();
    assert_eq!(d.read_f64().unwrap(), 2.0);
}

#[test]
fn string_is_nul_terminated_with_inclusive_length() {
    let mut e = Encoder::new(ByteOrder::Big);
    e.write_string("ab");
    let b = e.finish();
    // ULong 3, then 'a' 'b' '\0'.
    assert_eq!(&b[..], &[0, 0, 0, 3, b'a', b'b', 0]);
}

#[test]
fn string_missing_nul_rejected() {
    let b = Bytes::from_static(&[0, 0, 0, 2, b'a', b'b']);
    let mut d = Decoder::new(b, ByteOrder::Big);
    assert_eq!(d.read_string(), Err(CdrError::MissingNul));
}

#[test]
fn string_zero_length_rejected() {
    let b = Bytes::from_static(&[0, 0, 0, 0]);
    let mut d = Decoder::new(b, ByteOrder::Big);
    assert_eq!(d.read_string(), Err(CdrError::MissingNul));
}

#[test]
fn invalid_utf8_rejected() {
    let b = Bytes::from_static(&[0, 0, 0, 2, 0xff, 0]);
    let mut d = Decoder::new(b, ByteOrder::Big);
    assert_eq!(d.read_string(), Err(CdrError::InvalidUtf8));
}

#[test]
fn truncated_primitive_reports_needs() {
    let b = Bytes::from_static(&[0, 0]);
    let mut d = Decoder::new(b, ByteOrder::Big);
    assert_eq!(d.read_u32(), Err(CdrError::Truncated { needed: 4, remaining: 2 }));
}

#[test]
fn invalid_bool_rejected() {
    let b = Bytes::from_static(&[2]);
    let mut d = Decoder::new(b, ByteOrder::Big);
    assert_eq!(d.read_bool(), Err(CdrError::InvalidBool(2)));
}

#[test]
fn invalid_char_rejected() {
    let mut e = Encoder::new(ByteOrder::Big);
    e.write_u32(0xD800); // surrogate
    let mut d = Decoder::new(e.finish(), ByteOrder::Big);
    assert_eq!(d.read_char(), Err(CdrError::InvalidChar(0xD800)));
}

#[test]
fn nested_dynamic_sequences_roundtrip() {
    // The paper's `matrix`: a distributed sequence whose elements are
    // themselves dynamically-sized rows.
    let matrix: Vec<Vec<f64>> = (0..17).map(|i| (0..i).map(|j| j as f64 * 0.5).collect()).collect();
    roundtrip(matrix);
}

#[test]
fn vec_of_strings_roundtrip() {
    roundtrip(vec!["GATTACA".to_string(), String::new(), "ACGT".repeat(100)]);
}

#[test]
fn fixed_array_roundtrip() {
    roundtrip([1.0f64, 2.0, 3.0]);
    roundtrip([0u8; 16]);
}

#[test]
fn tuples_roundtrip() {
    roundtrip((42u32, "x".to_string()));
    roundtrip((1u8, 2i64, vec![3.0f32]));
}

#[test]
fn f64_bulk_path_matches_element_path() {
    let values: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
    let mut bulk = Encoder::new(ByteOrder::Big);
    bulk.write_f64_slice(&values);
    let mut elementwise = Encoder::new(ByteOrder::Big);
    values.encode(&mut elementwise);
    assert_eq!(bulk.finish(), elementwise.finish());
}

#[test]
fn f64_bulk_decode_roundtrip_le() {
    let values: Vec<f64> = (0..257).map(|i| i as f64 / 7.0).collect();
    let mut e = Encoder::new(ByteOrder::Little);
    e.write_f64_slice(&values);
    let mut d = Decoder::new(e.finish(), ByteOrder::Little);
    assert_eq!(d.read_f64_vec().unwrap(), values);
}

#[test]
fn bounded_sequence_enforced_on_decode() {
    let mut e = Encoder::new(ByteOrder::Big);
    e.write_u32(5); // claims 5 elements
    let mut d = Decoder::new(e.finish(), ByteOrder::Big);
    assert_eq!(d.read_seq_len(Some(4)), Err(CdrError::BoundExceeded { bound: 4, got: 5 }));
}

#[test]
fn byte_seq_roundtrip() {
    let mut e = Encoder::new(ByteOrder::Big);
    e.write_byte_seq(b"payload");
    let mut d = Decoder::new(e.finish(), ByteOrder::Big);
    assert_eq!(d.read_byte_seq().unwrap(), b"payload");
}

#[test]
fn struct_macro_roundtrip_and_typecode() {
    #[derive(Debug, PartialEq, Clone)]
    struct Request {
        id: u64,
        op: String,
        sizes: Vec<u32>,
    }
    impl_cdr_struct!(Request { id: u64, op: String, sizes: Vec<u32> });

    roundtrip(Request { id: 9, op: "solve".into(), sizes: vec![1, 2, 3] });
    match Request::type_code() {
        TypeCode::Struct { name, fields } => {
            assert_eq!(name, "Request");
            assert_eq!(fields.len(), 3);
            assert_eq!(fields[1].0, "op");
        }
        other => panic!("expected struct typecode, got {other}"),
    }
}

#[test]
fn any_roundtrip_through_typecode() {
    let tc = TypeCode::Struct {
        name: "s".into(),
        fields: std::sync::Arc::new(vec![
            ("a".into(), TypeCode::Double),
            ("b".into(), TypeCode::sequence(TypeCode::String)),
        ]),
    };
    let v =
        Value::Struct(vec![Value::Double(2.5), Value::Sequence(vec![Value::String("q".into())])]);
    let any = Any::new(tc.clone(), v).unwrap();
    let mut e = Encoder::new(ByteOrder::Big);
    any.encode_value(&mut e);
    let mut d = Decoder::new(e.finish(), ByteOrder::Big);
    let back = Any::decode_value(&tc, &mut d).unwrap();
    assert_eq!(back, any);
}

#[test]
fn any_shape_mismatch_rejected() {
    let err = Any::new(TypeCode::Double, Value::Long(3)).unwrap_err();
    assert!(matches!(err, CdrError::TypeMismatch { .. }));
}

#[test]
fn any_enum_discriminant_validated() {
    let tc = TypeCode::Enum {
        name: "status".into(),
        variants: std::sync::Arc::new(vec!["ok".into(), "busy".into()]),
    };
    assert!(Any::new(tc.clone(), Value::Enum(1)).is_ok());
    let err = Any::new(tc, Value::Enum(2)).unwrap_err();
    assert!(matches!(err, CdrError::InvalidEnumDiscriminant { .. }));
}

#[test]
fn dsequence_typecode_is_distributed() {
    assert!(TypeCode::dsequence(TypeCode::Double).is_distributed());
    assert!(!TypeCode::sequence(TypeCode::Double).is_distributed());
}

#[test]
fn typecode_display() {
    assert_eq!(TypeCode::dsequence(TypeCode::Double).to_string(), "dsequence<double>");
    assert_eq!(
        TypeCode::bounded_sequence(TypeCode::sequence(TypeCode::Double), 1024).to_string(),
        "sequence<sequence<double>, 1024>"
    );
}

#[test]
fn byte_order_flags() {
    assert_eq!(ByteOrder::from_flag(0).unwrap(), ByteOrder::Big);
    assert_eq!(ByteOrder::from_flag(1).unwrap(), ByteOrder::Little);
    assert_eq!(ByteOrder::from_flag(7), Err(CdrError::BadByteOrderFlag(7)));
    assert_eq!(ByteOrder::Big.flag(), 0);
}

#[test]
fn implementation_limit_guards_allocation() {
    // Claim a 2^33-byte string without providing it.
    let mut e = Encoder::new(ByteOrder::Big);
    e.write_u32(u32::MAX);
    let mut d = Decoder::new(e.finish(), ByteOrder::Big);
    // u32::MAX < 2^32 so it passes the limit but fails truncation — either
    // way decode must not panic or over-allocate eagerly enough to abort.
    assert!(d.read_string().is_err());
}

mod property {
    use super::*;
    use proptest::prelude::*;

    fn arb_value_tree() -> impl Strategy<Value = Vec<Vec<f64>>> {
        proptest::collection::vec(proptest::collection::vec(any::<f64>(), 0..20), 0..20)
    }

    proptest! {
        #[test]
        fn u32_roundtrip(v in any::<u32>()) {
            let b = to_bytes(&v);
            prop_assert_eq!(from_bytes::<u32>(&b).unwrap(), v);
        }

        #[test]
        fn i64_roundtrip(v in any::<i64>()) {
            let b = to_bytes(&v);
            prop_assert_eq!(from_bytes::<i64>(&b).unwrap(), v);
        }

        #[test]
        fn f64_roundtrip_bits(v in any::<f64>()) {
            let b = to_bytes(&v);
            let back = from_bytes::<f64>(&b).unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }

        #[test]
        fn string_roundtrip(s in "\\PC*") {
            let b = to_bytes(&s);
            prop_assert_eq!(from_bytes::<String>(&b).unwrap(), s);
        }

        #[test]
        fn nested_matrix_roundtrip(m in arb_value_tree()) {
            let b = to_bytes(&m);
            let back = from_bytes::<Vec<Vec<f64>>>(&b).unwrap();
            prop_assert_eq!(
                back.iter().flatten().map(|f| f.to_bits()).collect::<Vec<_>>(),
                m.iter().flatten().map(|f| f.to_bits()).collect::<Vec<_>>()
            );
        }

        #[test]
        fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let b = Bytes::from(data);
            // Whatever the bytes, decoding returns Ok or Err — never panics.
            let _ = from_bytes::<Vec<Vec<f64>>>(&b);
            let _ = from_bytes::<String>(&b);
            let _ = from_bytes::<Vec<String>>(&b);
            let mut d = Decoder::new(b, ByteOrder::Big);
            let _ = Any::decode_value(&TypeCode::sequence(TypeCode::String), &mut d);
        }

        #[test]
        fn mixed_stream_positions_agree(
            a in any::<u8>(), b in any::<u32>(), c in any::<f64>(), s in "[a-z]{0,12}"
        ) {
            let mut e = Encoder::new(ByteOrder::Little);
            e.write_u8(a);
            e.write_u32(b);
            e.write_f64(c);
            e.write_string(&s);
            let buf = e.finish();
            let mut d = Decoder::new(buf, ByteOrder::Little);
            prop_assert_eq!(d.read_u8().unwrap(), a);
            prop_assert_eq!(d.read_u32().unwrap(), b);
            prop_assert_eq!(d.read_f64().unwrap().to_bits(), c.to_bits());
            prop_assert_eq!(d.read_string().unwrap(), s);
            prop_assert_eq!(d.remaining(), 0);
        }
    }
}

/// The bulk fast paths (`write_f64_elems` / `read_f64_elems`, raw `u8` memcpy)
/// must be byte-identical to the per-element reference encoding in every byte
/// order and at every stream alignment — the wire format is the contract.
mod bulk {
    use super::*;

    fn per_element_f64(v: &[f64], order: ByteOrder) -> Bytes {
        let mut e = Encoder::new(order);
        e.write_u32(v.len() as u32);
        for x in v {
            e.write_f64(*x);
        }
        e.finish()
    }

    /// After `lead` octets, the blocks of `block` doubles every `stride` of
    /// `v` (cut to end at a block end) go through `encode_strided` and must
    /// equal the per-element encoding of the same doubles. They are read
    /// back into a strided sink of sentinel-filled slots: the first `pre`
    /// one by one through `push`, the rest in one `read_f64_into`. Exactly
    /// the layout's slots take the values.
    fn strided_roundtrip(
        order: ByteOrder,
        lead: usize,
        v: &[f64],
        (block, stride): (usize, usize),
    ) {
        let items = &v[..(v.len() - block) / stride * stride + block];
        let mine: Vec<usize> = (0..items.len()).filter(|i| i % stride < block).collect();
        let mut bulk = Encoder::new(order);
        let mut reference = Encoder::new(order);
        for e in [&mut bulk, &mut reference] {
            e.write_raw(&vec![0xab; lead]);
        }
        f64::encode_strided(items, block, stride, &mut bulk);
        for &i in &mine {
            reference.write_f64(items[i]);
        }
        let wire = bulk.finish();
        let what = format!("{order:?}, lead {lead}, blocks of {block} every {stride}");
        assert_eq!(&wire[..], &reference.finish()[..], "{what}");

        let sentinel = -0.125;
        let mut slots = vec![sentinel; items.len()];
        let mut d = Decoder::new(wire, order);
        d.read_raw(lead).unwrap();
        let mut sink = ElemSink::strided(&mut slots, block, stride);
        let pre = (block + 2).min(mine.len());
        for _ in 0..pre {
            sink.push(d.read_f64().unwrap());
        }
        assert_eq!(sink.remaining(), mine.len() - pre, "{what}");
        d.read_f64_into(&mut sink).unwrap();
        assert_eq!((sink.filled(), sink.remaining(), d.remaining()), (mine.len(), 0, 0), "{what}");
        for (i, (got, want)) in slots.iter().zip(items).enumerate() {
            let expect = if i % stride < block { *want } else { sentinel };
            assert_eq!(got.to_bits(), expect.to_bits(), "{what}: slot {i}");
        }
    }

    /// Blocks of one, short and long blocks, blocks that touch (one run),
    /// and gaps wider than the blocks.
    const LAYOUTS: [(usize, usize); 5] = [(1, 3), (5, 8), (16, 17), (3, 3), (40, 100)];

    #[test]
    fn f64_bulk_encoding_matches_per_element_in_both_orders() {
        // 257 elements: large enough to exercise the memcpy path, odd enough
        // to catch length-dependent bugs.
        let v: Vec<f64> = (0..257).map(|i| i as f64 * 0.5 - 3.0).collect();
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut e = Encoder::new(order);
            v.encode(&mut e);
            let bulk = e.finish();
            assert_eq!(&bulk[..], &per_element_f64(&v, order)[..], "order {order:?}");
            let mut d = Decoder::new(bulk, order);
            assert_eq!(Vec::<f64>::decode(&mut d).unwrap(), v);
            assert_eq!(d.remaining(), 0);
            for layout in LAYOUTS {
                strided_roundtrip(order, 0, &v, layout);
            }
        }
    }

    /// `fill_strided` stores a strided source's elements, in order, in
    /// exactly the sink's unstored slots, whatever the two layouts and
    /// however many slots were pushed first; the gaps of both layouts are
    /// never read or written.
    #[test]
    fn fill_strided_copies_layout_to_layout() {
        const BLOCKS: usize = 6;
        let (sentinel, gap) = (-0.5, -1.0);
        for (block, stride) in LAYOUTS {
            let total = BLOCKS * block;
            let slots_len = (BLOCKS - 1) * stride + block;
            for (src_block, src_stride) in LAYOUTS {
                for pre in (0..total).filter(|pre| (total - pre).is_multiple_of(src_block)) {
                    let src_len = ((total - pre) / src_block - 1) * src_stride + src_block;
                    let mut next = 1000.0;
                    let src: Vec<f64> = (0..src_len)
                        .map(|i| {
                            if i % src_stride >= src_block {
                                return gap;
                            }
                            next += 1.0;
                            next
                        })
                        .collect();
                    let mut slots = vec![sentinel; slots_len];
                    let mut sink = ElemSink::strided(&mut slots, block, stride);
                    for k in 0..pre {
                        sink.push(k as f64);
                    }
                    sink.fill_strided(&src, src_block, src_stride);
                    let what = format!(
                        "{block}/{stride} from {src_block}/{src_stride}, {pre} pushed first"
                    );
                    assert_eq!((sink.filled(), sink.remaining()), (total, 0), "{what}");
                    let mut k = 0;
                    for (i, got) in slots.iter().enumerate() {
                        let want = if i % stride >= block {
                            sentinel
                        } else if k < pre {
                            k += 1;
                            (k - 1) as f64
                        } else {
                            k += 1;
                            1000.0 + (k - pre) as f64
                        };
                        assert_eq!(got.to_bits(), want.to_bits(), "{what}: slot {i}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "3 elements for 4 slots")]
    fn fill_strided_refuses_a_source_of_another_size() {
        let mut slots = [0.0f64; 4];
        ElemSink::strided(&mut slots, 4, 4).fill_strided(&[1.0, 2.0, 3.0], 1, 1);
    }

    #[test]
    fn foreign_order_bulk_roundtrips_through_the_swap_loop() {
        let v: Vec<f64> = (0..64).map(|i| (i as f64).exp()).collect();
        let foreign = match ByteOrder::native() {
            ByteOrder::Big => ByteOrder::Little,
            ByteOrder::Little => ByteOrder::Big,
        };
        let mut e = Encoder::new(foreign);
        v.encode(&mut e);
        let mut d = Decoder::new(e.finish(), foreign);
        assert_eq!(Vec::<f64>::decode(&mut d).unwrap(), v);
    }

    #[test]
    fn unaligned_stream_start_pads_identically() {
        // Leading bytes misalign the stream; the bulk path must insert the
        // same CDR padding as the per-element reference.
        let v: Vec<f64> = vec![1.25, -2.5, 3.75];
        for lead in 1..8usize {
            for order in [ByteOrder::Big, ByteOrder::Little] {
                let mut bulk = Encoder::new(order);
                let mut reference = Encoder::new(order);
                for _ in 0..lead {
                    bulk.write_u8(0xab);
                    reference.write_u8(0xab);
                }
                v.encode(&mut bulk);
                reference.write_u32(v.len() as u32);
                for x in &v {
                    reference.write_f64(*x);
                }
                let wire = bulk.finish();
                assert_eq!(&wire[..], &reference.finish()[..], "lead {lead}, order {order:?}");
                let mut d = Decoder::new(wire, order);
                for _ in 0..lead {
                    d.read_u8().unwrap();
                }
                assert_eq!(Vec::<f64>::decode(&mut d).unwrap(), v, "lead {lead}");
                let many: Vec<f64> = (0..120).map(|i| i as f64 - 0.75).collect();
                for layout in LAYOUTS {
                    strided_roundtrip(order, lead, &many, layout);
                }
            }
        }
    }

    #[test]
    fn length_words_fit_a_ulong_or_panic() {
        assert_eq!(crate::encode::ulong_len(0), 0);
        assert_eq!(crate::encode::ulong_len(u32::MAX as usize), u32::MAX);
        #[cfg(target_pointer_width = "64")]
        {
            let wrapped =
                std::panic::catch_unwind(|| crate::encode::ulong_len(u32::MAX as usize + 1));
            assert!(wrapped.is_err(), "a length past u32::MAX must not wrap");
        }
    }

    #[test]
    fn empty_and_single_element_sequences() {
        for v in [Vec::<f64>::new(), vec![42.0]] {
            for order in [ByteOrder::Big, ByteOrder::Little] {
                let mut e = Encoder::new(order);
                v.encode(&mut e);
                let wire = e.finish();
                assert_eq!(&wire[..], &per_element_f64(&v, order)[..]);
                let mut d = Decoder::new(wire, order);
                assert_eq!(Vec::<f64>::decode(&mut d).unwrap(), v);
            }
        }
        for v in [Vec::<u8>::new(), vec![7u8]] {
            let wire = to_bytes(&v);
            assert_eq!(from_bytes::<Vec<u8>>(&wire).unwrap(), v);
        }
    }

    #[test]
    fn u8_bulk_matches_per_element() {
        let v: Vec<u8> = (0..=255).collect();
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut bulk = Encoder::new(order);
            v.encode(&mut bulk);
            let mut reference = Encoder::new(order);
            reference.write_u32(v.len() as u32);
            for x in &v {
                reference.write_u8(*x);
            }
            assert_eq!(&bulk.finish()[..], &reference.finish()[..]);
        }
    }

    #[test]
    fn decoded_byte_slices_borrow_the_wire() {
        // `read_bytes` must alias the decoder's backing buffer, not copy.
        let mut e = Encoder::new(ByteOrder::native());
        e.write_byte_seq(&[9u8; 64]);
        let wire = e.finish();
        let lo = wire.as_ptr() as usize;
        let hi = lo + wire.len();
        let mut d = Decoder::new(wire.clone(), ByteOrder::native());
        let seq = d.read_byte_seq_bytes().unwrap();
        let p = seq.as_ptr() as usize;
        assert!(p >= lo && p + seq.len() <= hi, "decoded slice copied instead of borrowed");
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// A nested stream encoded in place is the byte sequence of the
            /// same stream encoded on its own: its padding is measured from
            /// its own first octet wherever the sequence lands, and the outer
            /// stream's alignment resumes after it.
            #[test]
            fn byte_seq_encoded_in_place_matches_a_staged_one(
                lead in 0usize..9,
                tag in any::<u8>(),
                xs in proptest::collection::vec(any::<f64>(), 0..16),
                word in "[a-z]{0,9}",
                big in any::<bool>(),
            ) {
                let order = if big { ByteOrder::Big } else { ByteOrder::Little };
                let nested = |e: &mut Encoder| {
                    e.write_u8(tag);
                    f64::encode_elems(&xs, e);
                    word.encode(e);
                    e.write_u64(7);
                };
                let mut staged = Encoder::new(order);
                nested(&mut staged);
                let mut reference = Encoder::new(order);
                let mut in_place = Encoder::new(order);
                for e in [&mut reference, &mut in_place] {
                    e.write_raw(&vec![0xee; lead]);
                }
                reference.write_byte_seq(staged.as_slice());
                in_place.write_byte_seq_with(0, nested);
                for e in [&mut reference, &mut in_place] {
                    e.write_u64(9);
                }
                prop_assert_eq!(&in_place.finish()[..], &reference.finish()[..]);
            }

            /// A nested stream whose last octets travel outside the encoder
            /// as a tail is, followed by the tail, the sequence encoded
            /// whole.
            #[test]
            fn byte_seq_with_a_tail_counts_the_tail(
                lead in 0usize..9,
                head in proptest::collection::vec(any::<u8>(), 0..12),
                tail in proptest::collection::vec(any::<u8>(), 0..24),
                big in any::<bool>(),
            ) {
                let order = if big { ByteOrder::Big } else { ByteOrder::Little };
                let mut reference = Encoder::new(order);
                let mut split = Encoder::new(order);
                for e in [&mut reference, &mut split] {
                    e.write_raw(&vec![0xee; lead]);
                }
                reference.write_byte_seq(&[&head[..], &tail[..]].concat());
                split.write_byte_seq_with(tail.len(), |e| e.write_raw(&head));
                let joined = [&split.finish()[..], &tail[..]].concat();
                prop_assert_eq!(&joined[..], &reference.finish()[..]);
            }
        }
    }
}

mod fixed_wire_size {
    use super::*;

    /// Encoding `n` elements from stream offset 0 must occupy exactly
    /// `n * fixed_wire_size()` bytes, with element `i` starting at
    /// `i * size` — the byte-range arithmetic the one-sided pull
    /// redistribution performs on encoded locals.
    fn dense<T: CdrCodec + Clone + PartialEq + std::fmt::Debug>(items: Vec<T>) {
        let ws = T::fixed_wire_size().expect("fixed-size primitive");
        let mut e = Encoder::new(ByteOrder::native());
        T::encode_elems(&items, &mut e);
        let bytes = e.finish();
        assert_eq!(bytes.len(), items.len() * ws, "no padding between elements");
        // Any aligned sub-range decodes to the matching element slice.
        if items.len() >= 3 {
            let sub = bytes.slice(ws..3 * ws);
            let mut d = Decoder::new(sub, ByteOrder::native());
            let back = T::decode_elems(&mut d, 2).expect("decode sub-range");
            assert_eq!(back, items[1..3].to_vec());
        }
    }

    #[test]
    fn primitives_are_dense() {
        dense(vec![true, false, true, true]);
        dense(vec![1u8, 2, 3, 4, 5]);
        dense(vec![-3i16, 9, 17, -1]);
        dense(vec![7u16, 8, 9, 10]);
        dense(vec![-5i32, 6, 7, 8]);
        dense(vec![5u32, 6, 7, 8]);
        dense(vec![-9i64, 10, 11, 12]);
        dense(vec![9u64, 10, 11, 12]);
        dense(vec![1.5f32, -2.5, 3.5, 4.5]);
        dense(vec![1.5f64, -2.5, 3.5, 4.5]);
        dense(vec!['a', 'ü', '☃', 'z']);
    }

    /// `encode_elems` of `items` from an aligned position, in native order.
    fn encoded<T: CdrCodec>(items: &[T]) -> Vec<u8> {
        let mut e = Encoder::new(ByteOrder::native());
        T::encode_elems(items, &mut e);
        e.finish().to_vec()
    }

    fn image_is_encoding<T: CdrCodec>(items: Vec<T>) {
        let image = T::native_image(&items).expect("a fixed-width number");
        assert_eq!(image, &encoded(&items)[..]);
        assert_eq!(image.as_ptr(), items.as_ptr().cast::<u8>(), "the slice's own memory");
        assert_eq!(T::native_image(&items[..0]), Some(&[][..]));
    }

    #[test]
    fn native_images_are_the_native_encoding() {
        image_is_encoding(vec![1u8, 2, 255]);
        image_is_encoding(vec![-3i16, 9, i16::MIN]);
        image_is_encoding(vec![7u16, 8, u16::MAX]);
        image_is_encoding(vec![-5i32, 6, i32::MAX]);
        image_is_encoding(vec![5u32, 6, u32::MAX]);
        image_is_encoding(vec![-9i64, 10, i64::MIN]);
        image_is_encoding(vec![9u64, 10, u64::MAX]);
        image_is_encoding(vec![1.5f64, -0.0, f64::INFINITY, f64::MIN_POSITIVE]);
    }

    /// `native_view` takes a native image back to the very elements, in
    /// place, and refuses the image shifted off its alignment or cut
    /// inside an element.
    fn view_inverts_image<T: CdrCodec + PartialEq + std::fmt::Debug>(items: Vec<T>) {
        let image = T::native_image(&items).expect("a fixed-width number");
        let back = T::native_view(image).expect("an aligned whole image");
        assert_eq!(back, &items[..]);
        assert_eq!(back.as_ptr(), items.as_ptr(), "viewed in place");
        let width = std::mem::size_of::<T>();
        if width > 1 {
            // The same bytes one byte off their alignment: at offset 1 of a
            // buffer of words, which is aligned for every number.
            let mut raw = vec![0u8];
            raw.extend_from_slice(image);
            raw.resize(raw.len().next_multiple_of(8), 0);
            let words: Vec<u64> =
                raw.chunks(8).map(|w| u64::from_ne_bytes(w.try_into().unwrap())).collect();
            let shifted = &u64::native_image(&words).unwrap()[1..=image.len()];
            assert_eq!(shifted, image);
            assert_eq!(T::native_view(shifted), None, "misaligned by one byte");
            assert_eq!(T::native_view(&image[..image.len() - 1]), None, "a cut element");
        }
        assert_eq!(T::native_view(&image[..0]), Some(&[][..]));
    }

    #[test]
    fn native_views_invert_native_images() {
        view_inverts_image(vec![1u8, 2, 255]);
        view_inverts_image(vec![-3i16, 9, i16::MIN]);
        view_inverts_image(vec![7u16, 8, u16::MAX]);
        view_inverts_image(vec![-5i32, 6, i32::MAX]);
        view_inverts_image(vec![5u32, 6, u32::MAX]);
        view_inverts_image(vec![-9i64, 10, i64::MIN]);
        view_inverts_image(vec![9u64, 10, u64::MAX]);
        view_inverts_image(vec![1.5f64, -0.0, f64::INFINITY, f64::MIN_POSITIVE]);
    }

    #[test]
    fn types_without_a_native_image_report_none() {
        assert_eq!(String::native_image(&["ab".to_string()]), None);
        assert_eq!(bool::native_image(&[true]), None);
        assert_eq!(char::native_image(&['a']), None);
        assert_eq!(<Vec<f64>>::native_image(&[vec![1.0]]), None);
    }

    #[test]
    fn types_without_a_native_image_have_no_view() {
        // Sixteen bytes aligned for everything: whole elements of any width.
        let words = [0x3ff0_0000_0000_0000u64; 2];
        let bytes = u64::native_image(&words).unwrap();
        assert_eq!(String::native_view(bytes), None);
        assert_eq!(bool::native_view(bytes), None);
        assert_eq!(char::native_view(bytes), None);
        assert_eq!(f32::native_view(bytes), None);
        assert_eq!(<Vec<f64>>::native_view(bytes), None);
        assert_eq!(f64::native_view(bytes), Some(&[1.0, 1.0][..]));
    }

    #[test]
    fn variable_types_report_none() {
        assert_eq!(String::fixed_wire_size(), None);
        assert_eq!(<Vec<f64>>::fixed_wire_size(), None);
        assert_eq!(<(u8, f64)>::fixed_wire_size(), None);
    }
}
