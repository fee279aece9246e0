//! Protocol robustness: arbitrary bytes must never panic the decoders, and
//! arbitrary well-formed messages must round-trip exactly.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use shard_proxy::protocol::{
    decode_request, decode_response, encode_request, encode_response, put_frame, read_frame,
    Request, Response,
};
use shard_sql::Value;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float),
        "\\PC{0,24}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    #[test]
    fn decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_request(Bytes::from(bytes.clone()));
        let _ = decode_response(Bytes::from(bytes));
    }

    #[test]
    fn request_roundtrip(sql in "\\PC{0,64}", params in proptest::collection::vec(value_strategy(), 0..8)) {
        let req = Request::Query { sql, params };
        let decoded = decode_request(encode_request(&req).freeze()).unwrap();
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn response_roundtrip(
        columns in proptest::collection::vec("[a-z_]{1,12}", 1..6),
        nrows in 0usize..20,
        seed in value_strategy(),
    ) {
        let rows: Vec<Vec<Value>> = (0..nrows)
            .map(|_| columns.iter().map(|_| seed.clone()).collect())
            .collect();
        for resp in [Response::RowsHeader { columns }, Response::RowBatch { rows }] {
            let decoded = decode_response(encode_response(&resp).freeze()).unwrap();
            prop_assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn truncated_encodings_error_not_panic(sql in "\\PC{0,32}", cut in 0usize..32) {
        let req = Request::Query { sql, params: vec![Value::Int(1)] };
        let mut encoded = encode_request(&req);
        let keep = encoded.len().saturating_sub(cut);
        encoded.truncate(keep);
        let _ = decode_request(encoded.freeze()); // Err or Ok, never panic
    }

    #[test]
    fn frame_io_roundtrips(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..128), 0..8)) {
        let mut buf = BytesMut::new();
        for p in &payloads {
            put_frame(&mut buf, |b| b.put_slice(p));
        }
        let mut cursor = std::io::Cursor::new(buf.to_vec());
        for p in &payloads {
            let frame = read_frame(&mut cursor).unwrap().unwrap();
            prop_assert_eq!(frame.as_ref(), p.as_slice());
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }
}
