//! Wire protocol for ShardingSphere-Proxy.
//!
//! The real proxy disguises itself as MySQL/PostgreSQL by implementing their
//! wire protocols; ours speaks a compact length-prefixed binary protocol
//! with the same shape (request: SQL text + bound params; response: result
//! rows / affected count / error). The cost that matters for the paper's
//! JDBC-vs-Proxy comparison — a real network hop plus
//! serialization/deserialization of every row — is fully present.
//!
//! Frame layout: `u32 big-endian payload length | payload`.
//!
//! Socket I/O goes through [`FrameStream`]: frames are appended to one
//! per-connection write buffer and leave in a single `write` when the sender
//! flushes, and reads go through a buffered reader, so a small exchange costs
//! one `write` and one `read` per direction however many frames it carries.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use shard_sql::Value;
use std::io::{BufReader, Read, Write};

/// Client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute SQL with bound parameters.
    Query { sql: String, params: Vec<Value> },
    /// Close the connection.
    Quit,
}

/// Server → client message.
///
/// A result set is delivered as the sequence `RowsHeader (RowBatch)*
/// RowsEnd`, encoded shard-side as rows arrive so the proxy never buffers the
/// full merged result. An `Error` frame after `RowsHeader` aborts the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Update {
        affected: u64,
    },
    Error {
        message: String,
        /// Failure classification (`transient`, `fatal`, `timeout`) so
        /// drivers can decide whether a retry is worthwhile.
        class: String,
    },
    RowsHeader {
        columns: Vec<String>,
    },
    RowBatch {
        rows: Vec<Vec<Value>>,
    },
    RowsEnd,
}

#[derive(Debug)]
pub enum ProtocolError {
    Io(std::io::Error),
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "io error: {e}"),
            ProtocolError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

// -- value encoding -----------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL: u8 = 4;

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64(*f);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(*b as u8);
        }
    }
}

fn get_value(buf: &mut Bytes) -> Result<Value, ProtocolError> {
    if buf.remaining() < 1 {
        return Err(ProtocolError::Malformed("truncated value".into()));
    }
    match buf.get_u8() {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => {
            check(buf, 8)?;
            Ok(Value::Int(buf.get_i64()))
        }
        TAG_FLOAT => {
            check(buf, 8)?;
            Ok(Value::Float(buf.get_f64()))
        }
        TAG_STR => Ok(Value::Str(get_str(buf)?)),
        TAG_BOOL => {
            check(buf, 1)?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        t => Err(ProtocolError::Malformed(format!("unknown value tag {t}"))),
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, ProtocolError> {
    check(buf, 4)?;
    let len = buf.get_u32() as usize;
    check(buf, len)?;
    let bytes = buf.split_to(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Malformed("invalid utf8".into()))
}

fn check(buf: &Bytes, need: usize) -> Result<(), ProtocolError> {
    if buf.remaining() < need {
        Err(ProtocolError::Malformed("truncated frame".into()))
    } else {
        Ok(())
    }
}

// -- message encoding ----------------------------------------------------------

const MSG_QUERY: u8 = 1;
const MSG_QUIT: u8 = 2;
// 10 was the materialized result-set frame; no peer ever sent it.
const MSG_UPDATE: u8 = 11;
const MSG_ERROR: u8 = 12;
const MSG_ROWS_HEADER: u8 = 13;
const MSG_ROW_BATCH: u8 = 14;
const MSG_ROWS_END: u8 = 15;

pub fn encode_request(req: &Request) -> BytesMut {
    let mut buf = BytesMut::new();
    match req {
        Request::Query { sql, params } => put_query(&mut buf, sql, params),
        Request::Quit => buf.put_u8(MSG_QUIT),
    }
    buf
}

fn put_query(buf: &mut BytesMut, sql: &str, params: &[Value]) {
    buf.put_u8(MSG_QUERY);
    put_str(buf, sql);
    buf.put_u32(params.len() as u32);
    for p in params {
        put_value(buf, p);
    }
}

pub fn decode_request(mut buf: Bytes) -> Result<Request, ProtocolError> {
    check(&buf, 1)?;
    match buf.get_u8() {
        MSG_QUERY => {
            let sql = get_str(&mut buf)?;
            check(&buf, 4)?;
            let n = buf.get_u32() as usize;
            let mut params = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                params.push(get_value(&mut buf)?);
            }
            Ok(Request::Query { sql, params })
        }
        MSG_QUIT => Ok(Request::Quit),
        t => Err(ProtocolError::Malformed(format!(
            "unknown request type {t}"
        ))),
    }
}

pub fn encode_response(resp: &Response) -> BytesMut {
    let mut buf = BytesMut::new();
    put_response(&mut buf, resp);
    buf
}

fn put_response(buf: &mut BytesMut, resp: &Response) {
    match resp {
        Response::Update { affected } => {
            buf.put_u8(MSG_UPDATE);
            buf.put_u64(*affected);
        }
        Response::Error { message, class } => {
            buf.put_u8(MSG_ERROR);
            put_str(buf, message);
            put_str(buf, class);
        }
        Response::RowsHeader { columns } => {
            buf.put_u8(MSG_ROWS_HEADER);
            buf.put_u32(columns.len() as u32);
            for c in columns {
                put_str(buf, c);
            }
        }
        Response::RowBatch { rows } => {
            buf.put_u8(MSG_ROW_BATCH);
            buf.put_u32(rows.len() as u32);
            let ncols = rows.first().map_or(0, |r| r.len());
            buf.put_u32(ncols as u32);
            for row in rows {
                for v in row {
                    put_value(buf, v);
                }
            }
        }
        Response::RowsEnd => buf.put_u8(MSG_ROWS_END),
    }
}

pub fn decode_response(mut buf: Bytes) -> Result<Response, ProtocolError> {
    check(&buf, 1)?;
    match buf.get_u8() {
        MSG_UPDATE => {
            check(&buf, 8)?;
            Ok(Response::Update {
                affected: buf.get_u64(),
            })
        }
        MSG_ERROR => Ok(Response::Error {
            message: get_str(&mut buf)?,
            class: get_str(&mut buf)?,
        }),
        MSG_ROWS_HEADER => {
            check(&buf, 4)?;
            let ncols = buf.get_u32() as usize;
            let mut columns = Vec::with_capacity(ncols.min(4096));
            for _ in 0..ncols {
                columns.push(get_str(&mut buf)?);
            }
            Ok(Response::RowsHeader { columns })
        }
        MSG_ROW_BATCH => {
            check(&buf, 8)?;
            let nrows = buf.get_u32() as usize;
            let ncols = buf.get_u32() as usize;
            let mut rows = Vec::with_capacity(nrows.min(1 << 20));
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    row.push(get_value(&mut buf)?);
                }
                rows.push(row);
            }
            Ok(Response::RowBatch { rows })
        }
        MSG_ROWS_END => Ok(Response::RowsEnd),
        t => Err(ProtocolError::Malformed(format!(
            "unknown response type {t}"
        ))),
    }
}

// -- framed stream I/O -----------------------------------------------------------

/// Append one length-prefixed frame to `out`; `payload` appends the body and
/// the prefix is filled in behind it, so a frame is encoded in place.
pub fn put_frame(out: &mut BytesMut, payload: impl FnOnce(&mut BytesMut)) {
    let at = out.len();
    out.put_u32(0);
    payload(out);
    let len = u32::try_from(out.len() - at - 4).expect("frame payload under 4 GiB");
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Buffered frame I/O over one connection, used by both ends of the wire.
///
/// Outgoing frames collect in a write buffer until [`flush`](Self::flush)
/// hands them to the stream in one `write_all`; incoming bytes are read
/// through a [`BufReader`], so the frames one such write carried cost the
/// receiver one `read`.
pub struct FrameStream<S> {
    reader: BufReader<S>,
    out: BytesMut,
}

impl<S: Read + Write> FrameStream<S> {
    pub fn new(stream: S) -> Self {
        FrameStream {
            reader: BufReader::new(stream),
            out: BytesMut::new(),
        }
    }

    /// Queue a `Query` request, encoded straight from the borrowed parts.
    pub fn push_query(&mut self, sql: &str, params: &[Value]) {
        put_frame(&mut self.out, |buf| put_query(buf, sql, params));
    }

    pub fn push_quit(&mut self) {
        put_frame(&mut self.out, |buf| buf.put_u8(MSG_QUIT));
    }

    pub fn push_response(&mut self, resp: &Response) {
        put_frame(&mut self.out, |buf| put_response(buf, resp));
    }

    /// Send every queued frame. The buffer is emptied even on failure: the
    /// connection is unusable after a failed write.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let sent = self.reader.get_mut().write_all(&self.out);
        self.out.clear();
        sent
    }

    /// Read the next frame. Returns `None` on clean EOF.
    pub fn read_frame(&mut self) -> Result<Option<Bytes>, ProtocolError> {
        read_frame(&mut self.reader)
    }

    /// The underlying stream.
    pub fn get_ref(&self) -> &S {
        self.reader.get_ref()
    }
}

/// Read one length-prefixed frame. Returns `None` on clean EOF.
pub fn read_frame(stream: &mut impl Read) -> Result<Option<Bytes>, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    match stream.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    const MAX_FRAME: usize = 256 * 1024 * 1024;
    if len > MAX_FRAME {
        return Err(ProtocolError::Malformed(format!("frame too large: {len}")));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(Bytes::from(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::Query {
            sql: "SELECT * FROM t WHERE id = ?".into(),
            params: vec![Value::Int(7), Value::Str("x".into()), Value::Null],
        };
        let encoded = encode_request(&req);
        let decoded = decode_request(encoded.freeze()).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(
            decode_request(encode_request(&Request::Quit).freeze()).unwrap(),
            Request::Quit
        );
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::Update { affected: 42 };
        assert_eq!(
            decode_response(encode_response(&resp).freeze()).unwrap(),
            resp
        );
        let resp = Response::Error {
            message: "boom".into(),
            class: "transient".into(),
        };
        assert_eq!(
            decode_response(encode_response(&resp).freeze()).unwrap(),
            resp
        );
    }

    #[test]
    fn streamed_response_roundtrip() {
        let resp = Response::RowsHeader {
            columns: vec!["id".into(), "v".into()],
        };
        assert_eq!(
            decode_response(encode_response(&resp).freeze()).unwrap(),
            resp
        );
        let resp = Response::RowBatch {
            rows: vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Float(2.5), Value::Null],
                vec![Value::Bool(true), Value::Int(-3)],
            ],
        };
        assert_eq!(
            decode_response(encode_response(&resp).freeze()).unwrap(),
            resp
        );
        assert_eq!(
            decode_response(encode_response(&Response::RowsEnd).freeze()).unwrap(),
            Response::RowsEnd
        );
        // empty batch (no rows) still round-trips
        let resp = Response::RowBatch { rows: vec![] };
        assert_eq!(
            decode_response(encode_response(&resp).freeze()).unwrap(),
            resp
        );
    }

    #[test]
    fn truncated_frames_rejected() {
        let req = Request::Query {
            sql: "SELECT 1".into(),
            params: vec![],
        };
        let mut encoded = encode_request(&req);
        encoded.truncate(encoded.len() - 2);
        assert!(decode_request(encoded.freeze()).is_err());
    }

    #[test]
    fn frame_io_roundtrip() {
        let mut buf = BytesMut::new();
        put_frame(&mut buf, |b| b.put_slice(b"hello"));
        put_frame(&mut buf, |_| {});
        let mut cursor = std::io::Cursor::new(buf.to_vec());
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().as_ref(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn unicode_survives() {
        let req = Request::Query {
            sql: "SELECT '世界'".into(),
            params: vec![Value::Str("héllo".into())],
        };
        let decoded = decode_request(encode_request(&req).freeze()).unwrap();
        assert_eq!(decoded, req);
    }
}
