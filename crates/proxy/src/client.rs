//! Proxy client: the application side of the wire protocol (what a MySQL
//! driver would be against the real proxy).

use crate::protocol::{decode_response, FrameStream, ProtocolError, Response};
use shard_sql::Value;
use shard_storage::{ExecuteResult, ResultSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

#[derive(Debug)]
pub enum ClientError {
    Protocol(ProtocolError),
    /// The server reported a SQL/kernel error. `class` is the server's
    /// classification (`transient` / `fatal` / `timeout`) so callers can
    /// decide whether a retry on a fresh connection is worthwhile.
    Server {
        message: String,
        class: String,
    },
    Disconnected,
}

impl ClientError {
    fn server(message: String, class: String) -> ClientError {
        ClientError::Server { message, class }
    }

    /// True when the server classified the failure as safe to retry.
    pub fn is_transient(&self) -> bool {
        matches!(self, ClientError::Server { class, .. } if class == "transient")
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server { message, class } => {
                write!(f, "server error ({class}): {message}")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// One client connection to a ShardingSphere-Proxy.
pub struct ProxyClient {
    conn: FrameStream<TcpStream>,
}

impl ProxyClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<ProxyClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ProxyClient {
            conn: FrameStream::new(stream),
        })
    }

    /// Execute SQL through the proxy.
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> Result<ExecuteResult, ClientError> {
        exchange(&mut self.conn, sql, params)
    }

    /// Execute a query, expecting rows.
    pub fn query(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet, ClientError> {
        match self.execute(sql, params)? {
            ExecuteResult::Query(rs) => Ok(rs),
            ExecuteResult::Update { .. } => Err(ClientError::server(
                "expected a result set".into(),
                "fatal".into(),
            )),
        }
    }

    /// Execute DML, returning the affected-row count.
    pub fn update(&mut self, sql: &str, params: &[Value]) -> Result<u64, ClientError> {
        Ok(self.execute(sql, params)?.affected())
    }

    /// Politely close the connection.
    pub fn quit(mut self) {
        self.conn.push_quit();
        let _ = self.conn.flush();
    }
}

/// One statement's round trip: the request leaves as one write, then frames
/// are read until the response is complete.
pub(crate) fn exchange<S: Read + Write>(
    conn: &mut FrameStream<S>,
    sql: &str,
    params: &[Value],
) -> Result<ExecuteResult, ClientError> {
    conn.push_query(sql, params);
    conn.flush().map_err(ProtocolError::Io)?;
    let mut next = || -> Result<Response, ClientError> {
        let frame = conn.read_frame()?.ok_or(ClientError::Disconnected)?;
        Ok(decode_response(frame)?)
    };
    match next()? {
        Response::Update { affected } => Ok(ExecuteResult::Update { affected }),
        Response::Error { message, class } => Err(ClientError::server(message, class)),
        Response::RowsHeader { columns } => {
            // Accumulate RowBatch frames until RowsEnd.
            let mut rows = Vec::new();
            loop {
                match next()? {
                    Response::RowBatch { rows: batch } => rows.extend(batch),
                    Response::RowsEnd => {
                        return Ok(ExecuteResult::Query(ResultSet::new(columns, rows)))
                    }
                    Response::Error { message, class } => {
                        return Err(ClientError::server(message, class))
                    }
                    other => {
                        return Err(ClientError::Protocol(ProtocolError::Malformed(format!(
                            "unexpected frame mid-stream: {other:?}"
                        ))))
                    }
                }
            }
        }
        Response::RowBatch { .. } | Response::RowsEnd => Err(ClientError::Protocol(
            ProtocolError::Malformed("stream frame outside a streamed result".into()),
        )),
    }
}
