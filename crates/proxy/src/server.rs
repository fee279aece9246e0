//! ShardingSphere-Proxy server: a TCP daemon fronting a shared
//! [`ShardingRuntime`]. Each client connection gets its own thread and its
//! own kernel session (so transactions are per-connection), and does its
//! socket I/O through one [`FrameStream`]: a statement costs the server one
//! `read` and, unless the result outgrows a batch, one `write`.

use crate::accept::Acceptor;
use crate::protocol::{decode_request, FrameStream, Request, Response};
use shard_core::obs::{Counter, Histogram};
use shard_core::ShardingRuntime;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Proxy-level instruments, registered on the runtime's shared metrics
/// registry so `SHOW METRICS` and the `/metrics` endpoint see them too.
struct ProxyMetrics {
    connections: Arc<Counter>,
    frames: Arc<Counter>,
    statement_us: Arc<Histogram>,
}

impl ProxyMetrics {
    fn register(runtime: &ShardingRuntime) -> Arc<ProxyMetrics> {
        let registry = runtime.metrics_registry();
        Arc::new(ProxyMetrics {
            connections: registry.counter(
                "proxy_connections_total",
                "Client connections accepted by the proxy",
            ),
            frames: registry.counter(
                "proxy_frames_total",
                "Request frames received from proxy clients",
            ),
            statement_us: registry.histogram(
                "proxy_statement_us",
                "Per-statement wall time as observed at the proxy, in microseconds",
            ),
        })
    }
}

/// A running proxy instance.
pub struct ProxyServer {
    acceptor: Acceptor,
    connections_served: Arc<AtomicU64>,
}

impl ProxyServer {
    /// Start a proxy on `127.0.0.1:port` (`port = 0` picks a free port).
    pub fn start(runtime: Arc<ShardingRuntime>, port: u16) -> std::io::Result<ProxyServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let connections_served = Arc::new(AtomicU64::new(0));
        let metrics = ProxyMetrics::register(&runtime);

        let served = Arc::clone(&connections_served);
        let acceptor = Acceptor::spawn(listener, move |incoming| {
            // Each worker with a handle on its socket, kept to unblock its
            // read at shutdown.
            let mut workers: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
            for stream in incoming {
                workers.retain(|(_, w)| !w.is_finished());
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let conn = served.fetch_add(1, Ordering::Relaxed) + 1;
                metrics.connections.inc();
                let runtime = Arc::clone(&runtime);
                let metrics = Arc::clone(&metrics);
                let worker = std::thread::spawn(move || {
                    serve_connection(&stream, &runtime, &metrics, conn);
                    // `handle` keeps the socket open until this loop next
                    // looks; the peer should see the connection end now.
                    let _ = stream.shutdown(Shutdown::Both);
                });
                workers.push((handle, worker));
            }
            for (handle, _) in &workers {
                let _ = handle.shutdown(Shutdown::Both);
            }
            for (_, worker) in workers {
                let _ = worker.join();
            }
        })?;

        Ok(ProxyServer {
            acceptor,
            connections_served,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    pub fn connections_served(&self) -> u64 {
        self.connections_served.load(Ordering::Relaxed)
    }

    /// Stop accepting, close every client connection (a statement in flight
    /// finishes first) and wait for the connection threads.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

fn serve_connection(
    stream: &TcpStream,
    runtime: &Arc<ShardingRuntime>,
    metrics: &ProxyMetrics,
    conn: u64,
) {
    stream.set_nodelay(true).ok();
    let mut conn_io = FrameStream::new(stream);
    let mut session = runtime.session();
    // Traces minted for this connection's statements carry the proxy frame
    // as their origin, so `SHOW TRACE` tells connections apart.
    session.set_trace_origin(format!("proxy:conn-{conn}"));
    // Ends on client close, a stream error, or the server shutting the
    // socket down.
    while let Ok(Some(frame)) = conn_io.read_frame() {
        metrics.frames.inc();
        let request = match decode_request(frame) {
            Ok(r) => r,
            Err(e) => {
                conn_io.push_response(&Response::Error {
                    message: e.to_string(),
                    class: "fatal".into(),
                });
                let _ = conn_io.flush();
                return;
            }
        };
        match request {
            Request::Quit => return,
            Request::Query { sql, params } => {
                let started = Instant::now();
                let sent = respond_query(&mut conn_io, &mut session, &sql, &params);
                metrics
                    .statement_us
                    .record_us((started.elapsed().as_micros() as u64).max(1));
                if sent.is_err() {
                    return;
                }
            }
        }
    }
}

/// Rows the proxy buffers per streamed frame. Small enough that the first
/// row reaches the client while shards are still scanning, large enough to
/// amortize the frame header.
const ROW_BATCH_SIZE: usize = 128;

/// Execute one query and write its response. Queries go through the kernel's
/// streaming path: rows are encoded batch-by-batch as the merge engine yields
/// them, so the proxy never materializes the full result. Frames collect in
/// the connection's write buffer, which is flushed after each full batch (a
/// large result streams) and at the end of the response (a small one is a
/// single write). An error means the connection should close.
pub(crate) fn respond_query<S: Read + Write>(
    conn: &mut FrameStream<S>,
    session: &mut shard_core::Session,
    sql: &str,
    params: &[shard_sql::Value],
) -> std::io::Result<()> {
    let error_frame = |e: shard_core::KernelError| Response::Error {
        message: e.to_string(),
        class: e.class().as_str().into(),
    };
    match session.execute_sql_stream(sql, params) {
        Err(e) => conn.push_response(&error_frame(e)),
        Ok(shard_core::StreamOutcome::Update { affected }) => {
            conn.push_response(&Response::Update { affected })
        }
        Ok(shard_core::StreamOutcome::Rows(mut rows)) => {
            conn.push_response(&Response::RowsHeader {
                columns: rows.columns().to_vec(),
            });
            let mut batch = Vec::with_capacity(ROW_BATCH_SIZE);
            let end = loop {
                match rows.next_row() {
                    Ok(Some(row)) => {
                        batch.push(row);
                        if batch.len() == ROW_BATCH_SIZE {
                            conn.push_response(&Response::RowBatch {
                                rows: std::mem::take(&mut batch),
                            });
                            conn.flush()?;
                        }
                    }
                    Ok(None) => break Response::RowsEnd,
                    // Mid-stream failure: the header is already on the wire,
                    // so abort the stream with an error frame (dropping
                    // `rows` cancels in-flight shard scans).
                    Err(e) => break error_frame(e),
                }
            };
            if !batch.is_empty() && matches!(end, Response::RowsEnd) {
                conn.push_response(&Response::RowBatch { rows: batch });
            }
            conn.push_response(&end);
        }
    }
    conn.flush()
}
