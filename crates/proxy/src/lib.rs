//! # shard-proxy
//!
//! ShardingSphere-Proxy (paper §VII-A): a standalone TCP server fronting the
//! sharding kernel. Unlike the JDBC adaptor, the proxy supports any client
//! language and centralizes connection pooling, at the cost of a network
//! forwarding hop per request — exactly the trade-off the paper's
//! evaluation quantifies (SSJ vs SSP).

mod accept;
pub mod admin;
pub mod client;
pub mod protocol;
pub mod server;

pub use admin::MetricsServer;
pub use client::{ClientError, ProxyClient};
pub use protocol::{Request, Response};
pub use server::ProxyServer;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FrameStream;
    use shard_core::ShardingRuntime;
    use shard_sql::Value;
    use shard_storage::StorageEngine;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    fn runtime() -> Arc<ShardingRuntime> {
        let runtime = ShardingRuntime::builder()
            .datasource("ds_0", StorageEngine::new("ds_0"))
            .datasource("ds_1", StorageEngine::new("ds_1"))
            .build();
        let mut s = runtime.session();
        s.execute_sql(
            "CREATE SHARDING TABLE RULE t (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=id, TYPE=mod, PROPERTIES(\"sharding-count\"=2))",
            &[],
        )
        .unwrap();
        s.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[])
            .unwrap();
        runtime
    }

    #[test]
    fn end_to_end_over_tcp() {
        let server = ProxyServer::start(runtime(), 0).unwrap();
        let mut client = ProxyClient::connect(server.addr()).unwrap();
        assert_eq!(
            client
                .update(
                    "INSERT INTO t (id, v) VALUES (?, ?)",
                    &[Value::Int(1), Value::Int(10)]
                )
                .unwrap(),
            1
        );
        let rs = client
            .query("SELECT v FROM t WHERE id = ?", &[Value::Int(1)])
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(10));
        client.quit();
    }

    #[test]
    fn errors_surface_to_client() {
        let server = ProxyServer::start(runtime(), 0).unwrap();
        let mut client = ProxyClient::connect(server.addr()).unwrap();
        let err = client.query("SELECT * FROM missing", &[]).unwrap_err();
        assert!(matches!(err, ClientError::Server { .. }));
        // connection still usable afterwards
        let rs = client.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
    }

    /// A shard failing mid-stream (after the RowsHeader frame is on the
    /// wire) reaches the client as one structured error frame carrying the
    /// kernel's transient/fatal/timeout classification, and the connection
    /// survives for the next query.
    #[test]
    fn mid_stream_fault_surfaces_one_classified_error_frame() {
        let runtime = runtime();
        let server = ProxyServer::start(Arc::clone(&runtime), 0).unwrap();
        let mut client = ProxyClient::connect(server.addr()).unwrap();
        for id in 0..32i64 {
            client
                .update(
                    "INSERT INTO t (id, v) VALUES (?, ?)",
                    &[Value::Int(id), Value::Int(id)],
                )
                .unwrap();
        }
        runtime
            .datasource("ds_1")
            .unwrap()
            .engine()
            .fault_injector()
            .inject(shard_storage::FaultPlan::new(
                shard_storage::FaultOp::RowPull,
                shard_storage::FaultKind::Error("disk gone".into()),
                shard_storage::FaultTrigger::EveryNth(1),
            ));
        let err = client
            .query("SELECT id FROM t ORDER BY id", &[])
            .unwrap_err();
        match &err {
            ClientError::Server { message, class } => {
                assert_eq!(class, "transient", "{message}");
                assert!(message.contains("row_pull fault"), "{message}");
            }
            other => panic!("expected a classified server error, got {other:?}"),
        }
        assert!(err.is_transient());
        // Faults cleared, the same connection serves the retry cleanly.
        runtime
            .datasource("ds_1")
            .unwrap()
            .engine()
            .fault_injector()
            .clear();
        let rs = client.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(32));
    }

    /// `SET VARIABLE statement_timeout_ms` protects a proxy client from a
    /// hung shard: the SELECT comes back as a `timeout`-classified error
    /// frame when the deadline says so, not when the shard lets go, and the
    /// connection serves the next statement.
    #[test]
    fn hung_shard_times_out_over_the_wire() {
        let runtime = runtime();
        let server = ProxyServer::start(Arc::clone(&runtime), 0).unwrap();
        let mut client = ProxyClient::connect(server.addr()).unwrap();
        client
            .update("INSERT INTO t (id, v) VALUES (1, 10)", &[])
            .unwrap();
        client
            .execute("SET VARIABLE statement_timeout_ms = 150", &[])
            .unwrap();
        let faults = runtime.datasource("ds_1").unwrap();
        let faults = faults.engine().fault_injector();
        faults.inject(shard_storage::FaultPlan::new(
            shard_storage::FaultOp::RowPull,
            shard_storage::FaultKind::Hang {
                max: std::time::Duration::from_secs(10),
            },
            shard_storage::FaultTrigger::Once,
        ));
        let start = std::time::Instant::now();
        let err = client
            .query("SELECT v FROM t WHERE id = ?", &[Value::Int(1)])
            .unwrap_err();
        let took = start.elapsed();
        match &err {
            ClientError::Server { message, class } => assert_eq!(class, "timeout", "{message}"),
            other => panic!("expected a classified server error, got {other:?}"),
        }
        assert!(took < std::time::Duration::from_secs(1), "{took:?}");
        faults.clear();
        let rs = client
            .query("SELECT v FROM t WHERE id = ?", &[Value::Int(1)])
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(10)]]);
    }

    #[test]
    fn transactions_are_per_connection() {
        let server = ProxyServer::start(runtime(), 0).unwrap();
        let mut a = ProxyClient::connect(server.addr()).unwrap();
        let mut b = ProxyClient::connect(server.addr()).unwrap();
        a.execute("BEGIN", &[]).unwrap();
        a.update("INSERT INTO t (id, v) VALUES (1, 1)", &[])
            .unwrap();
        // a's uncommitted row is not yet durable for b after rollback.
        a.execute("ROLLBACK", &[]).unwrap();
        let rs = b.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
        // commit path
        a.execute("BEGIN", &[]).unwrap();
        a.update("INSERT INTO t (id, v) VALUES (2, 2)", &[])
            .unwrap();
        a.execute("COMMIT", &[]).unwrap();
        let rs = b.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn concurrent_clients() {
        let server = ProxyServer::start(runtime(), 0).unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for worker in 0..4i64 {
            handles.push(std::thread::spawn(move || {
                let mut c = ProxyClient::connect(addr).unwrap();
                for i in 0..25i64 {
                    let id = worker * 100 + i;
                    c.update(
                        "INSERT INTO t (id, v) VALUES (?, ?)",
                        &[Value::Int(id), Value::Int(id)],
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut c = ProxyClient::connect(addr).unwrap();
        let rs = c.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(100));
        assert!(server.connections_served() >= 5);
    }

    #[test]
    fn distsql_over_the_wire() {
        let server = ProxyServer::start(runtime(), 0).unwrap();
        let mut c = ProxyClient::connect(server.addr()).unwrap();
        let rs = c.query("SHOW SHARDING TABLE RULES", &[]).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let rs = c
            .query("PREVIEW SELECT * FROM t WHERE id = 1", &[])
            .unwrap();
        assert!(rs.rows[0][1].to_string().contains("t_1"));
    }

    /// The admin endpoint and `SHOW METRICS` read the same registry: a
    /// statement served over the wire shows up in both.
    #[test]
    fn metrics_endpoint_shares_the_kernel_registry() {
        let runtime = runtime();
        let mut server = ProxyServer::start(Arc::clone(&runtime), 0).unwrap();
        let mut metrics_server = MetricsServer::start_with_traces(
            runtime.metrics_registry().clone(),
            Some(runtime.trace_collector().clone()),
            0,
        )
        .unwrap();
        let mut c = ProxyClient::connect(server.addr()).unwrap();
        c.update("INSERT INTO t (id, v) VALUES (1, 1)", &[])
            .unwrap();
        c.query("SELECT v FROM t WHERE id = 1", &[]).unwrap();

        // A connection's statements are served in order, so this one sees
        // the two before it fully recorded, and itself only as a frame.
        let rs = c.query("SHOW METRICS LIKE 'proxy_%'", &[]).unwrap();
        let find = |name: &str| {
            rs.rows
                .iter()
                .find(|r| r[0] == Value::Str(name.into()))
                .unwrap_or_else(|| panic!("missing {name} in {:?}", rs.rows))[1]
                .clone()
        };
        assert_eq!(find("proxy_connections_total"), Value::Int(1));
        assert_eq!(find("proxy_statement_us_count"), Value::Int(2));
        assert_eq!(find("proxy_frames_total"), Value::Int(3));

        // The same instruments over HTTP. The proxy records a statement's
        // time after its response has left, so wait for the connection
        // thread to finish before scraping.
        c.quit();
        server.shutdown();
        let mut stream = TcpStream::connect(metrics_server.addr()).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.contains("proxy_connections_total 1"), "{body}");
        assert!(body.contains("proxy_statement_us_count 3"), "{body}");
        assert!(
            body.contains("# TYPE proxy_statement_us histogram"),
            "{body}"
        );
        metrics_server.shutdown();
    }

    /// A peer for I/O-contract tests: reads hand out `input` at most
    /// `chunk` bytes per call, and every `write` call is recorded.
    struct Scripted {
        input: std::io::Cursor<Vec<u8>>,
        chunk: usize,
        writes: Vec<Vec<u8>>,
    }

    impl Scripted {
        fn new(input: Vec<u8>, chunk: usize) -> Self {
            Scripted {
                input: std::io::Cursor::new(input),
                chunk,
                writes: Vec::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.input.read(&mut buf[..n])
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Split one write's bytes into its frames' payloads; panics unless they
    /// are whole frames end to end.
    fn payloads(bytes: &[u8]) -> Vec<bytes::Bytes> {
        let mut cursor = std::io::Cursor::new(bytes);
        let mut out = Vec::new();
        while let Some(frame) = protocol::read_frame(&mut cursor).unwrap() {
            out.push(frame);
        }
        out
    }

    fn responses(bytes: &[u8]) -> Vec<Response> {
        payloads(bytes)
            .into_iter()
            .map(|f| protocol::decode_response(f).unwrap())
            .collect()
    }

    #[test]
    fn point_select_response_is_one_write_of_three_frames() {
        let runtime = runtime();
        let mut session = runtime.session();
        session
            .execute_sql("INSERT INTO t (id, v) VALUES (1, 10)", &[])
            .unwrap();
        let mut conn = FrameStream::new(Scripted::new(Vec::new(), usize::MAX));
        server::respond_query(
            &mut conn,
            &mut session,
            "SELECT v FROM t WHERE id = ?",
            &[Value::Int(1)],
        )
        .unwrap();
        let writes = &conn.get_ref().writes;
        assert_eq!(writes.len(), 1, "one write per response");
        assert_eq!(
            responses(&writes[0]),
            vec![
                Response::RowsHeader {
                    columns: vec!["v".into()]
                },
                Response::RowBatch {
                    rows: vec![vec![Value::Int(10)]]
                },
                Response::RowsEnd,
            ]
        );
    }

    /// The client sends a request as one write, and decodes a multi-frame
    /// response however the transport fragments it — here one byte per read.
    #[test]
    fn request_is_one_write_and_one_byte_reads_still_decode() {
        let batches = [
            vec![vec![Value::Int(1), Value::Str("a".into())]],
            vec![vec![Value::Int(2), Value::Null]],
        ];
        let mut server_side = FrameStream::new(Scripted::new(Vec::new(), usize::MAX));
        server_side.push_response(&Response::RowsHeader {
            columns: vec!["id".into(), "v".into()],
        });
        for rows in &batches {
            server_side.push_response(&Response::RowBatch { rows: rows.clone() });
        }
        server_side.push_response(&Response::RowsEnd);
        server_side.flush().unwrap();
        let wire = server_side.get_ref().writes.concat();

        let mut conn = FrameStream::new(Scripted::new(wire, 1));
        let params = [Value::Int(7), Value::Str("x".into())];
        let result = client::exchange(&mut conn, "SELECT id, v FROM t WHERE id < ?", &params);
        assert_eq!(result.unwrap().query().rows, batches.concat());

        let writes = &conn.get_ref().writes;
        assert_eq!(writes.len(), 1, "one write per request");
        let frames = payloads(&writes[0]);
        assert_eq!(frames.len(), 1);
        assert_eq!(
            protocol::decode_request(frames[0].clone()).unwrap(),
            Request::Query {
                sql: "SELECT id, v FROM t WHERE id < ?".into(),
                params: params.to_vec(),
            }
        );
    }

    /// Send one query on a raw connection and collect the response's frames.
    fn raw_query(wire: &mut FrameStream<TcpStream>, sql: &str) -> Vec<Response> {
        wire.push_query(sql, &[]);
        wire.flush().unwrap();
        let mut frames = Vec::new();
        loop {
            let frame = wire
                .read_frame()
                .unwrap()
                .expect("server closed mid-response");
            frames.push(protocol::decode_response(frame).unwrap());
            if !matches!(
                frames.last(),
                Some(Response::RowsHeader { .. } | Response::RowBatch { .. })
            ) {
                return frames;
            }
        }
    }

    /// A result larger than one batch still streams: it arrives as several
    /// `RowBatch` frames that add up to what JDBC returns in-process, and a
    /// shard failing after the first batches are on the wire ends the stream
    /// with one classified error frame, leaving the connection usable.
    #[test]
    fn large_result_streams_in_batches_and_aborts_cleanly_mid_stream() {
        let runtime = runtime();
        let mut jdbc =
            shard_jdbc::ShardingDataSource::from_runtime(Arc::clone(&runtime)).connection();
        for id in 0..1000i64 {
            jdbc.update(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                &[Value::Int(id), Value::Int(id * 3)],
            )
            .unwrap();
        }
        let server = ProxyServer::start(Arc::clone(&runtime), 0).unwrap();
        let mut wire = FrameStream::new(TcpStream::connect(server.addr()).unwrap());
        let sql = "SELECT id, v FROM t ORDER BY id";

        let frames = raw_query(&mut wire, sql);
        assert!(matches!(frames.first(), Some(Response::RowsHeader { .. })));
        assert_eq!(frames.last(), Some(&Response::RowsEnd));
        let batches: Vec<&Vec<Vec<Value>>> = frames
            .iter()
            .filter_map(|f| match f {
                Response::RowBatch { rows } => Some(rows),
                _ => None,
            })
            .collect();
        assert!(batches.len() >= 8, "{} batches", batches.len());
        assert_eq!(batches.len(), frames.len() - 2);
        let rows: Vec<Vec<Value>> = batches.into_iter().flatten().cloned().collect();
        assert_eq!(rows, jdbc.query(sql, &[]).unwrap().rows);

        // ds_1 holds the odd ids: its 300th row is about the 600th merged.
        let ds_1 = runtime.datasource("ds_1").unwrap();
        let faults = ds_1.engine().fault_injector();
        faults.inject(shard_storage::FaultPlan::new(
            shard_storage::FaultOp::RowPull,
            shard_storage::FaultKind::Error("disk gone".into()),
            shard_storage::FaultTrigger::EveryNth(300),
        ));
        let frames = raw_query(&mut wire, sql);
        let (last, before) = frames.split_last().unwrap();
        match last {
            Response::Error { message, class } => {
                assert_eq!(class, "transient", "{message}");
                assert!(message.contains("row_pull fault"), "{message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        assert!(matches!(before.first(), Some(Response::RowsHeader { .. })));
        assert!(
            before.len() > 1,
            "the fault hit after rows were on the wire"
        );
        assert!(before[1..]
            .iter()
            .all(|f| matches!(f, Response::RowBatch { .. })));

        faults.clear();
        let frames = raw_query(&mut wire, "SELECT COUNT(*) FROM t");
        assert_eq!(
            frames[1],
            Response::RowBatch {
                rows: vec![vec![Value::Int(1000)]]
            }
        );
    }

    /// A frame the server cannot decode is answered with a fatal error
    /// frame, and then the connection ends for the client too.
    #[test]
    fn malformed_request_is_refused_and_the_connection_closed() {
        let server = ProxyServer::start(runtime(), 0).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&[0, 0, 0, 1, 99]).unwrap();
        let mut wire = FrameStream::new(stream);
        let frame = wire.read_frame().unwrap().expect("an error frame");
        match protocol::decode_response(frame).unwrap() {
            Response::Error { class, .. } => assert_eq!(class, "fatal"),
            other => panic!("{other:?}"),
        }
        assert!(wire.read_frame().unwrap().is_none());
    }

    /// Autocommit SELECTs take the kernel's streaming path; they are
    /// observed like any other statement: counted and timed by the kernel's
    /// own instruments, seen by the SLO monitor, and — recording, here every
    /// one of them — each leaves one record that the slow log, the trace ring
    /// and the stage histograms all read.
    #[test]
    fn streamed_selects_reach_kernel_telemetry() {
        let runtime = runtime();
        let server = ProxyServer::start(Arc::clone(&runtime), 0).unwrap();
        let mut c = ProxyClient::connect(server.addr()).unwrap();
        for id in 0..8i64 {
            c.update(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                &[Value::Int(id), Value::Int(id)],
            )
            .unwrap();
        }
        c.execute("SET trace_sample = 1", &[]).unwrap();
        runtime.slow_query_log().set_threshold_us(1);
        let read = |name: &str| {
            let samples = runtime.metrics_registry().samples(Some(name));
            assert_eq!(samples.len(), 1, "{name}");
            samples[0].value
        };
        let proxy_traces = || {
            let traces = runtime.trace_collector().traces();
            let from_proxy = |t: &&Arc<shard_core::TraceRecord>| {
                t.origin == "proxy:conn-1" && t.spans[0].name == "proxy_frame"
            };
            traces.iter().filter(from_proxy).count()
        };
        let statements = read("kernel_statements_total");
        let timed = read("kernel_statement_us_count");
        let executed = read("stage_execute_us_count");
        let merged = (read("merge_input_rows_total"), read("merge_rows_total"));
        let traced = proxy_traces();
        // 50 point reads of one row and 50 two-shard scans of all eight.
        for id in 0..50i64 {
            c.query("SELECT v FROM t WHERE id = ?", &[Value::Int(id % 8)])
                .unwrap();
            c.query("SELECT id FROM t ORDER BY id", &[]).unwrap();
        }
        assert_eq!(read("kernel_statements_total"), statements + 100);
        assert_eq!(read("kernel_statement_us_count"), timed + 100);
        assert_eq!(read("stage_execute_us_count"), executed + 100);
        let rows = 50 + 50 * 8;
        assert_eq!(read("merge_input_rows_total"), merged.0 + rows);
        assert_eq!(read("merge_rows_total"), merged.1 + rows);
        assert_eq!(runtime.slow_query_log().entries().len(), 100);
        assert_eq!(proxy_traces(), traced + 100);
        runtime.slow_query_log().set_threshold_us(0);
        // Failures are counted and spend the SLO error budget like any
        // other statement's.
        c.execute("SET slo_error_pct = 1", &[]).unwrap();
        let errors = read("kernel_statement_errors_total");
        for _ in 0..10 {
            assert!(c.query("SELECT * FROM missing", &[]).is_err());
        }
        assert_eq!(read("kernel_statement_errors_total"), errors + 10);
        assert_eq!(runtime.slo_monitor().breaches_total(), 1);
    }

    #[test]
    fn clean_shutdown() {
        let mut server = ProxyServer::start(runtime(), 0).unwrap();
        let addr = server.addr();
        let mut c = ProxyClient::connect(addr).unwrap();
        c.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        c.quit();
        server.shutdown();
        // The listener is closed by the time shutdown returns.
        let refused = ProxyClient::connect(addr)
            .err()
            .expect("connect after shutdown");
        assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    /// Shutdown does not wait for idle clients to leave: it closes their
    /// connections, and they find out on their next statement.
    #[test]
    fn shutdown_closes_idle_connections() {
        let mut server = ProxyServer::start(runtime(), 0).unwrap();
        let mut c = ProxyClient::connect(server.addr()).unwrap();
        c.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        server.shutdown();
        assert!(c.query("SELECT COUNT(*) FROM t", &[]).is_err());
    }
}
