//! Proxy admin endpoint: a minimal HTTP/1.1 server exposing the kernel's
//! metrics registry in Prometheus text exposition format at `GET /metrics`,
//! plus the trace collector ring as JSON at `GET /traces` when the server
//! was started with one.
//!
//! Deliberately tiny — it parses only the request line, answers `/metrics`,
//! `/traces` and `/healthz`, and closes the connection after each response.
//! That is all a scrape loop needs, and it keeps the proxy free of HTTP
//! framework dependencies.

use crate::accept::Acceptor;
use shard_core::{MetricsRegistry, TraceCollector};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// A running metrics exposition server.
pub struct MetricsServer {
    acceptor: Acceptor,
}

impl MetricsServer {
    /// Serve `GET /metrics` on `127.0.0.1:port` (`port = 0` picks a free
    /// port). Each scrape renders the registry at that instant.
    pub fn start(registry: Arc<MetricsRegistry>, port: u16) -> std::io::Result<MetricsServer> {
        MetricsServer::start_with_traces(registry, None, port)
    }

    /// Like [`start`](MetricsServer::start), additionally serving the trace
    /// collector ring as a JSON array at `GET /traces`.
    pub fn start_with_traces(
        registry: Arc<MetricsRegistry>,
        collector: Option<Arc<TraceCollector>>,
        port: u16,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let acceptor = Acceptor::spawn(listener, move |incoming| {
            for stream in incoming {
                serve_scrape(stream, &registry, collector.as_deref());
            }
        })?;
        Ok(MetricsServer { acceptor })
    }

    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

/// Answer one scrape request and close. Scrapes are serial and rare (one
/// per collection interval), so blocking the accept loop is fine.
fn serve_scrape(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    collector: Option<&TraceCollector>,
) {
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .ok();
    let mut buf = [0u8; 4096];
    let mut filled = 0usize;
    // Read until the header terminator; the request line is all we use.
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if buf[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf[..filled]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_prometheus(),
        ),
        "/traces" if collector.is_some() => (
            "200 OK",
            "application/json; charset=utf-8",
            collector.map(|c| c.traces_json()).unwrap_or_default(),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    /// Golden strict-format check: every line of a real `/metrics` scrape
    /// must be a well-formed Prometheus text-exposition line — `# HELP` with
    /// escaped payload, `# TYPE` with a known type, or `name[{labels}]
    /// value` — and histogram families must be internally consistent
    /// (cumulative buckets, `+Inf` == `_count`).
    #[test]
    fn scrape_is_strict_prometheus_text_format() {
        let registry = Arc::new(MetricsRegistry::new());
        registry
            .counter("golden_total", "line one\nline two \\ backslash")
            .add(7);
        registry
            .histogram("golden_us", "golden histogram")
            .record_us(3);
        let server = MetricsServer::start(Arc::clone(&registry), 0).unwrap();
        let response = scrape(server.addr(), "/metrics");
        let body = response.split("\r\n\r\n").nth(1).unwrap();

        // HELP escaping: the newline and backslash from the help string
        // arrive escaped, never raw (a raw newline corrupts the scrape).
        assert!(
            body.contains("# HELP golden_total line one\\nline two \\\\ backslash"),
            "{body}"
        );
        assert!(body.contains("# TYPE golden_total counter"), "{body}");
        assert!(body.contains("golden_total 7\n"), "{body}");

        let name_ok = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                && !n.starts_with(|c: char| c.is_ascii_digit())
        };
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                assert!(name_ok(name), "bad HELP name in {line:?}");
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                assert!(name_ok(parts.next().unwrap_or("")), "bad TYPE in {line:?}");
                let ty = parts.next().unwrap_or("");
                assert!(
                    ["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty),
                    "unknown TYPE '{ty}' in {line:?}"
                );
            } else {
                // Sample line: `<name>[{labels}] <value>`.
                let (name_part, value) = line.rsplit_once(' ').unwrap_or(("", ""));
                let bare = name_part.split('{').next().unwrap_or("");
                assert!(name_ok(bare), "bad sample name in {line:?}");
                assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            }
        }

        // Histogram consistency: buckets are cumulative and +Inf == count.
        let bucket_counts: Vec<u64> = body
            .lines()
            .filter(|l| l.starts_with("golden_us_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(!bucket_counts.is_empty());
        assert!(bucket_counts.windows(2).all(|w| w[0] <= w[1]), "{body}");
        let count: u64 = body
            .lines()
            .find(|l| l.starts_with("golden_us_count"))
            .and_then(|l| l.rsplit_once(' '))
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert_eq!(*bucket_counts.last().unwrap(), count);
        assert_eq!(count, 1);
    }

    #[test]
    fn traces_endpoint_serves_collector_json() {
        let registry = Arc::new(MetricsRegistry::new());
        let collector = Arc::new(TraceCollector::new());
        let root = ("proxy_frame", String::new());
        let now = std::time::Instant::now();
        let trace = collector.start("proxy:conn-1", root, "SELECT 1".into(), now, true);
        trace.finish(None, None);
        let server = MetricsServer::start_with_traces(
            Arc::clone(&registry),
            Some(Arc::clone(&collector)),
            0,
        )
        .unwrap();
        let response = scrape(server.addr(), "/traces");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(
            response.contains("Content-Type: application/json"),
            "{response}"
        );
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.starts_with("[{\"trace_id\":"), "{body}");
        assert!(body.contains("\"origin\":\"proxy:conn-1\""), "{body}");
        assert!(body.contains("\"name\":\"proxy_frame\""), "{body}");

        // Without a collector, /traces is not served.
        let bare = MetricsServer::start(registry, 0).unwrap();
        assert!(scrape(bare.addr(), "/traces").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn serves_prometheus_text_and_health() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("scrapes_total", "test counter").add(3);
        let server = MetricsServer::start(Arc::clone(&registry), 0).unwrap();
        let body = scrape(server.addr(), "/metrics");
        assert!(body.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("# TYPE scrapes_total counter"));
        assert!(body.contains("scrapes_total 3"));
        assert!(scrape(server.addr(), "/healthz").contains("ok"));
        assert!(scrape(server.addr(), "/nope").starts_with("HTTP/1.1 404"));
    }
}
