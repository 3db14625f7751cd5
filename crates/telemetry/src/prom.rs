//! Prometheus text-format exposition + the slow-query log.
//!
//! Zero dependencies: [`render_prometheus`] walks a [`MetricsSnapshot`]
//! and emits the Prometheus text format (version 0.0.4), and
//! [`serve_metrics`] runs a minimal opt-in HTTP/1.0 exposition server on
//! a plain `TcpListener` so a live serving process can be scraped
//! (`curl http://addr/metrics`) without stopping it.
//!
//! Histograms are exposed **summary-style** (`{quantile="…"}` lines plus
//! `_sum`/`_count`): the HDR layout has 3776 buckets, and shipping them
//! all as `_bucket` lines would bloat every scrape ~500× for no extra
//! information once the quantiles are precomputed server-side with the
//! ≤1 % error bound of [`crate::quantile_from_buckets`].

use crate::metrics::{MetricKind, MetricsSnapshot};
use crate::{flight, global};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Quantiles exposed for every histogram.
pub(crate) const EXPOSED_QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Sanitize a metric name into the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — dots (our namespace separator) and any
/// other invalid byte become `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Render a snapshot in Prometheus text format (version 0.0.4).
pub(crate) fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for e in &snap.entries {
        let name = sanitize(e.name);
        match e.kind {
            MetricKind::Counter => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", e.scalar()));
            }
            MetricKind::Gauge => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", e.scalar()));
            }
            MetricKind::Histogram => {
                out.push_str(&format!("# TYPE {name} summary\n"));
                for (q, label) in EXPOSED_QUANTILES {
                    if let Some(v) = e.quantile(q) {
                        out.push_str(&format!("{name}{{quantile=\"{label}\"}} {v}\n"));
                    }
                }
                out.push_str(&format!("{name}_sum {}\n", e.sum()));
                out.push_str(&format!("{name}_count {}\n", e.scalar()));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Exposition server
// ---------------------------------------------------------------------------

/// Handle to a running exposition server. Dropping it shuts the server
/// down (the accept loop is unblocked by a self-connection).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port 0 for tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() so the thread observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Start the opt-in exposition server on `addr` (e.g. `"127.0.0.1:0"`).
/// Every HTTP GET — the path is not inspected beyond being a request
/// line — receives the current [`global`] registry snapshot in
/// Prometheus text format. One thread, one connection at a time: this
/// is a scrape endpoint, not a web server.
pub fn serve_metrics(addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("qf-metrics".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                let _ = serve_one(&mut stream);
            }
        })?;
    Ok(MetricsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

fn serve_one(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_millis(500)))?;
    // Read up to the blank line that ends the request head (or 1 KiB, in
    // which any HTTP GET we care about fits).
    let mut head = BufReader::new(Read::take(&*stream, 1024));
    let mut line = Vec::new();
    while head.read_until(b'\n', &mut line)? > 2 {
        line.clear();
    }
    let body = render_prometheus(&global().snapshot());
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// Environment variable seeding the slow-query threshold (nanoseconds).
pub(crate) const ENV_SLOW_QUERY_NS: &str = "QUADFOREST_SLOW_QUERY_NS";

static SLOW_NS: AtomicU64 = AtomicU64::new(u64::MAX);
static SLOW_INIT: OnceLock<()> = OnceLock::new();

fn slow_init() {
    SLOW_INIT.get_or_init(|| {
        if let Some(v) = std::env::var(ENV_SLOW_QUERY_NS)
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            SLOW_NS.store(v, Ordering::Relaxed);
        }
    });
}

/// Set the slow-query threshold in nanoseconds. Batches slower than this
/// are logged to stderr, counted in `query.slow.count`, and recorded as
/// flight events. `u64::MAX` (the default) disables the log.
pub fn set_slow_query_threshold_ns(ns: u64) {
    slow_init();
    SLOW_NS.store(ns, Ordering::Relaxed);
}

/// Current slow-query threshold (ns); `u64::MAX` means disabled.
pub fn slow_query_threshold_ns() -> u64 {
    slow_init();
    SLOW_NS.load(Ordering::Relaxed)
}

/// Report one finished batch to the slow-query log: if `latency_ns`
/// meets the threshold, emit one stderr line, bump the global
/// `query.slow.count` counter, and record a [`flight`] `SlowQuery`
/// event. Below-threshold calls cost one atomic load and a compare.
#[inline]
pub fn note_batch_latency(kind: &str, batch_size: u64, latency_ns: u64) {
    if latency_ns < slow_query_threshold_ns() {
        return;
    }
    slow_query_hit(kind, batch_size, latency_ns);
}

#[cold]
fn slow_query_hit(kind: &str, batch_size: u64, latency_ns: u64) {
    global().counter("query.slow.count").incr();
    flight::event(flight::FlightKind::SlowQuery, 0, batch_size, latency_ns);
    eprintln!(
        "[slow-query] {kind} batch of {batch_size} took {:.3} ms (threshold {:.3} ms)",
        latency_ns as f64 / 1e6,
        slow_query_threshold_ns() as f64 / 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn renders_all_kinds_with_sanitized_names() {
        let reg = Registry::default();
        reg.counter("comm.msgs_sent").add(7);
        reg.gauge("snapshot.generation").set(3);
        let h = reg.histogram("query.point.latency_ns");
        for v in 1..=100u64 {
            h.record(v * 100);
        }
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE comm_msgs_sent counter\ncomm_msgs_sent 7\n"));
        assert!(text.contains("# TYPE snapshot_generation gauge\nsnapshot_generation 3\n"));
        assert!(text.contains("# TYPE query_point_latency_ns summary\n"));
        assert!(text.contains("query_point_latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("query_point_latency_ns{quantile=\"0.999\"}"));
        assert!(text.contains("query_point_latency_ns_sum 505000\n"));
        assert!(text.contains("query_point_latency_ns_count 100\n"));
        // every non-comment line is "name[{labels}] value"
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn scrape_roundtrip_over_tcp() {
        global().counter("telemetry.prom.test").add(41);
        let server = serve_metrics("127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK\r\n"), "{resp}");
        assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
        assert!(resp.contains("telemetry_prom_test"), "{resp}");
        drop(server); // shutdown must not hang
    }

    #[test]
    fn slow_query_threshold_gates_the_log() {
        let before = global().counter("query.slow.count").get();
        set_slow_query_threshold_ns(u64::MAX);
        note_batch_latency("point", 64, 1_000_000);
        assert_eq!(global().counter("query.slow.count").get(), before);
        set_slow_query_threshold_ns(1_000);
        note_batch_latency("point", 64, 5_000);
        assert_eq!(global().counter("query.slow.count").get(), before + 1);
        set_slow_query_threshold_ns(u64::MAX);
    }

    #[test]
    fn prometheus_text_is_pinned() {
        let reg = Registry::default();
        reg.counter("comm.msgs_sent").add(7);
        reg.gauge("snapshot.generation").set(3);
        reg.histogram("idle.ns");
        reg.counter("9bad-name").add(1);
        let h = reg.histogram("query.point.latency_ns");
        for v in 1..=100u64 {
            h.record(v * v * 37 + 13);
        }
        let want = r##"# TYPE comm_msgs_sent counter
comm_msgs_sent 7
# TYPE snapshot_generation gauge
snapshot_generation 3
# TYPE idle_ns summary
idle_ns_sum 0
idle_ns_count 0
# TYPE _bad_name counter
_bad_name 1
# TYPE query_point_latency_ns summary
query_point_latency_ns{quantile="0.5"} 92672
query_point_latency_ns{quantile="0.9"} 301056
query_point_latency_ns{quantile="0.99"} 362496
query_point_latency_ns{quantile="0.999"} 370688
query_point_latency_ns_sum 12520250
query_point_latency_ns_count 100
"##;
        assert_eq!(render_prometheus(&reg.snapshot()), want);
    }
}
