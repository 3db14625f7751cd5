//! The live metrics endpoint, scraped exactly as Prometheus would: a
//! `QueryExecutor` workload fills the global registry (with the
//! slow-query threshold at 1 ns, so the slow-query counter moves too),
//! `serve_metrics` is scraped over a real `TcpStream`, and the body must
//! be valid text exposition format (version 0.0.4) carrying the query
//! engine's families.

use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{Quadrant, StandardQuad};
use quadforest_forest::Forest;
use quadforest_query::{BoxQuery, ForestSnapshot, QueryExecutor, SnapshotHandle};
use quadforest_telemetry as telemetry;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::sync::Arc;

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`
fn is_metric_name(s: &str) -> bool {
    let ok = |i: usize, c: char| {
        c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
    };
    !s.is_empty() && s.chars().enumerate().all(|(i, c)| ok(i, c))
}

/// Split a sample line `name[{quantile="q"}] value` into its metric
/// name, panicking with the line on any grammar violation.
fn sample_name(line: &str) -> &str {
    let (series, value) = line
        .split_once(' ')
        .unwrap_or_else(|| panic!("bad sample line: {line:?}"));
    assert!(value.parse::<f64>().is_ok(), "bad sample value: {line:?}");
    let name = match series.split_once('{') {
        None => series,
        Some((name, label)) => {
            let q = label
                .strip_prefix("quantile=\"")
                .and_then(|l| l.strip_suffix("\"}"))
                .unwrap_or_else(|| panic!("bad label set: {line:?}"));
            let q: f64 = q
                .parse()
                .unwrap_or_else(|_| panic!("bad quantile: {line:?}"));
            assert!(q > 0.0 && q < 1.0, "quantile outside (0, 1): {line:?}");
            name
        }
    };
    assert!(is_metric_name(name), "bad metric name: {line:?}");
    name
}

#[test]
fn scrape_is_valid_exposition_format_with_the_query_families() {
    let snap = quadforest_comm::run(1, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<StandardQuad<2>>::new_uniform(conn, &comm, 5);
        f.refine(&comm, false, |_, q| {
            q.level() < 6 && q.morton_abs().is_multiple_of(3)
        });
        ForestSnapshot::build(&f, 1)
    })
    .pop()
    .expect("one rank, one snapshot");
    let root = StandardQuad::<2>::len_at(0);
    let points: Vec<(u32, [i32; 3])> = (0..4096u64)
        .map(|i| {
            let x = (i.wrapping_mul(48271) % root as u64) as i32;
            let y = (i.wrapping_mul(16807) % root as u64) as i32;
            (0u32, [x, y, 0])
        })
        .collect();

    let threshold = telemetry::slow_query_threshold_ns();
    telemetry::set_slow_query_threshold_ns(1);
    let exec = QueryExecutor::new(SnapshotHandle::new(snap), 2);
    for c in points.chunks(512) {
        assert!(exec
            .submit_points(c.to_vec())
            .wait()
            .iter()
            .all(Option::is_some));
    }
    let hits = exec
        .submit_boxes(vec![BoxQuery {
            tree: 0,
            lo: [0, 0, 0],
            hi: [root / 4, root / 4, 0],
        }])
        .wait();
    assert!(!hits[0].is_empty());
    drop(exec);
    telemetry::set_slow_query_threshold_ns(threshold);

    let server = telemetry::serve_metrics("127.0.0.1:0").expect("bind metrics endpoint");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .expect("send scrape request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    drop(server);
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head and body");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");

    let mut typed = BTreeSet::new();
    let mut series = 0;
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(comment) = line.strip_prefix("# ") {
            let words: Vec<&str> = comment.split(' ').collect();
            assert!(
                matches!(words[..], ["TYPE", name, "counter" | "gauge" | "summary"] if is_metric_name(name)),
                "bad comment/TYPE line: {line:?}"
            );
            typed.insert(words[1]);
            continue;
        }
        let name = sample_name(line);
        let family = ["_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| typed.contains(base))
            })
            .unwrap_or(name);
        assert!(
            typed.contains(family),
            "sample {name:?} has no # TYPE declaration before it"
        );
        series += 1;
    }
    assert!(series > 20, "suspiciously small scrape: {series} series");
    for family in [
        "query_point_latency_ns",
        "query_batch_e2e_ns",
        "query_stage_serve_ns",
        "query_slow_count",
    ] {
        assert!(typed.contains(family), "missing family {family:?}");
    }
    let slow = body
        .lines()
        .find_map(|l| l.strip_prefix("query_slow_count "))
        .expect("query_slow_count sample");
    assert!(
        slow.parse::<u64>().expect("counter value") > 0,
        "a 1 ns threshold must count every batch as slow"
    );
}
