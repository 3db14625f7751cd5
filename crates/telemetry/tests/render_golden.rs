//! Every rendered telemetry output, pinned byte for byte on fixed inputs:
//! the Chrome trace, its counter events, the phase summary, the
//! cross-rank metrics table and the flight-recorder text. A renderer
//! change that moves one byte fails here.

use quadforest_telemetry::flight::{FlightDump, FlightEvent, FlightKind, NO_RANK};
use quadforest_telemetry::{
    aggregate, chrome_trace, metrics_table, summary_table, RankReport, Registry, SpanEvent,
};

fn ev(name: &'static str, start_ns: u64, dur_ns: u64, depth: u16) -> SpanEvent {
    SpanEvent {
        name,
        start_ns,
        dur_ns,
        depth,
    }
}

/// Two ranks; spans in completion order (inner before outer), so the
/// exporter has to sort them, with one start-time tie and a name that
/// needs escaping.
fn reports() -> Vec<RankReport> {
    vec![
        RankReport {
            rank: 0,
            spans: vec![
                ev("we\"ird", 1_600, 100, 2),
                ev("refine", 1_500, 250, 1),
                ev("adapt", 1_000, 2_000, 0),
                ev("balance", 4_000, 1_234_567, 0),
            ],
            dropped_spans: 2,
            ..Default::default()
        },
        RankReport {
            rank: 3,
            spans: vec![
                ev("refine", 1_100, 400, 0),
                ev("ghost", 5_100, 10, 1),
                ev("tie", 5_000, 5, 1),
                ev("partition", 5_000, 999, 0),
                ev("balance", 2_000, 1, 0),
            ],
            nesting_errors: 1,
            ..Default::default()
        },
    ]
}

/// A counter, a gauge and a histogram of 100 fixed values.
fn registry() -> Registry {
    let reg = Registry::default();
    reg.counter("query.served").add(42);
    reg.gauge("snapshot.generation").set(7);
    let h = reg.histogram("query.point.latency_ns");
    for v in 1..=100u64 {
        h.record(v * v * 37 + 13);
    }
    reg
}

#[test]
fn chrome_trace_is_pinned() {
    let want = r##"{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"quadforest"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"rank 0"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_sort_index","args":{"sort_index":0}},
{"ph":"X","pid":0,"tid":0,"cat":"phase","name":"adapt","ts":1.000,"dur":2.000,"args":{"depth":0}},
{"ph":"X","pid":0,"tid":0,"cat":"phase","name":"refine","ts":1.500,"dur":0.250,"args":{"depth":1}},
{"ph":"X","pid":0,"tid":0,"cat":"phase","name":"we\"ird","ts":1.600,"dur":0.100,"args":{"depth":2}},
{"ph":"X","pid":0,"tid":0,"cat":"phase","name":"balance","ts":4.000,"dur":1234.567,"args":{"depth":0}},
{"ph":"M","pid":0,"tid":3,"name":"thread_name","args":{"name":"rank 3"}},
{"ph":"M","pid":0,"tid":3,"name":"thread_sort_index","args":{"sort_index":3}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"refine","ts":1.100,"dur":0.400,"args":{"depth":0}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"balance","ts":2.000,"dur":0.001,"args":{"depth":0}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"partition","ts":5.000,"dur":0.999,"args":{"depth":0}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"tie","ts":5.000,"dur":0.005,"args":{"depth":1}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"ghost","ts":5.100,"dur":0.010,"args":{"depth":1}}
]}
"##;
    assert_eq!(chrome_trace(&reports(), &[]), want);
}

#[test]
fn counter_events_are_pinned() {
    let trace = chrome_trace(&reports(), &[(1_238_567, registry().snapshot())]);
    let want = r##"{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"quadforest"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"rank 0"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_sort_index","args":{"sort_index":0}},
{"ph":"X","pid":0,"tid":0,"cat":"phase","name":"adapt","ts":1.000,"dur":2.000,"args":{"depth":0}},
{"ph":"X","pid":0,"tid":0,"cat":"phase","name":"refine","ts":1.500,"dur":0.250,"args":{"depth":1}},
{"ph":"X","pid":0,"tid":0,"cat":"phase","name":"we\"ird","ts":1.600,"dur":0.100,"args":{"depth":2}},
{"ph":"X","pid":0,"tid":0,"cat":"phase","name":"balance","ts":4.000,"dur":1234.567,"args":{"depth":0}},
{"ph":"M","pid":0,"tid":3,"name":"thread_name","args":{"name":"rank 3"}},
{"ph":"M","pid":0,"tid":3,"name":"thread_sort_index","args":{"sort_index":3}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"refine","ts":1.100,"dur":0.400,"args":{"depth":0}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"balance","ts":2.000,"dur":0.001,"args":{"depth":0}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"partition","ts":5.000,"dur":0.999,"args":{"depth":0}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"tie","ts":5.000,"dur":0.005,"args":{"depth":1}},
{"ph":"X","pid":0,"tid":3,"cat":"phase","name":"ghost","ts":5.100,"dur":0.010,"args":{"depth":1}},
{"ph":"C","pid":0,"name":"query.served","ts":1238.567,"args":{"value":42}},
{"ph":"C","pid":0,"name":"snapshot.generation","ts":1238.567,"args":{"value":7}},
{"ph":"C","pid":0,"name":"query.point.latency_ns","ts":1238.567,"args":{"count":100,"mean":125202,"p50":92672,"p99":362496,"p999":370688}}
]}
"##;
    assert_eq!(trace, want);
}

#[test]
fn summary_table_is_pinned() {
    let want = r##"phase                     rank 0          rank 3        total ms
----------------------------------------------------------------
adapt                   1x 0.002        0x 0.000           0.002
refine                  1x 0.000        1x 0.000           0.001
we"ird                  1x 0.000        0x 0.000           0.000
balance                 1x 1.235        1x 0.000           1.235
tie                     0x 0.000        1x 0.000           0.000
partition               0x 0.000        1x 0.001           0.001
ghost                   0x 0.000        1x 0.000           0.000
(dropped spans: 2, nesting errors: 1)
"##;
    assert_eq!(summary_table(&reports()), want);
}

#[test]
fn metrics_table_is_pinned() {
    let rank0 = Registry::default();
    rank0.counter("comm.msgs_sent").add(7);
    rank0.gauge("forest.leaves").set(100);
    rank0.histogram("empty_ns");
    for v in 1..=50u64 {
        rank0.histogram("lat_ns").record(v * 3);
    }
    let rank1 = Registry::default();
    rank1.counter("comm.msgs_sent").add(5);
    for v in 0..100u64 {
        rank1.histogram("lat_ns").record(1_000 + v * 17);
    }
    rank1.counter("only.rank1").add(9);
    let rows = aggregate(&[rank0.snapshot(), rank1.snapshot()]);
    let want = r##"metric                                 kind          total     min/rank     max/rank     mean obs          p50          p99         p999
-----------------------------------------------------------------------------------------------------------------------------------------
comm.msgs_sent                      counter             12            5            7            -            -            -            -
forest.leaves                         gauge            100            0          100            -            -            -            -
empty_ns                          histogram              0            0            0            -            -            -            -
lat_ns                            histogram            150           50          100       1253.2         1416         2672         2672
only.rank1                          counter              9            0            9            -            -            -            -
"##;
    assert_eq!(metrics_table(&rows), want);
}

#[test]
fn flight_dump_text_is_pinned() {
    use FlightKind::*;
    let kinds = [
        PhaseEnter,
        PhaseExit,
        CommSend,
        CommRecv,
        Collective,
        BatchStart,
        BatchDone,
        Heartbeat,
        CheckpointCommit,
        PeerFailed,
        RecoveryRetry,
        SlowQuery,
    ];
    let events = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let i = i as u64;
            let rank = if kind == PeerFailed {
                NO_RANK
            } else {
                i as u32 % 3
            };
            FlightEvent {
                ts_ns: 1_000 + i * 12_345,
                kind,
                rank,
                a: (i % 4) as u32,
                b: if i.is_multiple_of(2) { 1 } else { 0x2a + i },
                c: if kind == Collective { 7 } else { 4_096 + i },
            }
        })
        .collect();
    let dump = FlightDump {
        rank: 2,
        names: vec!["?".into(), "balance".into()],
        events,
    };
    let want = r##"flight recorder postmortem · dumped by r2 · 12 events
          1000 ns    r0  phase-enter       phase 'balance'
         13345 ns    r1  phase-exit        phase '?' after 4097 ns
         25690 ns    r2  send              → r2 tag 0x1 (4098 bytes)
         38035 ns    r0  recv              ← r3 tag 0x2d (4099 bytes)
         50380 ns    r1  collective        #1 in phase '?'
         62725 ns    r2  batch-start       47 probes
         75070 ns    r0  batch-done        1 probes in 4102 ns
         87415 ns    r1  heartbeat         seq 49
         99760 ns    r2  checkpoint-commit generation 1
        112105 ns   sup  peer-failed       r1 last seen at comm op 51 in phase '?'
        124450 ns    r1  recovery-retry    after attempt 1
        136795 ns    r2  slow-query        53 probes took 4107 ns
"##;
    assert_eq!(dump.render(), want);
}
