//! What the one process-world supervisor owes both of its link kinds,
//! Unix sockets and TCP alike: a healthy world may run for as long as
//! it keeps communicating, and what the supervisor sees — heartbeats,
//! deaths, injected kills — is counted where the supervising process
//! can read it.

use quadforest_bench::transport::{self, CHAOS_PIPELINE, CHATTER};
use quadforest_comm::{
    try_run_program, Attempt, Backend, FaultPlan, RunOptions, SocketOptions, TcpOptions,
};
use quadforest_core::Wire;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The repro binary doubles as the worker of both process backends.
fn worker() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_repro"))
}

/// Both process backends with 25 ms heartbeats and the given grace.
fn process_backends(grace: u32) -> [Backend; 2] {
    let mut sock = SocketOptions::new(worker());
    sock.heartbeat_interval = Duration::from_millis(25);
    sock.heartbeat_grace = grace;
    let mut tcp = TcpOptions::new(worker());
    tcp.heartbeat_interval = Duration::from_millis(25);
    tcp.heartbeat_grace = grace;
    [Backend::Sockets(sock), Backend::Tcp(tcp)]
}

/// Regression: the supervisor's backstop of 2·recv_timeout + death
/// window used to be a deadline on the world's *lifetime*, armed once at
/// startup — with the defaults, any healthy world was killed after
/// 122 s. It bounds silence: a world whose ranks keep exchanging
/// messages outlives it by any factor. Here the backstop is 1.5 s and
/// the world talks for 3.5 s.
#[test]
fn a_world_that_keeps_talking_outlives_the_backstop() {
    const TALK_MS: u64 = 3500;
    let opts = RunOptions {
        recv_timeout: Duration::from_millis(500),
        ..RunOptions::default()
    };
    // 500 ms death window: backstop = 2 × 500 ms + 500 ms
    let worlds: Vec<_> = process_backends(20)
        .into_iter()
        .map(|backend| {
            let opts = opts.clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let result = try_run_program(
                    &backend,
                    2,
                    &opts,
                    &transport::registry(),
                    CHATTER,
                    &TALK_MS.to_wire(),
                    Attempt::first(),
                );
                (backend.name(), result, t0.elapsed())
            })
        })
        .collect();
    for world in worlds {
        let (name, result, ran) = world.join().expect("world thread");
        let rounds = result.unwrap_or_else(|e| panic!("{name}: a healthy world was failed: {e}"));
        assert!(ran >= Duration::from_millis(TALK_MS), "{name}: ran {ran:?}");
        let rounds: Vec<u64> = (rounds.iter())
            .map(|bytes| u64::from_wire(bytes).expect("round count"))
            .collect();
        assert!(
            rounds[0] > 10 && rounds[0] == rounds[1],
            "{name}: {rounds:?}"
        );
    }
}

/// The supervisor's liveness counters land in the process-global
/// registry of the supervising process (its threads have no per-rank
/// recorder): after a world whose rank 2 is SIGKILLed, the heartbeats it
/// received, the kill it injected and the peer failure it declared are
/// all there to read.
#[test]
fn supervisor_counters_reach_the_global_registry() {
    let count = |name| quadforest_telemetry::global().counter(name).get();
    for backend in process_backends(40) {
        let before = (
            count("comm.heartbeat.received"),
            count("comm.sigkill.injected"),
            count("comm.peer_failures"),
        );
        let opts = RunOptions {
            faults: Some(FaultPlan::new(7).with_sigkill_at(2, 8)),
            ..RunOptions::default()
        };
        let err = try_run_program(
            &backend,
            4,
            &opts,
            &transport::registry(),
            CHAOS_PIPELINE,
            &[],
            Attempt::first(),
        )
        .expect_err("the SIGKILL must fail the world");
        let name = backend.name();
        assert_eq!(err.origin, 2, "wrong origin on {name}");
        assert!(count("comm.heartbeat.received") > before.0, "{name}");
        assert!(count("comm.sigkill.injected") > before.1, "{name}");
        assert!(count("comm.peer_failures") > before.2, "{name}");
    }
}

/// A steady exchange takes no fresh pages: once 20 warm-up rounds have
/// sized its buffers, 200 rounds of a 1 MB `Vec<Patch>` `alltoallv`
/// between two socket ranks cost each rank process fewer than 32 minor
/// page faults a round. Each message is encoded into, relayed from and
/// read into a reused buffer; a fresh 1 MB buffer alone faults in 256
/// pages.
#[test]
fn a_steady_bulk_exchange_takes_no_fresh_pages() {
    const ROUNDS: u64 = 200;
    let backend = Backend::Sockets(SocketOptions::new(worker()));
    let faults = try_run_program(
        &backend,
        2,
        &RunOptions::default(),
        &transport::registry(),
        "bulk-exchange",
        &(20u64, ROUNDS, 2000u64).to_wire(),
        Attempt::first(),
    )
    .unwrap_or_else(|e| panic!("a healthy world was failed: {e}"));
    for (rank, bytes) in faults.iter().enumerate() {
        let (faults, _) = <(u64, Vec<f64>)>::from_wire(bytes).expect("fault count");
        assert!(
            faults < 32 * ROUNDS,
            "rank {rank}: {faults} minor page faults over {ROUNDS} rounds"
        );
    }
}

/// A rank process that exits without reporting is dead within one
/// monitor sweep, by its exit, on both links: with the default options
/// the heartbeat window alone would take 2 s, and a broken stream is
/// only a link break that waits for a reconnect.
#[test]
fn an_exited_worker_is_dead_within_one_sweep() {
    let backends = [
        Backend::Sockets(SocketOptions::new(worker())),
        Backend::Tcp(TcpOptions::new(worker())),
    ];
    for backend in backends {
        let start = Instant::now();
        let err = try_run_program(
            &backend,
            2,
            &RunOptions::default(),
            &transport::registry(),
            "exit-after-barrier",
            &[],
            Attempt::first(),
        )
        .expect_err("an exited rank must fail the world");
        let (name, took) = (backend.name(), start.elapsed());
        assert_eq!(err.origin, 1, "{name}: {}", err.reason);
        assert!(
            err.reason
                .contains("rank 1 process exited (exit status: 7)"),
            "{name}: {}",
            err.reason
        );
        assert!(took < Duration::from_secs(1), "{name}: took {took:?}");
    }
}

/// A worker whose spawn record does not decode refuses to start: one
/// line naming the variable and exit code 3, the code of a worker that
/// cannot connect — not a panic, and not a run of the binary's own
/// `main` either.
#[test]
fn a_malformed_spawn_record_exits_3_with_one_line() {
    let out = std::process::Command::new(worker())
        .arg("--help")
        .env("QF_SOCKET_SPAWN", "zz")
        .output()
        .expect("run the worker binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert_eq!(stderr, "worker: QF_SOCKET_SPAWN is not lowercase hex\n");
    assert!(out.stdout.is_empty());
}
