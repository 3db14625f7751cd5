//! One parameterized harness, three transports.
//!
//! Every test here runs the same registered programs (see
//! `quadforest_bench::transport`) on the in-process thread backend,
//! the Unix-socket process-per-rank backend, and the TCP
//! process-per-rank backend, and demands identical observable
//! behavior: bit-identical pipeline digests under fault injection,
//! identically-shaped failure reports for scheduled rank deaths, and
//! recovery to a leaf-identical forest — including from a real
//! `SIGKILL` of a rank *process* mid-pipeline, something the thread
//! backend can only approximate.
//!
//! The worker executable for socket worlds is the `repro` binary
//! itself: its `main` calls `maybe_run_socket_child(&registry())`
//! first, so spawning it with the supervisor's environment variables
//! set turns it into a rank process running the requested program.

use quadforest_bench::transport::{
    self, decode_digest, decode_view, recovery_args, CHAOS_PIPELINE, RECOVERY_PIPELINE,
};
use quadforest_comm::{
    run_with_recovery_program, try_run_program, Attempt, Backend, CommError, FaultPlan, RankError,
    RecoveryOptions, RecoveryPolicy, RunOptions, SocketOptions, TcpOptions,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The repro binary doubles as the socket-backend worker.
fn worker() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_repro"))
}

/// Socket options tightened for CI: fast heartbeats, a death window
/// short enough that stall tests finish quickly but wide enough to
/// survive a loaded machine.
fn socket_backend() -> Backend {
    let mut o = SocketOptions::new(worker());
    o.heartbeat_interval = Duration::from_millis(25);
    o.heartbeat_grace = 40; // 1 s death window
    Backend::Sockets(o)
}

/// TCP options with the same liveness budget as the socket backend;
/// the reconnect schedule stays at its defaults (it only engages when
/// a connection actually breaks, which these parity tests don't do).
fn tcp_backend() -> Backend {
    let mut o = TcpOptions::new(worker());
    o.heartbeat_interval = Duration::from_millis(25);
    o.heartbeat_grace = 40; // 1 s death window
    Backend::Tcp(o)
}

/// The parameterization: every test body runs once per backend.
fn backends() -> Vec<Backend> {
    vec![Backend::Threads, socket_backend(), tcp_backend()]
}

/// A fresh scratch directory unique to this process + call site.
fn scratch_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qf-transport-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_chaos_once(
    backend: &Backend,
    p: usize,
    faults: Option<FaultPlan>,
) -> Result<Vec<transport::PipelineDigest>, quadforest_comm::WorldError> {
    let opts = RunOptions {
        faults,
        ..RunOptions::default()
    };
    try_run_program(
        backend,
        p,
        &opts,
        &transport::registry(),
        CHAOS_PIPELINE,
        &[],
        Attempt::first(),
    )
    .map(|vals| vals.iter().map(|b| decode_digest(b)).collect())
}

/// The chaos suite of `repro --chaos`, on both backends: seeded delay +
/// reorder plans must leave the pipeline digest bit-identical to the
/// fault-free run, and the digest must also agree *across* backends —
/// serializing every payload through Wire frames cannot change a single
/// leaf.
#[test]
fn chaos_digests_are_identical_across_backends() {
    for &p in &[1usize, 2, 4] {
        let reference = run_chaos_once(&Backend::Threads, p, None).expect("threads fault-free");
        for backend in backends() {
            let clean = run_chaos_once(&backend, p, None)
                .unwrap_or_else(|e| panic!("{} fault-free run failed: {e}", backend.name()));
            assert_eq!(
                clean,
                reference,
                "fault-free digest diverged on {} at P={p}",
                backend.name()
            );
            for seed in [11u64, 33] {
                let plan = FaultPlan::new(seed)
                    .with_delays(0.2, Duration::from_micros(100))
                    .with_reordering(0.25);
                let chaotic = run_chaos_once(&backend, p, Some(plan))
                    .unwrap_or_else(|e| panic!("{} chaos run failed: {e}", backend.name()));
                assert_eq!(
                    chaotic,
                    reference,
                    "chaos digest diverged on {} at P={p} seed={seed}",
                    backend.name()
                );
            }
        }
    }
}

/// A scheduled rank death is reported, not hung, on both backends: the
/// world error names the victim as origin and carries the fault
/// injection reason. The failure *mechanism* differs — a panic on
/// threads, collateral abort of a real process world on sockets — but
/// the report shape is the same.
#[test]
fn scheduled_panic_death_is_reported_on_both_backends() {
    for backend in backends() {
        let plan = FaultPlan::new(1).with_panic_at(2, 8);
        let err = run_chaos_once(&backend, 4, Some(plan))
            .expect_err("scheduled death must fail the world");
        assert_eq!(err.origin, 2, "wrong origin on {}", backend.name());
        assert!(
            err.reason
                .contains("fault injection: scheduled panic at comm op 8"),
            "reason not preserved on {}: {}",
            backend.name(),
            err.reason
        );
    }
}

/// ACCEPTANCE: a rank process is `kill -9`ed mid-pipeline on each
/// process-per-rank backend (sockets and TCP); the supervisor detects
/// the death as `CommError::PeerFailed`, `run_with_recovery_program`
/// restarts a fresh set of processes, the retry restores the last good
/// checkpoint, and the recovered forest is leaf-identical to the
/// fault-free run.
#[test]
fn sigkill_mid_pipeline_recovers_leaf_identical_forest() {
    const P: usize = 4;
    const SEED: u64 = 0xC0FFEE;

    // fault-free reference views, threads backend
    let baseline_dir = scratch_dir("sigkill-baseline");
    let baseline = try_run_program(
        &Backend::Threads,
        P,
        &RunOptions::default(),
        &transport::registry(),
        RECOVERY_PIPELINE,
        &recovery_args(&baseline_dir, SEED),
        Attempt::first(),
    )
    .expect("baseline run");
    let baseline: Vec<transport::RankView> = baseline.iter().map(|b| decode_view(b)).collect();
    let _ = std::fs::remove_dir_all(&baseline_dir);

    for backend in [socket_backend(), tcp_backend()] {
        let dir = scratch_dir("sigkill");
        let args = recovery_args(&dir, SEED);

        // attempt 0: rank 1's process is SIGKILLed at its 10th comm op —
        // after the checkpoint save, mid expensive phases
        let opts = RecoveryOptions {
            policy: RecoveryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(1),
                ..RecoveryPolicy::default()
            },
            plans: vec![Some(FaultPlan::new(SEED).with_sigkill_at(1, 10))],
            ..RecoveryOptions::default()
        };
        let outcome = run_with_recovery_program(
            &backend,
            P,
            opts,
            &transport::registry(),
            RECOVERY_PIPELINE,
            &args,
        )
        .unwrap_or_else(|e| {
            panic!(
                "{}: recovery must converge after the SIGKILL: {e}",
                backend.name()
            )
        });

        assert_eq!(
            outcome.attempts,
            2,
            "exactly one retry expected on {}",
            backend.name()
        );
        let death = &outcome.failures[0];
        assert_eq!(
            death.origin,
            1,
            "the SIGKILLed rank must be the origin on {}",
            backend.name()
        );
        let origin = death.origin_failure().expect("origin failure recorded");
        assert!(
            matches!(
                origin.error,
                RankError::Failed(CommError::PeerFailed { rank: 1, .. })
            ),
            "a real process death must surface as PeerFailed on {}, got: {:?}",
            backend.name(),
            origin.error
        );
        let recovered: Vec<transport::RankView> =
            outcome.values.iter().map(|b| decode_view(b)).collect();
        assert_eq!(
            recovered,
            baseline,
            "recovered forest must be leaf-identical to the fault-free run ({})",
            backend.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The PR 4 kill-point scan, parameterized over backends: kill the
/// victim at a sweep of comm-op indices; every death must recover to
/// the fault-free views. Threads sweeps panics densely; sockets sweeps
/// real SIGKILLs at a stride (process spawns are ~10³× costlier than
/// thread spawns).
#[test]
fn kill_point_scan_recovers_on_both_backends() {
    const P: usize = 3;
    const SEED: u64 = 0xBEEF;
    const VICTIM: usize = 1;

    let baseline_dir = scratch_dir("scan-baseline");
    let baseline = try_run_program(
        &Backend::Threads,
        P,
        &RunOptions::default(),
        &transport::registry(),
        RECOVERY_PIPELINE,
        &recovery_args(&baseline_dir, SEED),
        Attempt::first(),
    )
    .expect("baseline run");
    let baseline: Vec<transport::RankView> = baseline.iter().map(|b| decode_view(b)).collect();
    let _ = std::fs::remove_dir_all(&baseline_dir);

    for backend in backends() {
        let (stride, cap) = match backend {
            Backend::Threads => (1u64, u64::MAX),
            Backend::Sockets(_) | Backend::Tcp(_) => (5, 42),
        };
        let mut op = 0u64;
        let mut deaths = 0u32;
        loop {
            let dir = scratch_dir("scan");
            let plan = match backend {
                Backend::Threads => FaultPlan::new(SEED).with_panic_at(VICTIM, op),
                Backend::Sockets(_) | Backend::Tcp(_) => {
                    FaultPlan::new(SEED).with_sigkill_at(VICTIM, op)
                }
            };
            let opts = RecoveryOptions {
                policy: RecoveryPolicy {
                    max_attempts: 2,
                    base_delay: Duration::from_micros(200),
                    ..RecoveryPolicy::default()
                },
                plans: vec![Some(plan)],
                ..RecoveryOptions::default()
            };
            let outcome = run_with_recovery_program(
                &backend,
                P,
                opts,
                &transport::registry(),
                RECOVERY_PIPELINE,
                &recovery_args(&dir, SEED),
            )
            .unwrap_or_else(|e| panic!("op {op} on {}: recovery failed: {e}", backend.name()));
            let views: Vec<transport::RankView> =
                outcome.values.iter().map(|b| decode_view(b)).collect();
            assert_eq!(
                views,
                baseline,
                "op {op} on {}: recovered forest differs from fault-free",
                backend.name()
            );
            let _ = std::fs::remove_dir_all(&dir);
            if outcome.attempts == 1 {
                // the scheduled death fell past the end of the program —
                // the scan is complete
                break;
            }
            deaths += 1;
            op += stride;
            if op >= cap {
                break;
            }
        }
        assert!(
            deaths >= 3,
            "scan on {} must actually exercise several kill points, got {deaths}",
            backend.name()
        );
    }
}

/// ACCEPTANCE (observability): every mid-pipeline death leaves a
/// decodable flight-recorder postmortem on disk whose rendering names
/// the victim's last communication operation and phase. Exercised on
/// both failure mechanisms: a real `SIGKILL` of a rank process (the
/// supervisor dumps `flight-sup.qfr` carrying the victim's last
/// heartbeat-reported comm op) and a scheduled panic on the thread
/// backend (the shared ring dumps with the victim's own events).
///
/// The postmortem directory is process-global and tests in this binary
/// run in parallel, so other kill tests may dump here too once the dir
/// is set; assertions are therefore existential (some decodable dump
/// with the expected content), never exhaustive.
#[test]
fn mid_pipeline_death_leaves_decodable_postmortem() {
    use quadforest_telemetry::flight::{FlightDump, FlightKind};

    const SEED: u64 = 0xD0D0;
    let dump_dir = scratch_dir("postmortem");
    std::fs::create_dir_all(&dump_dir).expect("create postmortem dir");
    quadforest_telemetry::flight::set_postmortem_dir(&dump_dir);

    for backend in backends() {
        let victim = 2usize;
        let plan = match backend {
            Backend::Threads => FaultPlan::new(SEED).with_panic_at(victim, 8),
            Backend::Sockets(_) | Backend::Tcp(_) => {
                FaultPlan::new(SEED).with_sigkill_at(victim, 8)
            }
        };
        let err = run_chaos_once(&backend, 4, Some(plan))
            .expect_err("scheduled death must fail the world");
        assert_eq!(err.origin, victim, "wrong origin on {}", backend.name());

        let mut decoded = 0usize;
        let mut named_comm_op = false;
        for entry in std::fs::read_dir(&dump_dir).expect("read postmortem dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("qfr") {
                continue;
            }
            let bytes = std::fs::read(&path).expect("read .qfr");
            let dump = FlightDump::decode(&bytes)
                .unwrap_or_else(|e| panic!("{} is not decodable: {e}", path.display()));
            decoded += 1;
            let text = dump.render();
            assert!(!text.is_empty(), "empty rendering for {}", path.display());
            // The supervisor-side dump records the death as a PeerFailed
            // event whose rendering names the last comm op and phase; a
            // victim-side dump names its own comm traffic directly.
            let has_peer_failed = dump.events.iter().any(|e| e.kind == FlightKind::PeerFailed);
            let has_comm = dump.events.iter().any(|e| {
                matches!(
                    e.kind,
                    FlightKind::CommSend | FlightKind::CommRecv | FlightKind::Collective
                )
            });
            if (has_peer_failed && text.contains("comm op")) || has_comm {
                named_comm_op = true;
            }
        }
        assert!(
            decoded > 0,
            "{}: death produced no decodable .qfr postmortem in {}",
            backend.name(),
            dump_dir.display()
        );
        assert!(
            named_comm_op,
            "{}: no postmortem names the victim's communication activity",
            backend.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dump_dir);
}

/// A rank that silently stops heartbeating (but whose connection stays
/// open) is declared dead by the supervisor's missed-heartbeat window —
/// the liveness path that EOF detection cannot cover. On TCP this also
/// proves an *open but silent* connection cannot satisfy liveness: the
/// session layer's acks are no substitute for heartbeats.
#[test]
fn stalled_rank_is_detected_via_missed_heartbeats() {
    let mut sock = SocketOptions::new(worker());
    sock.heartbeat_interval = Duration::from_millis(20);
    sock.heartbeat_grace = 10; // 200 ms death window
    let mut tcp = TcpOptions::new(worker());
    tcp.heartbeat_interval = Duration::from_millis(20);
    tcp.heartbeat_grace = 10; // 200 ms death window
    for backend in [Backend::Sockets(sock), Backend::Tcp(tcp)] {
        let plan = FaultPlan::new(3).with_stall_at(2, 6);
        let err = run_chaos_once(&backend, 4, Some(plan))
            .expect_err("a stalled rank must fail the world, not hang it");
        assert_eq!(err.origin, 2, "wrong origin on {}", backend.name());
        assert!(
            err.reason.contains("heartbeat"),
            "stall must be attributed to the missed-heartbeat window on {}: {}",
            backend.name(),
            err.reason
        );
    }
}

/// The data-bearing solver loop on every transport: the registered
/// `PDE_ADVECTION` program (step, adapt, repartition with the 512-byte
/// patches riding the partition all-to-all) at P ∈ {1, 2, 4}. All ranks
/// of a world must agree on the state digest, the digest must not depend
/// on whether the patches crossed a thread channel, a Unix socket or a
/// TCP session at equal P, mass must be conserved to machine precision,
/// and repartitioning must actually have shipped whole patches.
#[test]
fn advection_state_is_identical_across_backends() {
    // 40 steps, base level 3, finest 5, adapt + repartition every 5: long
    // enough that P = 2 migrates a patch (a 20-step run migrates none)
    let args = transport::pde_args(40, 3, 5, 5);
    let mut across_p = None;
    for &p in &[1usize, 2, 4] {
        let mut reference = None;
        for backend in backends() {
            let views: Vec<transport::PdeView> = try_run_program(
                &backend,
                p,
                &RunOptions::default(),
                &transport::registry(),
                transport::PDE_ADVECTION,
                &args,
                Attempt::first(),
            )
            .unwrap_or_else(|e| panic!("advection failed on {} at P={p}: {e}", backend.name()))
            .iter()
            .map(|b| transport::decode_pde(b))
            .collect();
            let (cells, migrated, drift, digest) = views[0];
            for (r, v) in views.iter().enumerate() {
                assert_eq!(
                    v.3,
                    digest,
                    "rank {r} disagrees on the state digest on {} at P={p}",
                    backend.name()
                );
            }
            assert!(cells > 0, "no cell was updated");
            assert!(
                drift < 1e-12,
                "mass drift {drift:e} on {} at P={p}",
                backend.name()
            );
            if p > 1 {
                assert!(
                    migrated > 0 && migrated % 512 == 0,
                    "migrated {migrated} bytes on {} at P={p}: expected whole 512-byte patches",
                    backend.name()
                );
            }
            assert_eq!(
                (cells, digest),
                *reference.get_or_insert((cells, digest)),
                "{} diverged from the threads backend at P={p}",
                backend.name()
            );
            assert_eq!(
                digest,
                *across_p.get_or_insert(digest),
                "the state digest at P={p} on {} differs from P=1's",
                backend.name()
            );
        }
    }
}

/// A rank argument outside `0..P` fails its call at once on a process
/// world too, by name: not as a "corrupt route" SIGKILL of the sender
/// of a `send`, nor after the whole receive timeout of a `recv`.
#[test]
fn out_of_range_rank_fails_at_once_on_sockets() {
    for (op, arg) in [(0u8, "dest 4"), (1, "src 4"), (2, "root 4"), (3, "root 4")] {
        let start = std::time::Instant::now();
        let err = try_run_program(
            &socket_backend(),
            4,
            &RunOptions::default(),
            &transport::registry(),
            "out-of-range",
            &[op],
            Attempt::first(),
        )
        .expect_err(arg);
        assert!(start.elapsed() < Duration::from_secs(10), "{arg}: too slow");
        assert_eq!(err.origin, 0, "{arg}: {}", err.reason);
        assert!(err.reason.contains(arg), "{arg}: {}", err.reason);
    }
}
