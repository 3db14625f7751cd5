//! Network chaos on both process links: the wire itself is the
//! adversary.
//!
//! The parity chaos suite attacks message *scheduling* (delays,
//! reordering, rank deaths). This suite attacks the *transport*:
//! silently dropped frames, flipped bits, connection resets, and
//! asymmetric partitions, all injected deterministically from a seeded
//! [`FaultPlan`]. Each case runs on TCP and, as its `_on_sockets` row,
//! on a Unix socket: the same session runs over both. The contract
//! under test is the session layer's partition-tolerant liveness split:
//!
//! * damage healed **within** the missed-heartbeat grace window —
//!   reconnect, replay from the sequence/ack state, complete the
//!   pipeline bit-identically, with *zero* recovery-supervisor retries;
//! * damage that **outlives** the window — escalate to a typed
//!   `CommError::PeerFailed` and let `run_with_recovery_program`
//!   restart from the last checkpoint, never hang, never panic.

use quadforest_bench::transport::{
    self, decode_digest, decode_view, recovery_args, CHAOS_PIPELINE, RECOVERY_PIPELINE,
};
use quadforest_comm::{
    run_with_recovery_program, try_run_program, Attempt, Backend, CommError, FaultPlan, NetDir,
    RankError, RecoveryOptions, RecoveryPolicy, RunOptions, SocketOptions, TcpOptions,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The repro binary doubles as the TCP-backend worker.
fn worker() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_repro"))
}

/// TCP backend with a wide death window: chaos stalls (partitions,
/// reconnect backoff) must fit inside it without tripping liveness.
fn tcp_backend(grace: u32) -> Backend {
    let mut o = TcpOptions::new(worker());
    o.heartbeat_interval = Duration::from_millis(25);
    o.heartbeat_grace = grace;
    Backend::Tcp(o)
}

/// The sockets backend with the same heartbeats and grace.
fn sockets_backend(grace: u32) -> Backend {
    let mut o = SocketOptions::new(worker());
    o.heartbeat_interval = Duration::from_millis(25);
    o.heartbeat_grace = grace;
    Backend::Sockets(o)
}

/// A fresh scratch directory unique to this process + call site.
fn scratch_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qf-tcpchaos-{label}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Supervisor-side reconnect count (process-global, monotonic).
fn reconnects() -> u64 {
    quadforest_telemetry::global()
        .counter("transport.reconnects")
        .get()
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

/// Fault-free reference views on the thread backend.
fn baseline_views(p: usize, seed: u64, label: &str) -> Vec<transport::RankView> {
    let dir = scratch_dir(label);
    let views = try_run_program(
        &Backend::Threads,
        p,
        &RunOptions::default(),
        &transport::registry(),
        RECOVERY_PIPELINE,
        &recovery_args(&dir, seed),
        Attempt::first(),
    )
    .expect("baseline run");
    let views = views.iter().map(|b| decode_view(b)).collect();
    let _ = std::fs::remove_dir_all(&dir);
    views
}

/// ACCEPTANCE: an asymmetric partition opens mid-pipeline and heals
/// well inside the missed-heartbeat grace window. The session layer
/// must detect the sequence gap after the heal, reconnect, replay, and
/// finish the pipeline leaf-identical to the fault-free run — with the
/// recovery supervisor seeing **one** attempt and **zero** failures
/// (i.e. no `RecoveryRetry` at all), while the transport records at
/// least one reconnect.
#[test]
fn partition_heal_within_grace_completes_with_zero_recovery_retries() {
    const P: usize = 4;
    const SEED: u64 = 0x9EA1;
    let baseline = baseline_views(P, SEED, "heal-baseline");
    let before = reconnects();

    let dir = scratch_dir("heal");
    // both directions of rank 1's link go dark at its 3rd outbound data
    // frame, for 300 ms — far inside the 2 s death window
    let plan =
        FaultPlan::new(SEED).with_net_partition(1, NetDir::Both, 3, Duration::from_millis(300));
    let opts = RecoveryOptions {
        policy: RecoveryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            ..RecoveryPolicy::default()
        },
        plans: vec![Some(plan)],
        ..RecoveryOptions::default()
    };
    let outcome = run_with_recovery_program(
        &tcp_backend(80), // 2 s death window
        P,
        opts,
        &transport::registry(),
        RECOVERY_PIPELINE,
        &recovery_args(&dir, SEED),
    )
    .expect("a healed partition must not fail the world");

    assert_eq!(
        outcome.attempts, 1,
        "a partition healed within grace must need no recovery retry"
    );
    assert!(
        outcome.failures.is_empty(),
        "no failure may be recorded for a healed partition: {:?}",
        outcome.failures
    );
    let views: Vec<transport::RankView> = outcome.values.iter().map(|b| decode_view(b)).collect();
    assert_eq!(
        views, baseline,
        "post-heal pipeline must be leaf-identical to the fault-free run"
    );
    assert!(
        reconnects() > before,
        "the heal must have gone through at least one transport reconnect"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected bit corruption is caught by the frame CRC, surfaces as a
/// broken link (typed, never a panic), and the reconnect + replay path
/// resynchronizes: the pipeline still completes with digests
/// bit-identical to the fault-free run.
#[test]
fn wire_corruption_self_heals_bit_identical() {
    const P: usize = 4;
    let backend = tcp_backend(80);
    let reference = run_chaos_once(&Backend::Threads, P, None).expect("threads reference");
    for seed in [7u64, 21] {
        let plan = FaultPlan::new(seed)
            .with_net_corruption(0.05)
            .with_net_partial_writes(0.1)
            .with_net_drops(0.02);
        let chaotic = run_chaos_once(&backend, P, Some(plan))
            .unwrap_or_else(|e| panic!("corrupted wire must self-heal, seed {seed}: {e}"));
        assert_eq!(
            chaotic, reference,
            "digest diverged under wire corruption, seed {seed}"
        );
    }
}

/// A scheduled hard connection reset (RST right after a chosen data
/// frame) forces the reconnect path deterministically: the pipeline
/// completes bit-identically and the supervisor counts the reconnect.
#[test]
fn scheduled_reset_reconnects_and_completes() {
    const P: usize = 4;
    let before = reconnects();
    let reference = run_chaos_once(&Backend::Threads, P, None).expect("threads reference");
    let plan = FaultPlan::new(5).with_net_reset_at(1, 5);
    let result = run_chaos_once(&tcp_backend(80), P, Some(plan))
        .expect("a reset inside the grace window must not fail the world");
    assert_eq!(result, reference, "digest diverged after connection reset");
    assert!(
        reconnects() > before,
        "the reset must have forced at least one transport reconnect"
    );
}

/// A partition that outlives the death window is a real failure: the
/// victim is declared dead via missed heartbeats, the error is a typed
/// `PeerFailed` naming the rank, and one recovery retry restores a
/// leaf-identical forest from the checkpoint.
#[test]
fn permanent_partition_escalates_to_peer_failed_and_recovers() {
    const P: usize = 4;
    const SEED: u64 = 0xDEAD;
    let baseline = baseline_views(P, SEED, "perm-baseline");

    let dir = scratch_dir("perm");
    // outbound-only: rank 1 keeps receiving but its heartbeats vanish
    // for 30 s — far past the 1 s death window
    let plan = FaultPlan::new(SEED).with_net_partition(1, NetDir::Out, 3, Duration::from_secs(30));
    let opts = RecoveryOptions {
        policy: RecoveryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            ..RecoveryPolicy::default()
        },
        plans: vec![Some(plan)],
        ..RecoveryOptions::default()
    };
    let outcome = run_with_recovery_program(
        &tcp_backend(40), // 1 s death window
        P,
        opts,
        &transport::registry(),
        RECOVERY_PIPELINE,
        &recovery_args(&dir, SEED),
    )
    .expect("recovery must converge after the permanent partition");

    assert_eq!(outcome.attempts, 2, "exactly one retry expected");
    let death = &outcome.failures[0];
    assert_eq!(death.origin, 1, "the partitioned rank must be the origin");
    let origin = death.origin_failure().expect("origin failure recorded");
    assert!(
        matches!(
            origin.error,
            RankError::Failed(CommError::PeerFailed { rank: 1, .. })
        ),
        "a permanent partition must surface as PeerFailed, got: {:?}",
        origin.error
    );
    assert!(
        death.reason.contains("heartbeat"),
        "death must be attributed to the missed-heartbeat window: {}",
        death.reason
    );
    let recovered: Vec<transport::RankView> =
        outcome.values.iter().map(|b| decode_view(b)).collect();
    assert_eq!(
        recovered, baseline,
        "recovered forest must be leaf-identical to the fault-free run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery options with one fault plan for the first attempt.
fn recovery_opts(plan: FaultPlan) -> RecoveryOptions {
    RecoveryOptions {
        policy: RecoveryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            ..RecoveryPolicy::default()
        },
        plans: vec![Some(plan)],
        ..RecoveryOptions::default()
    }
}

/// `partition_heal_within_grace_completes_with_zero_recovery_retries`
/// over a Unix socket.
#[test]
fn partition_heal_within_grace_completes_with_zero_recovery_retries_on_sockets() {
    const P: usize = 4;
    const SEED: u64 = 0x9EA1;
    let baseline = baseline_views(P, SEED, "heal-baseline-sockets");
    let before = reconnects();
    let dir = scratch_dir("heal-sockets");
    let plan =
        FaultPlan::new(SEED).with_net_partition(1, NetDir::Both, 3, Duration::from_millis(300));
    let outcome = run_with_recovery_program(
        &sockets_backend(80), // 2 s death window
        P,
        recovery_opts(plan),
        &transport::registry(),
        RECOVERY_PIPELINE,
        &recovery_args(&dir, SEED),
    )
    .expect("a healed partition must not fail the world");
    assert_eq!(outcome.attempts, 1, "a healed partition needs no retry");
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let views: Vec<transport::RankView> = outcome.values.iter().map(|b| decode_view(b)).collect();
    assert_eq!(views, baseline, "post-heal pipeline must be leaf-identical");
    assert!(reconnects() > before, "the heal must have reconnected");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `wire_corruption_self_heals_bit_identical` over a Unix socket.
#[test]
fn wire_corruption_self_heals_bit_identical_on_sockets() {
    const P: usize = 4;
    let reference = run_chaos_once(&Backend::Threads, P, None).expect("threads reference");
    for seed in [7u64, 21] {
        let plan = FaultPlan::new(seed)
            .with_net_corruption(0.05)
            .with_net_partial_writes(0.1)
            .with_net_drops(0.02);
        let chaotic = run_chaos_once(&sockets_backend(80), P, Some(plan))
            .unwrap_or_else(|e| panic!("corrupted wire must self-heal, seed {seed}: {e}"));
        assert_eq!(chaotic, reference, "digest diverged, seed {seed}");
    }
}

/// `scheduled_reset_reconnects_and_completes` over a Unix socket.
#[test]
fn scheduled_reset_reconnects_and_completes_on_sockets() {
    const P: usize = 4;
    let before = reconnects();
    let reference = run_chaos_once(&Backend::Threads, P, None).expect("threads reference");
    let plan = FaultPlan::new(5).with_net_reset_at(1, 5);
    let result = run_chaos_once(&sockets_backend(80), P, Some(plan))
        .expect("a reset inside the grace window must not fail the world");
    assert_eq!(result, reference, "digest diverged after connection reset");
    assert!(reconnects() > before, "the reset must have reconnected");
}

/// `permanent_partition_escalates_to_peer_failed_and_recovers` over a
/// Unix socket.
#[test]
fn permanent_partition_escalates_to_peer_failed_and_recovers_on_sockets() {
    const P: usize = 4;
    const SEED: u64 = 0xDEAD;
    let baseline = baseline_views(P, SEED, "perm-baseline-sockets");
    let dir = scratch_dir("perm-sockets");
    let plan = FaultPlan::new(SEED).with_net_partition(1, NetDir::Out, 3, Duration::from_secs(30));
    let outcome = run_with_recovery_program(
        &sockets_backend(40), // 1 s death window
        P,
        recovery_opts(plan),
        &transport::registry(),
        RECOVERY_PIPELINE,
        &recovery_args(&dir, SEED),
    )
    .expect("recovery must converge after the permanent partition");
    assert_eq!(outcome.attempts, 2, "exactly one retry expected");
    let death = &outcome.failures[0];
    assert_eq!(death.origin, 1, "the partitioned rank must be the origin");
    let origin = death.origin_failure().expect("origin failure recorded");
    assert!(
        matches!(
            origin.error,
            RankError::Failed(CommError::PeerFailed { rank: 1, .. })
        ),
        "{:?}",
        origin.error
    );
    assert!(death.reason.contains("heartbeat"), "{}", death.reason);
    let recovered: Vec<transport::RankView> =
        outcome.values.iter().map(|b| decode_view(b)).collect();
    assert_eq!(
        recovered, baseline,
        "recovered forest must be leaf-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
