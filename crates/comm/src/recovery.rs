//! The recovery supervisor: retry a collective program across world
//! failures.
//!
//! [`run_with_recovery`] wraps [`try_run_with`](crate::try_run_with):
//! when any rank dies (panic, typed failure, or receive timeout) the
//! whole world unwinds into a [`WorldError`]; the supervisor tears the
//! world down, waits out a bounded, jittered exponential backoff
//! ([`RecoveryPolicy`]), rebuilds a fresh world, and invokes the
//! program again with an incremented [`Attempt`]. The program is
//! responsible for making attempts idempotent — typically by
//! checkpointing progress (`Forest::save_checkpoint`) and restoring
//! from the newest valid generation when `attempt.is_retry()`.
//!
//! [`run_with_recovery_program`] is the backend-generic variant: the
//! same supervisor loop around a *named* program and a
//! [`Backend`](crate::Backend), so recovery also restarts real rank
//! **processes** on a process backend — including after a `kill -9`,
//! which no in-process supervisor can survive.
//!
//! Fault injection stays deterministic: [`RecoveryOptions::plans`]
//! assigns one optional [`FaultPlan`] per attempt index, so a chaos
//! test can kill a specific rank at a specific operation on attempt 0
//! and let attempt 1 run clean — same outcome every run.

use crate::{
    fault, try_run_with, Backend, Comm, CommError, FaultPlan, ProgramRegistry, RunOptions,
    WorldError,
};
use quadforest_telemetry as telemetry;
use std::fmt;
use std::time::Duration;

/// Backoff and retry policy of the recovery supervisor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total number of attempts (first try included). Must be ≥ 1.
    pub max_attempts: usize,
    /// Backoff before retry `k` is `base_delay · 2^(k-1)`, capped at
    /// [`RecoveryPolicy::max_delay`], then stretched by jitter.
    pub base_delay: Duration,
    /// Upper bound on a single backoff sleep (after jitter).
    pub max_delay: Duration,
    /// Jitter amplitude in parts-per-million of the computed backoff:
    /// the sleep is stretched by a *deterministic* pseudo-random factor
    /// in `[1, 1 + jitter_ppm/1e6]`, keyed by the attempt index. Zero
    /// disables jitter. Deterministic so chaos tests replay exactly;
    /// still decorrelates supervisors started at different attempts.
    pub jitter_ppm: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
            jitter_ppm: 0,
        }
    }
}

impl RecoveryPolicy {
    /// The backoff to sleep after failed attempt `index` (0-based):
    /// bounded exponential plus deterministic jitter.
    pub(crate) fn backoff_for(&self, index: usize) -> Duration {
        let base = self
            .base_delay
            .saturating_mul(1u32 << index.min(20) as u32)
            .min(self.max_delay);
        if self.jitter_ppm == 0 {
            return base;
        }
        // deterministic jitter: hash the attempt index, scale into
        // [0, jitter_ppm] ppm, stretch, re-cap
        let h = fault::mix64(index as u64 ^ 0x7265_636F_7665_7279); // "recovery"
        let ppm = (h % (self.jitter_ppm as u64 + 1)) as u32;
        let jitter = base.mul_f64(ppm as f64 / 1_000_000.0);
        (base + jitter).min(self.max_delay)
    }

    /// Surface the chosen policy in the process-global telemetry
    /// registry as gauges, so post-mortems can see what the supervisor
    /// was configured to do.
    fn publish(&self) {
        let g = telemetry::global();
        g.gauge("recovery.policy.max_attempts")
            .set(self.max_attempts as u64);
        g.gauge("recovery.policy.base_delay_ns")
            .set(self.base_delay.as_nanos() as u64);
        g.gauge("recovery.policy.max_delay_ns")
            .set(self.max_delay.as_nanos() as u64);
        g.gauge("recovery.policy.jitter_ppm")
            .set(self.jitter_ppm as u64);
    }
}

/// Options for [`run_with_recovery`]: the retry/backoff policy plus
/// per-attempt world configuration.
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    /// Retry and backoff policy.
    pub policy: RecoveryPolicy,
    /// Receive timeout handed to every attempt's world (see
    /// [`RunOptions::recv_timeout`]).
    pub recv_timeout: Duration,
    /// Deterministic fault plan per attempt index; attempts beyond the
    /// end of the vector run fault-free.
    pub plans: Vec<Option<FaultPlan>>,
}

// manual impl: a derived default would give recv_timeout ZERO, which
// times out instantly; this must match RunOptions::default()
impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            policy: RecoveryPolicy::default(),
            recv_timeout: Duration::from_secs(60),
            plans: Vec::new(),
        }
    }
}

/// Which attempt a program invocation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// Zero-based attempt index.
    pub index: usize,
}

impl Attempt {
    /// The first attempt.
    pub fn first() -> Self {
        Attempt { index: 0 }
    }

    /// True on every attempt after the first — the cue to restore from
    /// the last checkpoint instead of starting fresh.
    pub fn is_retry(&self) -> bool {
        self.index > 0
    }
}

/// A successful recovery outcome: the per-rank results plus the
/// failure history it took to get there.
#[derive(Debug)]
pub struct RecoveryOutcome<R> {
    /// Per-rank return values of the successful attempt, in rank order.
    pub values: Vec<R>,
    /// Number of attempts executed, including the successful one.
    pub attempts: usize,
    /// World errors of the failed attempts, oldest first.
    pub failures: Vec<WorldError>,
    /// Total time slept in backoff between attempts.
    pub total_backoff: Duration,
}

/// All attempts exhausted without a successful run.
#[derive(Debug)]
pub struct RecoveryError {
    /// Number of attempts executed.
    pub attempts: usize,
    /// World errors of every attempt, oldest first.
    pub failures: Vec<WorldError>,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recovery gave up after {} attempts", self.attempts)?;
        if let Some(last) = self.failures.last() {
            write!(f, "; last failure: {last}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RecoveryError {}

/// The shared supervisor loop: `attempt_fn(index, run_opts)` runs one
/// world; failures accumulate and back off per the policy.
fn supervise<R>(
    opts: &RecoveryOptions,
    mut attempt_fn: impl FnMut(usize, RunOptions) -> Result<Vec<R>, WorldError>,
) -> Result<RecoveryOutcome<R>, RecoveryError> {
    assert!(opts.policy.max_attempts >= 1, "need at least one attempt");
    opts.policy.publish();
    let global = telemetry::global();
    let mut failures: Vec<WorldError> = Vec::new();
    let mut total_backoff = Duration::ZERO;
    for index in 0..opts.policy.max_attempts {
        global.counter("recovery.attempts").add(1);
        let run_opts = RunOptions {
            recv_timeout: opts.recv_timeout,
            faults: opts.plans.get(index).cloned().flatten(),
        };
        match attempt_fn(index, run_opts) {
            Ok(values) => {
                return Ok(RecoveryOutcome {
                    values,
                    attempts: index + 1,
                    failures,
                    total_backoff,
                })
            }
            Err(world_err) => {
                failures.push(world_err);
                if index + 1 < opts.policy.max_attempts {
                    let backoff = opts.policy.backoff_for(index);
                    telemetry::flight::event(
                        telemetry::flight::FlightKind::RecoveryRetry,
                        failures.last().map(|f| f.origin as u32).unwrap_or(0),
                        index as u64,
                        0,
                    );
                    global.counter("recovery.retries").add(1);
                    global
                        .histogram("recovery.backoff_ns")
                        .record(backoff.as_nanos() as u64);
                    total_backoff += backoff;
                    std::thread::sleep(backoff);
                }
            }
        }
    }
    global.counter("recovery.giveups").add(1);
    Err(RecoveryError {
        attempts: opts.policy.max_attempts,
        failures,
    })
}

/// Run `f` once per rank under the recovery supervisor: on world
/// failure, back off per the [`RecoveryPolicy`] and retry with a fresh
/// world, up to `max_attempts` attempts total. Thread backend only;
/// for both backends use [`run_with_recovery_program`].
///
/// Recovery activity lands in the process-global telemetry registry
/// ([`telemetry::global`]) rather than any per-rank recorder, because
/// the supervisor outlives every rank thread: counters
/// `recovery.attempts` / `recovery.retries` / `recovery.giveups`,
/// histogram `recovery.backoff_ns`, and `recovery.policy.*` gauges.
pub fn run_with_recovery<F, R>(
    size: usize,
    opts: RecoveryOptions,
    f: F,
) -> Result<RecoveryOutcome<R>, RecoveryError>
where
    F: Fn(Comm, Attempt) -> Result<R, CommError> + Send + Sync,
    R: Send,
{
    supervise(&opts, |index, run_opts| {
        let attempt = Attempt { index };
        try_run_with(size, run_opts, |comm| f(comm, attempt))
    })
}

/// Backend-generic recovery: run registered program `name` on
/// `backend` under the same supervisor loop as [`run_with_recovery`].
/// On [`Backend::Sockets`] and [`Backend::Tcp`] every retry spawns a
/// **fresh set of rank processes** — the supervisor restarts real
/// processes from the program's last good checkpoint, surviving even a
/// `kill -9` that took a rank down without unwinding. Retries are counted in
/// `recovery.retries`, like every supervised world's.
pub fn run_with_recovery_program(
    backend: &Backend,
    size: usize,
    opts: RecoveryOptions,
    registry: &ProgramRegistry,
    name: &str,
    args: &[u8],
) -> Result<RecoveryOutcome<Vec<u8>>, RecoveryError> {
    supervise(&opts, |index, run_opts| {
        crate::try_run_program(
            backend,
            size,
            &run_opts,
            registry,
            name,
            args,
            Attempt { index },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn first_attempt_success_is_passthrough() {
        let out = run_with_recovery(3, RecoveryOptions::default(), |comm, attempt| {
            assert!(!attempt.is_retry());
            Ok(comm.allreduce_sum(comm.rank() as u64 + 1))
        })
        .unwrap();
        assert_eq!(out.values, vec![6, 6, 6]);
        assert_eq!(out.attempts, 1);
        assert!(out.failures.is_empty());
        assert_eq!(out.total_backoff, Duration::ZERO);
    }

    #[test]
    fn injected_death_recovers_on_retry() {
        // attempt 0: rank 1 dies at its 3rd operation; attempt 1: clean
        let opts = RecoveryOptions {
            policy: RecoveryPolicy {
                base_delay: Duration::from_millis(1),
                ..RecoveryPolicy::default()
            },
            plans: vec![Some(FaultPlan::new(5).with_panic_at(1, 2))],
            ..RecoveryOptions::default()
        };
        let out = run_with_recovery(4, opts, |comm, attempt| {
            let mut acc = 0;
            for _ in 0..4 {
                acc = comm.allreduce_sum(acc + 1);
            }
            Ok((attempt.index, acc))
        })
        .unwrap();
        assert_eq!(out.attempts, 2);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].origin, 1);
        assert!(out.failures[0].origin_panicked());
        assert!(out.values.iter().all(|(a, _)| *a == 1));
        assert!(out.total_backoff >= Duration::from_millis(1));
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let tries = AtomicUsize::new(0);
        let opts = RecoveryOptions {
            policy: RecoveryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_micros(100),
                ..RecoveryPolicy::default()
            },
            // every attempt is poisoned
            plans: (0..3)
                .map(|i| Some(FaultPlan::new(i).with_panic_at(0, 0)))
                .collect(),
            ..RecoveryOptions::default()
        };
        let err = run_with_recovery(2, opts, |comm, _| {
            if comm.rank() == 0 {
                tries.fetch_add(1, Ordering::SeqCst);
            }
            comm.try_barrier()?;
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err.attempts, 3);
        assert_eq!(err.failures.len(), 3);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        assert!(err.to_string().contains("gave up after 3 attempts"));
    }

    #[test]
    fn backoff_is_bounded() {
        let opts = RecoveryOptions {
            policy: RecoveryPolicy {
                max_attempts: 4,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(3),
                ..RecoveryPolicy::default()
            },
            plans: (0..4)
                .map(|i| Some(FaultPlan::new(i).with_panic_at(0, 0)))
                .collect(),
            ..RecoveryOptions::default()
        };
        let err = run_with_recovery(2, opts, |comm, _| {
            comm.try_barrier()?;
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err.attempts, 4);
        // sleeps were 2, 3 (capped), 3 (capped) — all within the cap
        let snap = telemetry::global().snapshot();
        use quadforest_telemetry::MetricKind;
        assert!(snap
            .get("recovery.backoff_ns", MetricKind::Histogram)
            .is_some());
    }

    #[test]
    fn jitter_is_deterministic_and_capped() {
        let policy = RecoveryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_ppm: 500_000, // up to +50 %
        };
        for index in 0..8 {
            let a = policy.backoff_for(index);
            let b = policy.backoff_for(index);
            assert_eq!(a, b, "jitter must be deterministic per attempt");
            assert!(a <= policy.max_delay, "attempt {index}: {a:?} over cap");
            let unjittered = RecoveryPolicy {
                jitter_ppm: 0,
                ..policy.clone()
            }
            .backoff_for(index);
            assert!(a >= unjittered, "jitter never shortens the sleep");
            assert!(
                a <= unjittered.mul_f64(1.5) + Duration::from_nanos(1) || a == policy.max_delay,
                "attempt {index}: {a:?} exceeds +50 % of {unjittered:?}"
            );
        }
        // zero jitter reproduces the plain exponential schedule
        let plain = RecoveryPolicy {
            jitter_ppm: 0,
            ..policy
        };
        assert_eq!(plain.backoff_for(0), Duration::from_millis(10));
        assert_eq!(plain.backoff_for(1), Duration::from_millis(20));
        assert_eq!(plain.backoff_for(4), Duration::from_millis(100)); // capped
    }

    #[test]
    fn policy_gauges_are_published() {
        let opts = RecoveryOptions {
            policy: RecoveryPolicy {
                max_attempts: 2,
                base_delay: Duration::from_micros(50),
                max_delay: Duration::from_millis(1),
                jitter_ppm: 123,
            },
            ..RecoveryOptions::default()
        };
        let _ = run_with_recovery(2, opts, |comm, _| comm.try_allreduce_sum(1));
        use quadforest_telemetry::MetricKind;
        let snap = telemetry::global().snapshot();
        let gauge = |name: &str| {
            snap.get(name, MetricKind::Gauge)
                .unwrap_or_else(|| panic!("{name} gauge missing"))
                .values[0]
        };
        assert_eq!(gauge("recovery.policy.max_attempts"), 2);
        assert_eq!(gauge("recovery.policy.jitter_ppm"), 123);
    }
}
