//! Metrics registry: lock-free counters, gauges, and fixed-bucket latency
//! histograms aggregating a tuning run's behaviour — eval latency
//! distribution, failures by kind, window occupancy, worker utilization,
//! and configs/sec throughput.
//!
//! Every [`TuningSession`](crate::session::TuningSession) owns a
//! [`MetricsRegistry`] (shareable via `Arc`, all-atomic so workers update
//! it without locks). [`MetricsRegistry::snapshot`] freezes it into a
//! serializable [`MetricsSnapshot`] — the payload of the service's `stats`
//! wire op and the source of the `--metrics` summary table.

use crate::cost::FailureKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (window occupancy, busy workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one (saturating at zero).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bucket bounds of the eval-latency histogram, in microseconds
/// (1 ms … 60 s; slower evaluations land in the overflow bucket).
pub const LATENCY_BOUNDS_MICROS: [u64; 14] = [
    1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000,
    5_000_000, 10_000_000, 30_000_000, 60_000_000,
];

/// Fixed-bucket latency histogram (cumulative-free: each bucket counts
/// observations at or below its bound and above the previous one).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BOUNDS_MICROS.len()],
    overflow: AtomicU64,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, latency: Duration) {
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        match LATENCY_BOUNDS_MICROS.iter().position(|&b| micros <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let overflow = self.overflow.load(Ordering::Relaxed);
        let count = self.count.load(Ordering::Relaxed);
        let sum_micros = self.sum_micros.load(Ordering::Relaxed);
        // Quantile estimate: the upper bound of the bucket where the
        // cumulative count crosses q·n (the last finite bound for the
        // overflow bucket — a lower-bound estimate there).
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let target = (q * count as f64).ceil() as u64;
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return LATENCY_BOUNDS_MICROS[i] as f64 / 1000.0;
                }
            }
            *LATENCY_BOUNDS_MICROS.last().expect("bounds nonempty") as f64 / 1000.0
        };
        LatencySnapshot {
            count,
            mean_ms: if count == 0 {
                0.0
            } else {
                sum_micros as f64 / count as f64 / 1000.0
            },
            p50_ms: quantile(0.50),
            p90_ms: quantile(0.90),
            p99_ms: quantile(0.99),
            buckets: LATENCY_BOUNDS_MICROS
                .iter()
                .zip(&counts)
                .map(|(&bound, &c)| LatencyBucket {
                    le_ms: bound as f64 / 1000.0,
                    count: c,
                })
                .collect(),
            overflow,
        }
    }
}

/// All metrics of one tuning run, updated lock-free from any thread.
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    /// Applied evaluations (successful or failed).
    pub evaluations: Counter,
    /// Applied evaluations whose measurement succeeded.
    pub valid_evaluations: Counter,
    /// Applied evaluations whose measurement failed.
    pub failed_evaluations: Counter,
    failures_by_kind: [Counter; FailureKind::ALL.len()],
    /// Backoff-and-retry attempts performed by [`crate::policy`].
    pub retries: Counter,
    /// Circuit-breaker trips (0 or 1 per run).
    pub breaker_trips: Counter,
    /// Journal write failures that degraded the run to in-memory-only
    /// (ENOSPC, I/O errors under the degrade-don't-die policy).
    pub journal_errors: Counter,
    /// Handout-to-report latency of every applied evaluation.
    pub eval_latency: Histogram,
    /// Search-space generation time, microseconds, summed over groups.
    pub space_gen_micros: Counter,
    window_capacity: Gauge,
    window_occupancy: Gauge,
    window_peak: AtomicU64,
    workers_total: Gauge,
    workers_busy: Gauge,
    busy_micros: Counter,
    /// Session opens admitted by the service's admission controller.
    pub admitted_sessions: Counter,
    /// Session opens shed with `overloaded` (global or per-tenant quota).
    pub shed_opens: Counter,
    /// Work requests (`next`) shed by a tenant's in-flight limit.
    pub shed_requests: Counter,
    /// Connections rejected at the hard cap (every slot taken).
    pub rejected_connections: Counter,
    /// Sessions checkpointed by a graceful drain.
    pub drained_sessions: Counter,
    /// Live sessions across all tenants.
    pub sessions_active: Gauge,
    /// Tenants with at least one live session.
    pub tenants_active: Gauge,
    /// Connections currently being served.
    pub connections_active: Gauge,
    /// Records appended to the tuning-database log.
    pub db_appends: Counter,
    /// Tuning-database compactions (log folded into a checkpoint).
    pub db_compactions: Counter,
    /// Reactor I/O threads (0 outside the event-driven server).
    pub reactor_io_threads: Gauge,
    /// Handler threads serving parsed requests behind the reactor.
    pub reactor_handlers: Gauge,
    /// Connection sockets currently registered with the reactor's poll set.
    pub reactor_fds: Gauge,
    /// Parsed request lines waiting for a handler thread.
    reactor_queue_depth: Gauge,
    reactor_queue_peak: AtomicU64,
    /// Handler threads currently inside `handle_line`.
    pub reactor_handlers_busy: Gauge,
    reactor_busy_micros: Counter,
    /// Live sessions per manager shard; sized once by
    /// [`set_shard_count`](Self::set_shard_count).
    shard_sessions: OnceLock<Box<[AtomicU64]>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            started: Instant::now(),
            evaluations: Counter::default(),
            valid_evaluations: Counter::default(),
            failed_evaluations: Counter::default(),
            failures_by_kind: std::array::from_fn(|_| Counter::default()),
            retries: Counter::default(),
            breaker_trips: Counter::default(),
            journal_errors: Counter::default(),
            eval_latency: Histogram::default(),
            space_gen_micros: Counter::default(),
            window_capacity: Gauge::default(),
            window_occupancy: Gauge::default(),
            window_peak: AtomicU64::new(0),
            workers_total: Gauge::default(),
            workers_busy: Gauge::default(),
            busy_micros: Counter::default(),
            admitted_sessions: Counter::default(),
            shed_opens: Counter::default(),
            shed_requests: Counter::default(),
            rejected_connections: Counter::default(),
            drained_sessions: Counter::default(),
            sessions_active: Gauge::default(),
            tenants_active: Gauge::default(),
            connections_active: Gauge::default(),
            db_appends: Counter::default(),
            db_compactions: Counter::default(),
            reactor_io_threads: Gauge::default(),
            reactor_handlers: Gauge::default(),
            reactor_fds: Gauge::default(),
            reactor_queue_depth: Gauge::default(),
            reactor_queue_peak: AtomicU64::new(0),
            reactor_handlers_busy: Gauge::default(),
            reactor_busy_micros: Counter::default(),
            shard_sessions: OnceLock::new(),
        }
    }
}

impl MetricsRegistry {
    /// A fresh registry; the throughput clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one applied evaluation: its handout-to-report latency and
    /// outcome (`None` latency when unknown, e.g. a replayed entry).
    pub fn record_eval(&self, latency: Option<Duration>, failure: Option<FailureKind>) {
        self.evaluations.inc();
        match failure {
            None => self.valid_evaluations.inc(),
            Some(kind) => {
                self.failed_evaluations.inc();
                self.failures_by_kind[kind.index()].inc();
            }
        }
        if let Some(latency) = latency {
            self.eval_latency.observe(latency);
        }
    }

    /// Failed evaluations of one taxonomy class.
    pub fn failures_of_kind(&self, kind: FailureKind) -> u64 {
        self.failures_by_kind[kind.index()].get()
    }

    /// Sets the pending-window capacity gauge.
    pub fn set_window_capacity(&self, n: usize) {
        self.window_capacity.set(n as u64);
    }

    /// Sets the current pending-window occupancy (and tracks its peak).
    pub fn set_window_occupancy(&self, n: usize) {
        self.window_occupancy.set(n as u64);
        self.window_peak.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// Declares the size of the worker pool driving the run.
    pub fn set_workers(&self, n: usize) {
        self.workers_total.set(n as u64);
    }

    /// A worker started evaluating.
    pub fn worker_busy(&self) {
        self.workers_busy.inc();
    }

    /// A worker finished an evaluation that kept it busy for `busy_for`.
    pub fn worker_idle(&self, busy_for: Duration) {
        self.workers_busy.dec();
        self.busy_micros
            .add(u64::try_from(busy_for.as_micros()).unwrap_or(u64::MAX));
    }

    /// Declares the reactor's thread layout (io threads + handler pool).
    pub fn set_reactor_threads(&self, io_threads: usize, handlers: usize) {
        self.reactor_io_threads.set(io_threads as u64);
        self.reactor_handlers.set(handlers as u64);
    }

    /// Sets the reactor ready-queue depth gauge (and tracks its peak).
    pub fn set_reactor_queue_depth(&self, n: usize) {
        self.reactor_queue_depth.set(n as u64);
        self.reactor_queue_peak
            .fetch_max(n as u64, Ordering::Relaxed);
    }

    /// A reactor handler thread started serving a request.
    pub fn reactor_handler_busy(&self) {
        self.reactor_handlers_busy.inc();
    }

    /// A reactor handler finished a request that kept it busy `busy_for`.
    pub fn reactor_handler_idle(&self, busy_for: Duration) {
        self.reactor_handlers_busy.dec();
        self.reactor_busy_micros
            .add(u64::try_from(busy_for.as_micros()).unwrap_or(u64::MAX));
    }

    /// Sizes the per-shard session gauges. First caller wins; later calls
    /// with a different count are ignored (the registry is shared).
    pub fn set_shard_count(&self, n: usize) {
        self.shard_sessions
            .get_or_init(|| (0..n).map(|_| AtomicU64::new(0)).collect());
    }

    /// Sets the live-session gauge of shard `i` (no-op before
    /// [`set_shard_count`](Self::set_shard_count) or out of range).
    pub fn set_shard_sessions(&self, i: usize, n: u64) {
        if let Some(gauges) = self.shard_sessions.get() {
            if let Some(g) = gauges.get(i) {
                g.store(n, Ordering::Relaxed);
            }
        }
    }

    /// Freezes the registry into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let elapsed = self.started.elapsed();
        let evaluations = self.evaluations.get();
        let workers = self.workers_total.get();
        let busy_micros = self.busy_micros.get();
        // At least 1 µs: a snapshot in the registry's first microsecond
        // still reports the busy time it has seen.
        let elapsed_micros = u64::try_from(elapsed.as_micros())
            .unwrap_or(u64::MAX)
            .max(1);
        let utilization_pct = if workers == 0 {
            0.0
        } else {
            (busy_micros as f64 / (workers * elapsed_micros) as f64 * 100.0).min(100.0)
        };
        MetricsSnapshot {
            elapsed_ms: elapsed.as_millis() as u64,
            evaluations,
            valid_evaluations: self.valid_evaluations.get(),
            failed_evaluations: self.failed_evaluations.get(),
            failures: FailureKind::ALL
                .into_iter()
                .map(|k| {
                    (
                        k.label().to_string(),
                        self.failures_by_kind[k.index()].get(),
                    )
                })
                .filter(|(_, n)| *n > 0)
                .collect(),
            retries: self.retries.get(),
            breaker_trips: self.breaker_trips.get(),
            journal_errors: self.journal_errors.get(),
            configs_per_sec: if elapsed.as_secs_f64() > 0.0 {
                evaluations as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            space_gen_ms: self.space_gen_micros.get() / 1000,
            eval_latency: self.eval_latency.snapshot(),
            window: WindowSnapshot {
                capacity: self.window_capacity.get(),
                occupancy: self.window_occupancy.get(),
                peak: self.window_peak.load(Ordering::Relaxed),
            },
            workers: WorkerSnapshot {
                total: workers,
                busy: self.workers_busy.get(),
                utilization_pct,
            },
            admission: AdmissionSnapshot {
                admitted_sessions: self.admitted_sessions.get(),
                shed_opens: self.shed_opens.get(),
                shed_requests: self.shed_requests.get(),
                rejected_connections: self.rejected_connections.get(),
                drained_sessions: self.drained_sessions.get(),
                sessions_active: self.sessions_active.get(),
                tenants_active: self.tenants_active.get(),
                connections_active: self.connections_active.get(),
            },
            db_appends: self.db_appends.get(),
            db_compactions: self.db_compactions.get(),
            reactor: {
                let io_threads = self.reactor_io_threads.get();
                let busy_micros = self.reactor_busy_micros.get();
                let handlers = self.reactor_handlers.get();
                ReactorSnapshot {
                    io_threads,
                    handlers,
                    registered_fds: self.reactor_fds.get(),
                    queue_depth: self.reactor_queue_depth.get(),
                    queue_peak: self.reactor_queue_peak.load(Ordering::Relaxed),
                    handlers_busy: self.reactor_handlers_busy.get(),
                    handler_utilization_pct: if handlers == 0 {
                        0.0
                    } else {
                        (busy_micros as f64 / (handlers * elapsed_micros) as f64 * 100.0).min(100.0)
                    },
                }
            },
            shard_sessions: self
                .shard_sessions
                .get()
                .map(|gauges| gauges.iter().map(|g| g.load(Ordering::Relaxed)).collect())
                .unwrap_or_default(),
        }
    }
}

/// One histogram bucket: observations at or below `le_ms` (and above the
/// previous bucket's bound).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyBucket {
    /// Upper bound of the bucket, milliseconds.
    pub le_ms: f64,
    /// Observations in the bucket.
    pub count: u64,
}

/// Frozen view of the eval-latency histogram.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Number of observed evaluations.
    pub count: u64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Estimated median (bucket upper bound), milliseconds.
    pub p50_ms: f64,
    /// Estimated 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// Estimated 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Per-bucket counts, in bound order.
    pub buckets: Vec<LatencyBucket>,
    /// Observations slower than the last bucket bound.
    pub overflow: u64,
}

/// Frozen view of the pending-window gauges.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowSnapshot {
    /// Configured window capacity (`max_pending`).
    pub capacity: u64,
    /// Pending tickets at snapshot time.
    pub occupancy: u64,
    /// Highest simultaneous occupancy seen.
    pub peak: u64,
}

/// Frozen view of the worker-pool gauges.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerSnapshot {
    /// Workers driving the run (0 when no pool registered itself).
    pub total: u64,
    /// Workers evaluating at snapshot time.
    pub busy: u64,
    /// Share of total worker-time spent evaluating, percent.
    pub utilization_pct: f64,
}

/// Frozen view of the service-side admission/overload gauges. All-zero
/// for plain tuning runs (no admission controller in the loop).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdmissionSnapshot {
    /// Session opens admitted.
    pub admitted_sessions: u64,
    /// Session opens shed with `overloaded`.
    pub shed_opens: u64,
    /// Work requests shed by a tenant's in-flight limit.
    pub shed_requests: u64,
    /// Connections rejected at the hard cap.
    pub rejected_connections: u64,
    /// Sessions checkpointed by a graceful drain.
    pub drained_sessions: u64,
    /// Live sessions at snapshot time.
    pub sessions_active: u64,
    /// Tenants with at least one live session at snapshot time.
    pub tenants_active: u64,
    /// Connections being served at snapshot time.
    pub connections_active: u64,
}

/// Frozen view of the event-driven server's reactor gauges. All-zero when
/// the poll(2) reactor is not in the loop (plain tuning runs, loopback).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ReactorSnapshot {
    /// Poll-loop threads owning the connection sockets.
    pub io_threads: u64,
    /// Handler threads serving parsed requests.
    pub handlers: u64,
    /// Connection sockets registered across all poll sets.
    pub registered_fds: u64,
    /// Parsed request lines waiting for a handler at snapshot time.
    pub queue_depth: u64,
    /// Highest ready-queue depth seen.
    pub queue_peak: u64,
    /// Handler threads inside `handle_line` at snapshot time.
    pub handlers_busy: u64,
    /// Share of total handler-time spent serving requests, percent.
    pub handler_utilization_pct: f64,
}

/// A frozen, serializable view of a [`MetricsRegistry`] — the `stats` wire
/// payload and the source of the `--metrics` summary table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Wall clock since the registry was created, milliseconds.
    pub elapsed_ms: u64,
    /// Applied evaluations (successful or failed).
    pub evaluations: u64,
    /// Applied evaluations whose measurement succeeded.
    pub valid_evaluations: u64,
    /// Applied evaluations whose measurement failed.
    pub failed_evaluations: u64,
    /// Nonzero failure counts by taxonomy label.
    pub failures: BTreeMap<String, u64>,
    /// Backoff-and-retry attempts performed.
    pub retries: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Journal write failures under the degrade-don't-die policy.
    pub journal_errors: u64,
    /// Applied evaluations per second of wall clock.
    pub configs_per_sec: f64,
    /// Search-space generation time, milliseconds.
    pub space_gen_ms: u64,
    /// Eval-latency histogram.
    pub eval_latency: LatencySnapshot,
    /// Pending-window gauges.
    pub window: WindowSnapshot,
    /// Worker-pool gauges.
    pub workers: WorkerSnapshot,
    /// Service admission/overload gauges.
    pub admission: AdmissionSnapshot,
    /// Records appended to the tuning-database log.
    pub db_appends: u64,
    /// Tuning-database compactions.
    pub db_compactions: u64,
    /// Event-driven server reactor gauges.
    pub reactor: ReactorSnapshot,
    /// Live sessions per manager shard (empty outside the sharded
    /// service).
    pub shard_sessions: Vec<u64>,
}

impl MetricsSnapshot {
    /// Renders the human summary table shown by `atf-tune run --metrics`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut row = |k: &str, v: String| {
            out.push_str(&format!("  {k:<16} {v}\n"));
        };
        row(
            "elapsed",
            format!("{:.1} s", self.elapsed_ms as f64 / 1000.0),
        );
        row(
            "evaluations",
            format!(
                "{} ({} valid, {} failed)",
                self.evaluations, self.valid_evaluations, self.failed_evaluations
            ),
        );
        row(
            "throughput",
            format!("{:.2} configs/s", self.configs_per_sec),
        );
        row(
            "eval latency",
            format!(
                "mean {:.1} ms, p50 <= {:.0} ms, p90 <= {:.0} ms (n={})",
                self.eval_latency.mean_ms,
                self.eval_latency.p50_ms,
                self.eval_latency.p90_ms,
                self.eval_latency.count
            ),
        );
        row("space gen", format!("{} ms", self.space_gen_ms));
        row(
            "window",
            format!(
                "{}/{} pending, peak {}",
                self.window.occupancy, self.window.capacity, self.window.peak
            ),
        );
        if self.workers.total > 0 {
            row(
                "workers",
                format!(
                    "{}, utilization {:.1}%",
                    self.workers.total, self.workers.utilization_pct
                ),
            );
        }
        if self.retries > 0 {
            row("retries", self.retries.to_string());
        }
        let a = &self.admission;
        if a.admitted_sessions + a.shed_opens + a.shed_requests + a.rejected_connections > 0 {
            row(
                "admission",
                format!(
                    "{} admitted, {} opens shed, {} requests shed, {} conns rejected",
                    a.admitted_sessions, a.shed_opens, a.shed_requests, a.rejected_connections
                ),
            );
        }
        let r = &self.reactor;
        if r.io_threads > 0 {
            row(
                "reactor",
                format!(
                    "{} io + {} handlers, {} fds, queue peak {}, utilization {:.1}%",
                    r.io_threads,
                    r.handlers,
                    r.registered_fds,
                    r.queue_peak,
                    r.handler_utilization_pct
                ),
            );
        }
        if self.journal_errors > 0 {
            row(
                "journal",
                format!("DEGRADED ({} write errors)", self.journal_errors),
            );
        }
        if !self.failures.is_empty() {
            let parts: Vec<String> = self
                .failures
                .iter()
                .map(|(k, n)| format!("{k}: {n}"))
                .collect();
            row("failures", parts.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_failure_kinds() {
        let m = MetricsRegistry::new();
        m.record_eval(Some(Duration::from_millis(3)), None);
        m.record_eval(Some(Duration::from_millis(7)), Some(FailureKind::Timeout));
        m.record_eval(None, Some(FailureKind::Timeout));
        let s = m.snapshot();
        assert_eq!(s.evaluations, 3);
        assert_eq!(s.valid_evaluations, 1);
        assert_eq!(s.failed_evaluations, 2);
        assert_eq!(s.failures.get("timeout"), Some(&2));
        assert_eq!(s.failures.get("crash"), None);
        // Only the two evals with a known latency reach the histogram.
        assert_eq!(s.eval_latency.count, 2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for _ in 0..9 {
            h.observe(Duration::from_millis(2)); // <= 5 ms bucket
        }
        h.observe(Duration::from_secs(120)); // overflow
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.buckets[1].count, 9);
        assert_eq!(s.p50_ms, 5.0);
        assert_eq!(s.p99_ms, 60_000.0, "overflow estimates at the last bound");
        assert!(s.mean_ms > 1000.0);
    }

    #[test]
    fn window_peak_and_worker_utilization() {
        let m = MetricsRegistry::new();
        m.set_window_capacity(4);
        m.set_window_occupancy(2);
        m.set_window_occupancy(4);
        m.set_window_occupancy(1);
        m.set_workers(2);
        m.worker_busy();
        m.worker_idle(Duration::from_millis(5));
        let s = m.snapshot();
        assert_eq!(s.window.capacity, 4);
        assert_eq!(s.window.occupancy, 1);
        assert_eq!(s.window.peak, 4);
        assert_eq!(s.workers.total, 2);
        assert_eq!(s.workers.busy, 0);
        assert!(s.workers.utilization_pct > 0.0);
        assert!(s.workers.utilization_pct <= 100.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = MetricsRegistry::new();
        m.record_eval(Some(Duration::from_millis(3)), Some(FailureKind::RunCrash));
        let s = m.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn admission_counters_and_summary() {
        let m = MetricsRegistry::new();
        m.admitted_sessions.add(3);
        m.shed_opens.add(2);
        m.shed_requests.inc();
        m.rejected_connections.inc();
        m.sessions_active.inc();
        let s = m.snapshot();
        assert_eq!(s.admission.admitted_sessions, 3);
        assert_eq!(s.admission.shed_opens, 2);
        assert_eq!(s.admission.shed_requests, 1);
        assert_eq!(s.admission.rejected_connections, 1);
        assert_eq!(s.admission.sessions_active, 1);
        assert!(s.summary().contains("3 admitted"), "{}", s.summary());
    }

    #[test]
    fn reactor_gauges_and_utilization() {
        let m = MetricsRegistry::new();
        m.set_reactor_threads(2, 4);
        m.reactor_fds.inc();
        m.reactor_fds.inc();
        m.reactor_fds.dec();
        m.set_reactor_queue_depth(7);
        m.set_reactor_queue_depth(1);
        m.reactor_handler_busy();
        m.reactor_handler_idle(Duration::from_millis(2));
        let s = m.snapshot();
        assert_eq!(s.reactor.io_threads, 2);
        assert_eq!(s.reactor.handlers, 4);
        assert_eq!(s.reactor.registered_fds, 1);
        assert_eq!(s.reactor.queue_depth, 1);
        assert_eq!(s.reactor.queue_peak, 7);
        assert_eq!(s.reactor.handlers_busy, 0);
        assert!(s.reactor.handler_utilization_pct > 0.0);
        assert!(s.summary().contains("2 io + 4 handlers"), "{}", s.summary());
    }

    #[test]
    fn summary_mentions_the_load_bearing_numbers() {
        let m = MetricsRegistry::new();
        m.set_window_capacity(4);
        m.record_eval(Some(Duration::from_millis(3)), None);
        m.record_eval(None, Some(FailureKind::BadOutput));
        let text = m.snapshot().summary();
        assert!(text.contains("evaluations"), "{text}");
        assert!(text.contains("2 (1 valid, 1 failed)"), "{text}");
        assert!(text.contains("bad_output: 1"), "{text}");
    }
}
