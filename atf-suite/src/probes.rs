//! Per-layer probes: every layer of the repository measured from outside,
//! by timing calls into its public functions. They run in every traced
//! invocation, before the workload's own boxes (so `spacegen.first_call_s`
//! and `spacegen.bytes_per_config` see a cold allocator), on seeded inputs.
//!
//! Because nesting cannot be seen from outside, the service path is
//! decomposed by a **ladder**: the same seeded step stream is driven through
//! `Client<TcpTransport>` → `Client<Loopback>` → `SessionManager::handle` →
//! a bare journaled `TuningSession` → the same session without a journal.
//! A layer's self time is its rung minus the next rung down
//! ([`crate::trace::ladder_self`]).

use crate::inputs;
use crate::stats::{median, quantile, sorted};
use crate::trace::{ladder_self, Tracer, NO_PARENT};
use crate::workload::{rss_mb, Checks, Metric, Params};
use crate::workloads::campaign::{plan, run_config, SessionExecutor};
use crate::workloads::service::{session_spec, step, Service};
use crate::workloads::tune::CHECKPOINT_EVERY;
use atf_core::campaign::run_campaign;
use atf_core::db::{DatabaseLog, TuningDatabase};
use atf_core::prelude::*;
use atf_core::spacegen::{default_threads, generate_group_chunked};
use atf_service::{Client, ManagerConfig, Request, Response, SessionManager};
use rand::RngCore;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Wall of `f` in seconds.
fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median wall (seconds) of `reps` runs of `f`, results dropped untimed.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, wall) = secs(&mut f);
            drop(out);
            wall
        })
        .collect();
    median(&walls)
}

/// Mean nanoseconds per call over `n` back-to-back calls of `f(i)`.
fn ns_per_call<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        black_box(f(i));
    }
    t0.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// Every call timed on its own: sorted microseconds.
fn each_us<T>(n: usize, mut f: impl FnMut(usize) -> T) -> Vec<f64> {
    sorted(
        (0..n)
            .map(|i| {
                let t0 = Instant::now();
                black_box(f(i));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    )
}

struct Probe<'a> {
    p: &'a Params,
    checks: &'a mut Checks,
    out: Vec<Metric>,
}

impl Probe<'_> {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.push((name.to_string(), value, unit));
    }

    /// Probe iteration counts are quoted per 10 s box, like the workloads'.
    fn n(&self, per_ten_seconds: usize) -> usize {
        self.p.scaled(per_ten_seconds, 64)
    }

    fn dir(&self, name: &str) -> std::path::PathBuf {
        let dir = self.p.scratch.join(format!("probe-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create probe directory");
        dir
    }
}

/// Runs every probe; returns the per-layer metrics.
pub fn all(p: &Params, checks: &mut Checks) -> Vec<Metric> {
    std::fs::create_dir_all(&p.scratch).expect("create scratch directory");
    let mut probe = Probe {
        p,
        checks,
        out: Vec::new(),
    };
    let t0 = Instant::now();
    let lap = |group: &str| {
        println!(
            "  probes: {group} done at {:.2} s",
            t0.elapsed().as_secs_f64()
        )
    };
    let space = spacegen(&mut probe);
    lap("spacegen");
    space_reads(&mut probe, &space);
    parse(&mut probe);
    let ensemble_ns = search(&mut probe, &space);
    lap("space, parse, search");
    session_and_cost(&mut probe, &space, ensemble_ns);
    drop(space);
    lap("session, cost, parallel");
    journal(&mut probe);
    db(&mut probe);
    lap("journal, db");
    campaign(&mut probe);
    proto(&mut probe);
    lap("campaign, proto");
    service_ladder(&mut probe);
    lap("service ladder, manager");
    reactor(&mut probe);
    lap("reactor");
    std::fs::remove_dir_all(&p.scratch).ok();
    probe.out
}

/// `spacegen.*` on the cap-32 XgemmDirect group (cap 16 in smoke runs);
/// returns the generated space for the probes that read it.
fn spacegen(probe: &mut Probe) -> SearchSpace {
    let cap = crate::workloads::tune::cap(probe.p);
    let groups = clblast::xgemm_space::atf_space_wgd_max(cap);
    let group = &groups[0];
    let threads = default_threads();

    // First generation of the process through the users' entry point: cold
    // pages, and the RSS it adds is the space's footprint.
    let rss_before = rss_mb();
    let (space, first_call_s) = secs(|| SearchSpace::generate_parallel(&groups));
    let configs = space.len() as f64;
    probe.put("spacegen.first_call_s", first_call_s, "s");
    probe.put("spacegen.configs", configs, "count");
    probe.put(
        "spacegen.bytes_per_config",
        (rss_mb() - rss_before) * 1024.0 * 1024.0 / configs,
        "B",
    );
    let (_, drop_s) = secs(|| drop(space));
    probe.put("spacegen.drop_ms", drop_s * 1e3, "ms");

    let reference_s = median_secs(3, || GroupSpace::generate_reference(group));
    let compiled_s = median_secs(3, || GroupSpace::generate(group));
    let chunked_s = median_secs(3, || {
        generate_group_chunked(group, threads, u64::MAX, None, &NullSink, 0)
    });
    probe.put("spacegen.reference_s", reference_s, "s");
    probe.put("spacegen.compiled_s", compiled_s, "s");
    probe.put("spacegen.chunked_s", chunked_s, "s");
    probe.put("spacegen.chunked_threads", threads as f64, "count");
    probe.put("spacegen.ns_per_config", compiled_s * 1e9 / configs, "ns");
    let counted = SearchSpace::count(&groups);
    probe
        .checks
        .check(counted.as_ref().ok() == Some(&(configs as u128)), || {
            format!("SearchSpace::count = {counted:?}, generated {configs}")
        });
    probe.put(
        "spacegen.count_s",
        median_secs(3, || SearchSpace::count(&groups)),
        "s",
    );

    // Check-bound rather than output-bound: the saxpy divisor chain at
    // N = 2^22 (few configurations out of a huge range).
    let saxpy = clblast::saxpy_space(1 << 22);
    probe.put(
        "spacegen.divisor_s",
        median_secs(5, || SearchSpace::generate(&saxpy)),
        "s",
    );

    let (lazy, lazy_build_s) = secs(|| LazySpace::generate(&groups));
    probe.put("spacegen.lazy_build_s", lazy_build_s, "s");
    match lazy {
        Ok(lazy) => {
            let indices = inputs::random_indices(probe.p.seed, 10, probe.n(2_000), lazy.len());
            probe.put(
                "spacegen.lazy_get_ns",
                ns_per_call(indices.len(), |i| lazy.get(indices[i])),
                "ns",
            );
        }
        Err(e) => probe.checks.failed_op(format!("LazySpace::generate: {e}")),
    }

    // The on-disk space cache. `SpaceCache::load` is quadratic in the entry
    // size today (1 s at 6 k configurations, 200 s at 69 k), so it is probed
    // on the cap-6 space (6 320 configurations), not the cap-32 one.
    let cache_cap = 6;
    let cached = GroupSpace::generate(&clblast::xgemm_space::atf_space_wgd_max(cache_cap)[0]);
    let dir = probe.dir("space-cache");
    let cache = SpaceCache::new(&dir);
    let key = spec_key(&inputs::xgemm_wire_spec(cache_cap));
    let (stored, store_s) = secs(|| cache.store(&key, std::slice::from_ref(&cached)));
    let (loaded, load_s) = secs(|| cache.load(&key));
    probe.checks.check(
        stored.is_ok() && loaded.is_some_and(|g| g[0].len() == cached.len()),
        || "space cache did not round-trip the space".into(),
    );
    probe.put("spacegen.cache_store_ms", store_s * 1e3, "ms");
    probe.put("spacegen.cache_load_ms", load_s * 1e3, "ms");
    let bytes: u64 = std::fs::read_dir(&dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    probe.put("spacegen.cache_bytes", bytes as f64, "B");
    probe.put("spacegen.cache_configs", cached.len() as f64, "count");
    let generated = GroupSpace::generate(group);
    SearchSpace::from_group_spaces(vec![generated])
}

/// `space.*`: the three reads a session makes of a generated space.
fn space_reads(probe: &mut Probe, space: &SearchSpace) {
    let indices = inputs::random_indices(probe.p.seed, 11, probe.n(200_000), space.len());
    let coords: Vec<Vec<u64>> = indices.iter().map(|&i| space.decompose(i)).collect();
    probe.put(
        "space.get_ns",
        ns_per_call(indices.len(), |i| space.get(indices[i])),
        "ns",
    );
    probe.put(
        "space.get_by_coords_ns",
        ns_per_call(coords.len(), |i| space.get_by_coords(&coords[i])),
        "ns",
    );
    probe.put(
        "space.decompose_ns",
        ns_per_call(indices.len(), |i| space.decompose(indices[i])),
        "ns",
    );
}

/// `parse.*`: constraint text and the ten-parameter wire spec.
fn parse(probe: &mut Probe) {
    let texts = inputs::xgemm_constraint_texts();
    let rounds = probe.n(2_000);
    probe.put(
        "parse.constraint_ns",
        ns_per_call(rounds * texts.len(), |i| {
            parse_constraint(&texts[i % texts.len()]).is_ok()
        }),
        "ns",
    );
    let spec = inputs::xgemm_wire_spec(64);
    probe.put(
        "parse.build_params_us",
        ns_per_call(rounds, |_| atf_core::spec::build_params(&spec).is_ok()) / 1e3,
        "us",
    );
}

/// `search.*`: one `get_next_point` + `report_cost` on the space's
/// dimensions, no session. Returns the ensemble's figure.
fn search(probe: &mut Probe, space: &SearchSpace) -> f64 {
    let seed = probe.p.seed;
    let n = probe.n(100_000);
    let mut ensemble_ns = 0.0;
    let techniques: [(&str, Box<dyn SearchTechnique>); 4] = [
        ("ensemble", Box::new(Ensemble::opentuner_default(seed))),
        ("annealing", Box::new(SimulatedAnnealing::with_seed(seed))),
        ("exhaustive", Box::new(Exhaustive::new())),
        ("random", Box::new(RandomSearch::with_seed(seed))),
    ];
    for (name, mut technique) in techniques {
        technique.initialize(SpaceDims::new(space.dims()));
        let mut noise = inputs::rng(seed, 12);
        let ns = ns_per_call(n, |_| {
            let point = technique.get_next_point();
            if let Some(point) = &point {
                technique.report_cost(1.0 + (point[0] ^ (noise.next_u64() & 0xff)) as f64);
            }
            point.is_some()
        });
        probe.put(&format!("search.{name}_ns"), ns, "ns");
        if name == "ensemble" {
            ensemble_ns = ns;
        }
    }
    ensemble_ns
}

fn ensemble_session(space: &SearchSpace, seed: u64) -> TuningSession<f64> {
    TuningSession::new(space.clone(), Box::new(Ensemble::opentuner_default(seed)))
        .expect("non-empty space")
        .abort_condition(abort::evaluations(u64::MAX))
}

/// `session.*`, `cost.*`, `parallel.*`: the local loop's rungs.
fn session_and_cost(probe: &mut Probe, space: &SearchSpace, ensemble_ns: f64) {
    let seed = probe.p.seed;
    let n = probe.n(100_000);

    // Hand-out and report timed separately, window 1, no journal. The cost
    // is a cheap function of the ticket so only the session is on the clock.
    let mut session = ensemble_session(space, seed);
    let (mut next_ns, mut report_ns) = (0.0, 0.0);
    for _ in 0..n {
        let t0 = Instant::now();
        let handout = session.next_ticket();
        let t1 = Instant::now();
        let Handout::Next(ticket, config) = handout else {
            probe
                .checks
                .failed_op("session probe ran out of hand-outs".into());
            break;
        };
        let cost = 1.0 + (config.get_u64("WGD") * 31 + ticket % 17) as f64;
        let t2 = Instant::now();
        let reported = session.report_ticket(ticket, Ok(cost));
        report_ns += t2.elapsed().as_secs_f64() * 1e9;
        next_ns += (t1 - t0).as_secs_f64() * 1e9;
        black_box(reported.is_ok());
    }
    let (next_ns, report_ns) = (next_ns / n as f64, report_ns / n as f64);
    probe.put("session.next_ns", next_ns, "ns");
    probe.put("session.report_ns", report_ns, "ns");
    probe.put("session.self_ns", next_ns + report_ns - ensemble_ns, "ns");

    // Window 8, reports arriving in reverse ticket order.
    let mut windowed = ensemble_session(space, seed).max_pending(8);
    let t0 = Instant::now();
    let mut done = 0usize;
    while done < n {
        let batch = windowed.next_config_batch(8);
        if batch.is_empty() {
            probe
                .checks
                .failed_op("windowed session handed out nothing".into());
            break;
        }
        for (ticket, config) in batch.iter().rev() {
            let cost = 1.0 + (config.get_u64("WGD") * 31 + ticket % 17) as f64;
            windowed.report_ticket(*ticket, Ok(cost)).ok();
        }
        done += batch.len();
    }
    probe.put(
        "session.window8_evals_per_s",
        done as f64 / t0.elapsed().as_secs_f64(),
        "1/s",
    );

    // The cost model alone, on seeded-random configurations of the space.
    let indices = inputs::random_indices(seed, 13, probe.n(50_000), space.len());
    let configs: Vec<Config> = indices.iter().map(|&i| space.get(i)).collect();
    let mut cost = inputs::xgemm_cost(inputs::IS2, seed);
    probe.put(
        "cost.xgemm_eval_ns",
        ns_per_call(configs.len(), |i| cost.evaluate(&configs[i]).is_ok()),
        "ns",
    );

    // The worker pool: two workers on a window of two.
    let budget = n as u64 / 2;
    let mut pooled = TuningSession::new(space.clone(), Box::new(Ensemble::opentuner_default(seed)))
        .expect("non-empty space")
        .abort_condition(abort::evaluations(budget))
        .max_pending(2);
    let workers = vec![
        inputs::xgemm_cost(inputs::IS2, seed),
        inputs::xgemm_cost(inputs::IS2, seed),
    ];
    let (_, wall) = secs(|| drive_session(&mut pooled, workers));
    let evaluations = pooled.status().evaluations();
    probe.checks.check(evaluations == budget, || {
        format!("drive_session applied {evaluations} of {budget} evaluations")
    });
    probe.put(
        "parallel.drive2_evals_per_s",
        evaluations as f64 / wall,
        "1/s",
    );
}

fn journal_header() -> JournalHeader {
    JournalHeader {
        version: atf_core::journal::JOURNAL_VERSION,
        technique: "probe".into(),
        space_size: "776764".into(),
        window: 1,
    }
}

fn journal_entry(i: u64) -> JournalEntry {
    JournalEntry {
        evaluation: i,
        ticket: Some(i),
        point: vec![i * 7919 % 776_764],
        costs: Some(vec![4000.0 + (i % 977) as f64 * 1.5]),
        failure: None,
        elapsed_ms: Some(i / 3),
    }
}

/// A journal holding `entries` entries of history, ready to compact.
fn journal_with_history(path: &Path, entries: u64) -> JournalWriter {
    let mut writer = JournalWriter::create(path, &journal_header()).expect("create journal");
    for i in 1..=entries {
        writer.append(&journal_entry(i)).expect("append");
    }
    writer
}

/// `journal.*`: append, sync, compaction against history, load.
fn journal(probe: &mut Probe) {
    let dir = probe.dir("journal");
    let n = probe.n(4_096);

    // Appends without checkpointing: p50 is a buffered write, p99 an fsync
    // (one append in `SYNC_EVERY` syncs).
    let path = dir.join("append.journal");
    let mut writer = JournalWriter::create(&path, &journal_header()).expect("create journal");
    let appends = each_us(n, |i| writer.append(&journal_entry(i as u64 + 1)).is_ok());
    probe.put("journal.append_p50_us", quantile(&appends, 0.5), "us");
    probe.put("journal.append_p99_us", quantile(&appends, 0.99), "us");
    let sync_us = sorted(
        (0..64)
            .map(|i| {
                writer.append(&journal_entry((n + i) as u64 + 1)).ok();
                let t0 = Instant::now();
                writer.sync().ok();
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    );
    probe.put("journal.sync_us", quantile(&sync_us, 0.5), "us");
    drop(writer);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    probe.put(
        "journal.bytes_per_entry",
        bytes as f64 / (n + 64) as f64,
        "B",
    );
    probe.put(
        "journal.fsyncs_per_1k",
        1000.0 / JournalWriter::SYNC_EVERY as f64,
        "count",
    );

    // Compaction rewrites the whole history: time it at 1 k and 10 k
    // entries (the quadratic term of a long journaled run), then load.
    for (label, entries) in [("1k", 1_000u64), ("10k", 10_000)] {
        let entries = if probe.p.quick { entries / 10 } else { entries };
        let path = dir.join(format!("history-{label}.journal"));
        let mut writer = journal_with_history(&path, entries);
        let compact_s = median_secs(5, || writer.compact().is_ok());
        probe.put(
            &format!("journal.compact_ms_at_{label}"),
            compact_s * 1e3,
            "ms",
        );
        drop(writer);
        if label == "10k" {
            let load_s = median_secs(5, || {
                LoadedJournal::load_with_checkpoint(&path).map(|j| j.entries.len())
            });
            let loaded = LoadedJournal::load_with_checkpoint(&path).map(|j| j.entries.len() as u64);
            probe
                .checks
                .check(loaded.as_ref().ok() == Some(&entries), || {
                    format!("journal of {entries} entries loaded as {loaded:?}")
                });
            probe.put(
                "journal.load_ms_per_10k",
                load_s * 1e3 * 10_000.0 / entries as f64,
                "ms",
            );
        }
    }
}

/// `db.*`: the database log behind `finish`.
fn db(probe: &mut Probe) {
    const BASE: u64 = 512;
    const STORES: u64 = 64;
    let dir = probe.dir("db");
    let path = dir.join("db.ndjson");
    let config = |i: u64| {
        Config::from_pairs([
            ("WGD", Value::UInt(i % 64 + 1)),
            ("KWID", Value::UInt(i % 8 + 1)),
        ])
    };
    let mut db = TuningDatabase::new();
    let (_, mut log) = DatabaseLog::open(&path).expect("open database log");
    for i in 0..BASE {
        let kernel = format!("k{i}");
        db.store(&kernel, "dev", "w", &config(i), 50.0, 10, 64);
        log.append(&db.record(&kernel, "dev", "w").expect("stored"))
            .expect("append");
    }
    let before = std::fs::metadata(&path).map_or(0, |m| m.len());
    let appends = each_us(STORES as usize, |i| {
        let kernel = format!("k{}", i as u64 % BASE);
        db.store(
            &kernel,
            "dev",
            "w",
            &config(i as u64),
            40.0 - i as f64 / 100.0,
            10,
            64,
        );
        log.append(&db.record(&kernel, "dev", "w").expect("stored"))
            .is_ok()
    });
    probe.put("db.append_us", quantile(&appends, 0.5), "us");
    let after = std::fs::metadata(&path).map_or(0, |m| m.len());
    probe.put(
        "db.bytes_per_store",
        after.saturating_sub(before) as f64 / STORES as f64,
        "B",
    );
    probe.put(
        "db.compact_ms",
        median_secs(5, || log.compact(&db).is_ok()) * 1e3,
        "ms",
    );
    drop(log);
    let open_s = median_secs(5, || DatabaseLog::open(&path).map(|(db, _)| db.len()));
    let reopened = DatabaseLog::open(&path).map(|(db, _)| db.len() as u64);
    probe
        .checks
        .check(reopened.as_ref().ok() == Some(&BASE), || {
            format!("database of {BASE} records reopened as {reopened:?}")
        });
    probe.put("db.open_ms", open_s * 1e3, "ms");
}

/// `campaign.*`: the scheduler without the WAL, and what the WAL adds.
fn campaign(probe: &mut Probe) {
    let dir = probe.dir("campaign");
    let nodes = crate::workloads::campaign::nodes(probe.p);
    let executor = SessionExecutor {
        salt: probe.p.seed,
        executed: AtomicU64::new(0),
    };
    let spec = plan(nodes, probe.p.clients).spec;
    probe.put(
        "campaign.validate_us",
        median_secs(5, || atf_core::campaign::validate(&spec).is_ok()) * 1e6,
        "us",
    );
    let plan = plan(nodes, probe.p.clients);
    let wal = dir.join("probe.wal");
    let mut rate = |journal: Option<&Path>| {
        let walls: Vec<f64> = (0..5)
            .map(|_| {
                if let Some(path) = journal {
                    std::fs::remove_file(path).ok();
                }
                let cfg = run_config(journal.map(Path::to_path_buf), false);
                let (report, wall) = secs(|| run_campaign(&plan, &executor, &cfg));
                if report.is_err() {
                    probe.checks.failed_op("probe campaign failed".into());
                }
                wall
            })
            .collect();
        nodes as f64 / median(&walls)
    };
    let mem = rate(None);
    let journaled = rate(Some(&wal));
    probe.put("campaign.nodes_per_s_mem", mem, "1/s");
    probe.put(
        "campaign.wal_us_per_node",
        (1.0 / journaled - 1.0 / mem) * 1e6,
        "us",
    );
}

/// Request lines as `Client` puts them on the wire.
fn wire_lines(seed: u64) -> (String, String, String) {
    let mut next = Request::new("next").with_session("s1");
    next.request_id = Some("2f1a.17c3a9b2e4d0.1001".into());
    let mut report = Request::new("report").with_session("s1");
    report.request_id = Some("2f1a.17c3a9b2e4d0.1002".into());
    report.ticket = Some(1001);
    report.cost = Some(4242.5);
    report.valid = Some(true);
    let mut open = open_request("proto-probe", 16, "annealing", seed);
    open.request_id = Some("2f1a.17c3a9b2e4d0.1".into());
    let line = |r: &Request| serde_json::to_string(r).expect("request serializes");
    (line(&next), line(&report), line(&open))
}

/// `proto.*`: the wire codec on recorded lines.
fn proto(probe: &mut Probe) {
    let (next, report, open) = wire_lines(probe.p.seed);
    let n = probe.n(20_000);
    let lines = [&next, &report];
    probe.put(
        "proto.parse_request_ns",
        ns_per_call(n, |i| serde_json::from_str::<Request>(lines[i % 2]).is_ok()),
        "ns",
    );
    // Responses as the manager produces them for `next` and `report`.
    let manager = SessionManager::in_memory();
    let opened = manager.handle(&serde_json::from_str(&open).expect("open parses"));
    let session = opened.session.clone().unwrap_or_default();
    let handed = manager.handle(&Request::new("next").with_session(&session));
    let mut r = Request::new("report").with_session(&session);
    r.ticket = handed.ticket;
    r.cost = Some(1.5);
    let acked = manager.handle(&r);
    probe.checks.check(opened.ok && handed.ok && acked.ok, || {
        "proto probe could not record responses".into()
    });
    let responses: [&Response; 2] = [&handed, &acked];
    probe.put(
        "proto.serialize_response_ns",
        ns_per_call(n, |i| {
            serde_json::to_string(responses[i % 2]).map(|s| s.len())
        }),
        "ns",
    );
    probe.put("proto.open_line_bytes", open.len() as f64, "B");
}

/// Steps per ladder rung per 10 s box: enough for sixteen compactions.
const LADDER_STEPS: usize = 1_024;

/// One step through `SessionManager::handle`: `(next_us, report_us)`.
fn manager_step(manager: &SessionManager, session: &str, seed: u64) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let handed = manager.handle(&Request::new("next").with_session(session));
    let next_us = t0.elapsed().as_secs_f64() * 1e6;
    let (Some(ticket), Some(config)) = (handed.ticket, &handed.config) else {
        return Err(format!("manager next answered {handed:?}"));
    };
    let mut report = Request::new("report").with_session(session);
    report.ticket = Some(ticket);
    report.cost = Some(inputs::wire_cost(config, seed));
    report.valid = Some(true);
    let t1 = Instant::now();
    let acked = manager.handle(&report);
    let report_us = t1.elapsed().as_secs_f64() * 1e6;
    if acked.ok {
        Ok((next_us, report_us))
    } else {
        Err(format!("manager report answered {acked:?}"))
    }
}

fn journaled_manager(dir: &Path) -> Arc<SessionManager> {
    Arc::new(
        SessionManager::new(ManagerConfig {
            journal_dir: Some(dir.join("journals")),
            db_path: Some(dir.join("db.ndjson")),
            ..ManagerConfig::default()
        })
        .expect("journaled manager"),
    )
}

fn open_request(kernel: &str, cap: u64, technique: &str, seed: u64) -> Request {
    let spec = session_spec(kernel, cap, technique, seed);
    let mut open = Request::new("open");
    open.kernel = Some(spec.kernel);
    open.parameters = Some(spec.parameters);
    open.search = spec.search;
    open.abort = spec.abort;
    open
}

/// The service ladder and `manager.*`: the same seeded annealing step stream
/// (cap-16 spec, as `service_steady`) through each rung.
fn service_ladder(probe: &mut Probe) {
    let seed = probe.p.seed;
    let cap = if probe.p.quick { 8 } else { 16 };
    let steps = probe.n(LADDER_STEPS);
    let spec = session_spec("ladder", cap, "annealing", seed);
    let mut off = Tracer::off();
    // Median step latency of a client rung; a refused step fails the run.
    let client_rung = |checks: &mut Checks, step: &mut dyn FnMut(u64) -> Result<u64, String>| {
        let mut refused = 0u64;
        let samples = each_us(steps, |i| {
            step(i as u64 + 1).map_err(|_| refused += 1).is_ok()
        });
        checks.check(refused == 0, || format!("{refused} ladder steps refused"));
        quantile(&samples, 0.5)
    };

    // Rung 1: TCP client → reactor → handler pool → manager.
    let mut service = Service::start(&probe.dir("ladder-tcp")).expect("start service");
    let mut tcp = service.connect();
    let session = tcp.open(&spec).expect("open over tcp");
    let tcp_us = client_rung(probe.checks, &mut |n| {
        step(&mut tcp, &session, seed, &mut off, NO_PARENT, n)
    });
    drop(tcp);
    service.stop();

    // Rung 2: the same client over `handle_line`, no socket.
    let manager = journaled_manager(&probe.dir("ladder-loopback"));
    let mut loopback = Client::loopback(Arc::clone(&manager));
    let session = loopback.open(&spec).expect("open over loopback");
    let loopback_us = client_rung(probe.checks, &mut |n| {
        step(&mut loopback, &session, seed, &mut off, NO_PARENT, n)
    });

    // Rung 3: parsed requests straight into `SessionManager::handle`.
    let manager = journaled_manager(&probe.dir("ladder-manager"));
    let opened = manager.handle(&open_request("ladder", cap, "annealing", seed));
    let session = opened.session.clone().unwrap_or_default();
    let (mut next_us, mut report_us, mut step_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..steps {
        match manager_step(&manager, &session, seed) {
            Ok((n, r)) => {
                next_us.push(n);
                report_us.push(r);
                step_us.push(n + r);
            }
            Err(e) => {
                probe.checks.failed_op(e);
                break;
            }
        }
    }
    let manager_us = median(&step_us);
    probe.put("manager.handle_next_us", median(&next_us), "us");
    probe.put("manager.handle_report_us", median(&report_us), "us");

    // Rungs 4 and 5: the bare session the manager wraps, with the journal as
    // the service configures it, then without.
    let params = atf_core::spec::build_params(&spec.parameters).expect("spec builds");
    let groups = auto_group(params);
    let bare = |journal: Option<&Path>| {
        let technique = atf_core::spec::build_technique(spec.search.as_ref().expect("search spec"))
            .expect("annealing builds");
        let mut session =
            TuningSession::<f64>::new(SearchSpace::generate_parallel(&groups), technique)
                .expect("non-empty space")
                .abort_condition(abort::evaluations(u64::MAX))
                .journal_checkpoint_every(CHECKPOINT_EVERY);
        if let Some(path) = journal {
            session = session.journal_to(path).expect("create journal");
        }
        let samples = each_us(steps, |_| {
            let Handout::Next(ticket, config) = session.next_ticket() else {
                return false;
            };
            let wire = atf_service::proto::config_to_wire(&config);
            session
                .report_ticket(ticket, Ok(inputs::wire_cost(&wire, seed)))
                .is_ok()
        });
        quantile(&samples, 0.5)
    };
    let journal_path = probe.dir("ladder-session").join("bare.journal");
    let session_journal_us = bare(Some(&journal_path));
    let session_us = bare(None);

    let ladder = ladder_self(&[
        ("reactor.self_us", tcp_us),
        ("proto.self_us", loopback_us),
        ("manager.self_us", manager_us),
        ("ladder.journal_self_us", session_journal_us),
        ("ladder.session_us", session_us),
    ]);
    probe.put("ladder.tcp_step_us", tcp_us, "us");
    for (name, self_us) in &ladder {
        probe.put(name, *self_us, "us");
    }
    let parts: f64 = ladder.iter().map(|r| r.1).sum();
    println!(
        "  ladder: tcp step median {tcp_us:.3} us = {} (sum {parts:.3} us)",
        ladder
            .iter()
            .map(|(n, v)| format!("{n} {v:.3}"))
            .collect::<Vec<_>>()
            .join(" + ")
    );

    // Session lifecycle through the manager: open (service-side spacegen,
    // journal create) and finish (database append), cap-8 spec as
    // `service_churn`.
    let manager = journaled_manager(&probe.dir("manager-lifecycle"));
    let lifecycles = probe.n(64);
    let mut sessions = Vec::with_capacity(lifecycles);
    let opens = each_us(lifecycles, |i| {
        let opened = manager.handle(&open_request(&format!("life-{i}"), 8, "ensemble", seed));
        sessions.push(opened.session.clone().unwrap_or_default());
        opened.ok
    });
    for session in &sessions {
        manager_step(&manager, session, seed).ok();
    }
    let finishes = each_us(lifecycles, |i| {
        manager
            .handle(&Request::new("finish").with_session(&sessions[i]))
            .ok
    });
    probe.put("manager.handle_open_us", quantile(&opens, 0.5), "us");
    probe.put("manager.handle_finish_us", quantile(&finishes, 0.5), "us");

    // Two threads, two sessions, one manager: shard-lock contention.
    let manager = journaled_manager(&probe.dir("manager-2thr"));
    let ids: Vec<String> = (0..2)
        .map(|i| {
            manager
                .handle(&open_request(
                    &format!("pair-{i}"),
                    cap,
                    "annealing",
                    seed + i,
                ))
                .session
                .unwrap_or_default()
        })
        .collect();
    let t0 = Instant::now();
    let done: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .map(|id| {
                let manager = &manager;
                scope.spawn(move || {
                    (0..steps)
                        .take_while(|_| manager_step(manager, id, seed).is_ok())
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    });
    probe.checks.check(done == 2 * steps, || {
        format!(
            "two-thread manager probe completed {done} of {} steps",
            2 * steps
        )
    });
    probe.put(
        "manager.handle_2thr_steps_per_s",
        done as f64 / t0.elapsed().as_secs_f64(),
        "1/s",
    );
}

/// `reactor.*`: requests that touch no session.
fn reactor(probe: &mut Probe) {
    let mut service = Service::start(&probe.dir("reactor")).expect("start service");
    let n = probe.n(2_000);
    let mut client = service.connect();
    let pings = each_us(n, |_| client.ping().is_ok());
    probe.put("reactor.ping_rtt_us", quantile(&pings, 0.5), "us");

    let connects = each_us(probe.n(200), |_| service.connect());
    probe.put("reactor.connect_us", quantile(&connects, 0.5), "us");

    // 64 pings in flight on one raw connection, the reactor's pipelining cap.
    const IN_FLIGHT: usize = 64;
    let stream = std::net::TcpStream::connect(service.addr).expect("raw connection");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let batch = "{\"cmd\":\"ping\"}\n".repeat(IN_FLIGHT);
    let rounds = (n / IN_FLIGHT / 2).max(4);
    let mut line = String::new();
    let mut answered = 0usize;
    let t0 = Instant::now();
    for _ in 0..rounds {
        writer.write_all(batch.as_bytes()).expect("write pings");
        for _ in 0..IN_FLIGHT {
            line.clear();
            if reader.read_line(&mut line).is_ok_and(|n| n > 0) && line.contains("\"ok\":true") {
                answered += 1;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    probe.checks.check(answered == rounds * IN_FLIGHT, || {
        format!(
            "{answered} of {} pipelined pings answered",
            rounds * IN_FLIGHT
        )
    });
    probe.put(
        "reactor.pipelined_pings_per_s",
        answered as f64 / wall,
        "1/s",
    );
    drop((writer, reader, client));
    service.stop();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers_measure_what_they_run() {
        let walls = median_secs(3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(walls >= 0.002);
        let ns = ns_per_call(10, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ns >= 1e6);
        let each = each_us(5, |i| i);
        assert_eq!(each.len(), 5);
        assert!(each.windows(2).all(|w| w[0] <= w[1]));
    }
}
