//! Chaos suite: seeded fault injection across the execution stack.
//!
//! The matrix — fault mix × {CSV, JSON} × threads {1, 2, 8} × sessions
//! {1, 4} — asserts the hardening contract end to end: every query
//! either returns the fault-free-identical result or a typed error
//! (`Timeout` / `Cancelled` / `Io`), nothing hangs, and the registry's
//! invariants (byte budget, accounted-bytes == resident bytes, and the
//! reconciliation `admissions == residents + evictions + removals`)
//! hold at quiescence. Failed scans never admit, so they do not appear
//! in the reconciliation identity — they are tracked separately by
//! `failed_scans`.
//!
//! The CI `chaos` job runs this suite under `RECACHE_FAULT_SEED` with a
//! hard job timeout, so a hang is a failure, not a stall.

use recache::data::gen::tpch;
use recache::data::{
    csv as data_csv, json as data_json, FaultKind, FaultPlan, FaultSite, FileFormat, RetryPolicy,
};
use recache::engine::exec::ExecOptions;
use recache::sql::{parse_query, QuerySpec};
use recache::types::{CancelToken, Error, Schema, Value};
use recache::workload::split_round_robin;
use recache::{QueryRequest, ReCache, Scheduler};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Base seed for every fault plan in the suite. The CI matrix varies it
/// via `RECACHE_FAULT_SEED`; any value must pass.
fn fault_seed() -> u64 {
    std::env::var("RECACHE_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC1A0_5EED)
}

/// Scale factor sized so `lineitem` spans several batched-scan chunks
/// (~12k records over 4096-row windows), giving chunk-granularity
/// faults and retries something real to hit.
const SF: f64 = 0.002;

/// Retry policy for chaos runs: a couple more attempts than the
/// default and near-zero backoff so the suite stays fast.
const CHAOS_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 6,
    base_backoff: Duration::from_micros(5),
    max_backoff: Duration::from_micros(50),
};

/// Serialized `lineitem` fixture, generated once and shared by every
/// session in the suite.
fn lineitem_fixture() -> &'static (Schema, Vec<u8>, Vec<u8>) {
    static FIXTURE: OnceLock<(Schema, Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let schema = tpch::lineitem_schema();
        let (_, rows) = tpch::gen_orders_and_lineitems(SF, 7);
        let csv_bytes = data_csv::write_csv(&schema, &rows);
        let records: Vec<Value> = rows.iter().map(|r| Value::Struct(r.clone())).collect();
        let json_bytes = data_json::write_json(&schema, &records);
        (schema, csv_bytes, json_bytes)
    })
}

/// A fresh session with `lineitem` registered in the given format.
fn lineitem_session(format: FileFormat) -> ReCache {
    let (schema, csv_bytes, json_bytes) = lineitem_fixture();
    let mut session = ReCache::builder().build();
    match format {
        FileFormat::Csv => {
            session.register_csv_bytes("lineitem", csv_bytes.clone(), schema.clone())
        }
        FileFormat::Json => {
            session.register_json_bytes("lineitem", json_bytes.clone(), schema.clone())
        }
    }
    session
}

/// The chaos workload: SPA range scans with repeats, so runs exercise
/// misses, admissions, exact hits, and subsumption under faults.
fn chaos_specs() -> Vec<QuerySpec> {
    let mut texts = Vec::new();
    for lo in [1, 11, 21, 31, 41] {
        texts.push(format!(
            "SELECT count(*), sum(l_extendedprice) FROM lineitem \
             WHERE l_quantity >= {lo} AND l_quantity <= {hi}",
            hi = lo + 14
        ));
    }
    // Repeats of the first ranges: cache-hit paths under faults.
    texts.push(texts[0].clone());
    texts.push(texts[1].clone());
    // A narrower probe subsumed by the first range.
    texts.push(
        "SELECT count(*), sum(l_extendedprice) FROM lineitem \
         WHERE l_quantity >= 3 AND l_quantity <= 9"
            .to_owned(),
    );
    texts.iter().map(|t| parse_query(t).unwrap()).collect()
}

/// Fault-free reference rows for [`chaos_specs`], per format.
fn reference_rows(format: FileFormat) -> Vec<Vec<Value>> {
    let clean = lineitem_session(format);
    chaos_specs()
        .iter()
        .map(|spec| {
            clean
                .execute(&QueryRequest::spec(spec.clone()))
                .unwrap()
                .rows
                .clone()
        })
        .collect()
}

/// The hardening contract for one query outcome: fault-free-identical
/// rows, or a typed error from the allowed set.
fn assert_clean_or_typed(outcome: &Result<Vec<Value>, Error>, expected: &[Value], context: &str) {
    match outcome {
        Ok(rows) => assert_eq!(
            rows.as_slice(),
            expected,
            "{context}: injected faults changed a successful query's result"
        ),
        Err(e) => assert!(
            matches!(e, Error::Io(_) | Error::Timeout | Error::Cancelled),
            "{context}: fault surfaced as untyped error: {e}"
        ),
    }
}

/// Registry invariants at quiescence: accounted bytes equal resident
/// bytes, the byte budget holds, and admissions reconcile with
/// residents + evictions + removals.
fn assert_registry_invariants(session: &ReCache, context: &str) {
    let cache = session.cache();
    let counters = cache.counters();
    let snapshot = cache.snapshot();
    let resident_bytes: usize = snapshot.iter().map(|e| e.stats.bytes).sum();
    assert_eq!(
        cache.total_bytes(),
        resident_bytes,
        "{context}: accounted bytes diverge from resident snapshot bytes"
    );
    if let Some(capacity) = cache.capacity() {
        assert!(
            cache.total_bytes() <= capacity,
            "{context}: byte budget exceeded: {} > {capacity}",
            cache.total_bytes()
        );
    }
    assert_eq!(
        counters.admissions,
        snapshot.len() as u64 + counters.evictions + counters.removals,
        "{context}: admissions do not reconcile with residents + evictions + removals"
    );
}

/// The ISSUE matrix: fault mix × format × threads × sessions, seeded.
/// Every cell runs the full workload on a freshly faulted session and
/// checks the contract plus registry invariants at quiescence.
#[test]
fn chaos_matrix_returns_clean_results_or_typed_errors() {
    type FaultMix = fn(FaultPlan) -> FaultPlan;
    let base_seed = fault_seed();
    let fault_mixes: [(&str, FaultMix); 2] = [
        ("transient", |p| p.transient(0.25).short_reads(0.1)),
        ("mixed", |p| {
            p.transient(0.2).persistent(0.05).short_reads(0.05)
        }),
    ];
    for format in [FileFormat::Csv, FileFormat::Json] {
        let specs = chaos_specs();
        let reference = reference_rows(format);
        for (mix_name, mix) in fault_mixes {
            for threads in [1usize, 2, 8] {
                for sessions in [1usize, 4] {
                    let context =
                        format!("{format:?}/{mix_name}/threads={threads}/sessions={sessions}");
                    // Vary the plan seed per cell so the matrix explores
                    // different fault placements, all reproducibly.
                    let cell_seed = base_seed
                        ^ (threads as u64) << 8
                        ^ (sessions as u64) << 16
                        ^ (mix_name.len() as u64) << 24;
                    let session = lineitem_session(format);
                    assert!(
                        session.set_fault_plan("lineitem", Some(mix(FaultPlan::new(cell_seed))))
                    );
                    assert!(session.set_retry_policy("lineitem", CHAOS_RETRY));
                    if sessions == 1 {
                        let options = ExecOptions {
                            vectorized: true,
                            threads,
                            cancel: None,
                        };
                        for (spec, expected) in specs.iter().zip(&reference) {
                            let outcome = session
                                .execute(&QueryRequest::spec(spec.clone()).options(options.clone()))
                                .map(|r| r.rows.clone());
                            assert_clean_or_typed(&outcome, expected, &context);
                        }
                    } else {
                        let streams = split_round_robin(&specs, sessions);
                        let scheduler = Scheduler::new(threads);
                        match scheduler.run_streams(&session, &streams) {
                            Ok(results) => {
                                for (i, expected) in reference.iter().enumerate() {
                                    assert_eq!(
                                        &results[i % sessions][i / sessions].rows,
                                        expected,
                                        "{context}: query {i} diverged from the fault-free result"
                                    );
                                }
                            }
                            // A stream stops at its first failed query, so
                            // per-query comparison is unavailable — the
                            // error itself must still be typed.
                            Err(e) => assert!(
                                matches!(e, Error::Io(_) | Error::Timeout | Error::Cancelled),
                                "{context}: stream fault surfaced as untyped error: {e}"
                            ),
                        }
                        assert_eq!(
                            scheduler.active_sessions(),
                            0,
                            "{context}: leaked session slot"
                        );
                    }
                    assert_registry_invariants(&session, &context);
                }
            }
        }
    }
}

/// Transient faults below the retry budget are absorbed completely:
/// every query succeeds with the fault-free result, and the registry
/// records the chunk retries that made that happen.
#[test]
fn transient_faults_are_absorbed_by_retry() {
    let specs = chaos_specs();
    let reference = reference_rows(FileFormat::Csv);
    let generous = RetryPolicy {
        max_attempts: 12,
        ..CHAOS_RETRY
    };
    let options = ExecOptions {
        vectorized: true,
        threads: 2,
        cancel: None,
    };
    // A single plan can (rarely) draw no faults on the chunks the scans
    // actually visit; accumulating over a few derived plan seeds keeps
    // the retry assertion deterministic for any base seed.
    let mut total_retried = 0u64;
    for round in 0..8u64 {
        let session = lineitem_session(FileFormat::Csv);
        assert!(session.set_fault_plan(
            "lineitem",
            Some(FaultPlan::new(fault_seed().wrapping_add(round)).transient(0.4))
        ));
        assert!(session.set_retry_policy("lineitem", generous));
        for (spec, expected) in specs.iter().zip(&reference) {
            let rows = session
                .execute(&QueryRequest::spec(spec.clone()).options(options.clone()))
                .unwrap()
                .rows
                .clone();
            assert_eq!(&rows, expected, "retried query diverged from clean result");
        }
        let counters = session.cache().counters();
        assert_eq!(counters.failed_scans, 0);
        assert_eq!(counters.timeouts, 0);
        assert_registry_invariants(&session, "transient-retry");
        total_retried += counters.retried_chunks;
        if total_retried > 0 {
            break;
        }
    }
    assert!(
        total_retried > 0,
        "a 40% transient rate over several chunks must retry at least once"
    );
}

/// Persistent faults exhaust the retry budget and surface as typed
/// `Io` errors — never wrong results — and are counted as failed scans.
#[test]
fn persistent_faults_surface_typed_io_errors() {
    let specs = chaos_specs();
    let session = lineitem_session(FileFormat::Csv);
    assert!(session.set_fault_plan(
        "lineitem",
        Some(FaultPlan::new(fault_seed()).persistent(1.0))
    ));
    assert!(session.set_retry_policy("lineitem", CHAOS_RETRY));
    for spec in &specs {
        let err = session
            .execute(&QueryRequest::spec(spec.clone()))
            .unwrap_err();
        assert!(
            matches!(err, Error::Io(_)),
            "persistent fault must surface as Io, got: {err}"
        );
    }
    let counters = session.cache().counters();
    assert_eq!(counters.failed_scans, specs.len() as u64);
    assert_eq!(counters.admissions, 0, "failed scans must never admit");
    assert_eq!(session.cache().len(), 0);
    assert_registry_invariants(&session, "persistent-io");
}

/// A batched raw scan that hits a persistent chunk fault degrades to
/// the row-at-a-time path and still produces the fault-free result.
/// The seed is searched so the chunk grid faults while the row-scan
/// ordinals stay clean — deterministic for any `RECACHE_FAULT_SEED`.
#[test]
fn degraded_fallback_completes_on_batched_scan_faults() {
    let reference = reference_rows(FileFormat::Csv);
    let specs = chaos_specs();
    let rate = 0.3;
    let session = lineitem_session(FileFormat::Csv);
    let n_chunks = session.source("lineitem").unwrap().batch_chunks() as u64;
    assert!(n_chunks >= 2, "fixture must span multiple chunks");
    let seed = (fault_seed()..fault_seed() + 20_000)
        .find(|&s| {
            let plan = FaultPlan::new(s).persistent(rate);
            let chunk_hit = (0..n_chunks).any(|c| plan.decide(FaultSite::Chunk, c, 0).is_some());
            let rows_clean =
                (0..12).all(|o| (0..4).all(|a| plan.decide(FaultSite::RowScan, o, a).is_none()));
            chunk_hit && rows_clean
        })
        .expect("a seed with faulty chunks and a clean row path exists");
    assert!(session.set_fault_plan("lineitem", Some(FaultPlan::new(seed).persistent(rate))));
    let options = ExecOptions {
        vectorized: true,
        threads: 2,
        cancel: None,
    };
    let result = session
        .execute(&QueryRequest::spec(specs[0].clone()).options(options.clone()))
        .unwrap();
    assert_eq!(
        result.rows, reference[0],
        "degraded fallback must reproduce the fault-free result"
    );
    assert!(
        result.stats.exec.tables.iter().any(|t| t.degraded_fallback),
        "the batched scan should have fallen back to the row path"
    );
    assert!(session.cache().counters().degraded_fallbacks >= 1);
    assert_registry_invariants(&session, "degraded-fallback");
}

/// Deadlines and cancellation: an expired deadline and a pre-cancelled
/// token return their typed errors promptly (and are counted), while a
/// generous deadline leaves the result untouched.
#[test]
fn deadlines_and_cancellation_return_typed_errors() {
    let reference = reference_rows(FileFormat::Csv);
    let specs = chaos_specs();
    let session = lineitem_session(FileFormat::Csv);
    let options = ExecOptions {
        vectorized: true,
        threads: 2,
        cancel: None,
    };

    // An already-expired deadline fails before any scan work.
    let err = session
        .execute(
            &QueryRequest::spec(specs[0].clone())
                .options(options.clone())
                .deadline(Duration::ZERO),
        )
        .unwrap_err();
    assert!(matches!(err, Error::Timeout), "got: {err}");
    assert_eq!(session.cache().counters().timeouts, 1);

    // A pre-cancelled token is reported as cancellation, not timeout.
    let cancelled = Arc::new(CancelToken::new());
    cancelled.cancel();
    let cancel_options = ExecOptions {
        cancel: Some(cancelled),
        ..options.clone()
    };
    let err = session
        .execute(&QueryRequest::spec(specs[0].clone()).options(cancel_options))
        .unwrap_err();
    assert!(matches!(err, Error::Cancelled), "got: {err}");

    // Injected latency spikes push execution past a short deadline.
    assert!(session.set_fault_plan(
        "lineitem",
        Some(FaultPlan::new(fault_seed()).latency(1.0, Duration::from_millis(30)))
    ));
    let err = session
        .execute(
            &QueryRequest::spec(specs[0].clone())
                .options(options.clone())
                .deadline(Duration::from_millis(5)),
        )
        .unwrap_err();
    assert!(matches!(err, Error::Timeout), "got: {err}");

    // With the spikes removed and a generous deadline, the same query
    // completes with the fault-free result.
    assert!(session.set_fault_plan("lineitem", None));
    let result = session
        .execute(
            &QueryRequest::spec(specs[0].clone())
                .options(options.clone())
                .deadline(Duration::from_secs(60)),
        )
        .unwrap();
    assert_eq!(result.rows, reference[0]);
    assert_registry_invariants(&session, "deadlines");
}

/// Panic faults on a shared session exercise leader failover: the
/// panicking stream is identified, and the whole run either completes
/// with clean results or surfaces a typed/panic-tagged error — while
/// the registry stays consistent.
#[test]
fn panic_faults_keep_the_registry_consistent() {
    let specs = chaos_specs();
    let reference = reference_rows(FileFormat::Csv);
    let session = lineitem_session(FileFormat::Csv);
    assert!(session.set_fault_plan("lineitem", Some(FaultPlan::new(fault_seed()).panics(0.3))));
    let streams = split_round_robin(&specs, 4);
    let scheduler = Scheduler::new(4);
    match scheduler.run_streams(&session, &streams) {
        Ok(results) => {
            for (i, expected) in reference.iter().enumerate() {
                assert_eq!(&results[i % 4][i / 4].rows, expected);
            }
        }
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("panicked") && msg.contains("injected panic"),
                "panic fault must be surfaced with its payload, got: {msg}"
            );
        }
    }
    assert_eq!(scheduler.active_sessions(), 0, "leaked session slot");
    assert_registry_invariants(&session, "panic-faults");

    // The session is still usable after the panics: clear the plan and
    // re-run the workload clean.
    assert!(session.set_fault_plan("lineitem", None));
    for (spec, expected) in specs.iter().zip(&reference) {
        assert_eq!(
            &session
                .execute(&QueryRequest::spec(spec.clone()))
                .unwrap()
                .rows,
            expected
        );
    }
    assert_registry_invariants(&session, "panic-faults/recovered");
}

/// A fault kind sanity net for the suite itself: every configured kind
/// is reachable from the plan the matrix uses.
#[test]
fn fault_plans_draw_every_configured_kind() {
    let plan = FaultPlan::new(fault_seed())
        .transient(0.3)
        .persistent(0.1)
        .short_reads(0.2);
    let mut kinds = std::collections::BTreeSet::new();
    for chunk in 0..256 {
        for attempt in 0..4 {
            if let Some(kind) = plan.decide(FaultSite::Chunk, chunk, attempt) {
                kinds.insert(format!("{kind:?}"));
            }
        }
    }
    for expected in [
        FaultKind::TransientIo,
        FaultKind::PersistentIo,
        FaultKind::ShortRead,
    ] {
        assert!(
            kinds.contains(&format!("{expected:?}")),
            "kind {expected:?} never drawn over 1024 decisions"
        );
    }
}
