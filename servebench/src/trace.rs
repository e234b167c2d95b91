//! The traced run and its span summarizer.
//!
//! The traced run replays the workload in-process through
//! `ReCache::execute`, so each call's full `QueryStats` is visible. The
//! benchmark records one `request` span around each call; the child spans
//! come from the returned stats:
//!
//! ```text
//! request                      client-side wall time around execute()
//! └ core.query                 QueryStats.total_ns
//!   ├ core.result_probe        lookup_ns of a result-cache hit
//!   ├ cache.lookup             lookup_ns otherwise
//!   ├ engine.exec              exec_ns
//!   │ ├ <layer>.scan.<kind>    one per table: TableStats.exec_ns
//!   │ │ ├ layout.scan.D        ScanCost.data_ns   (cache-store scans)
//!   │ │ └ engine.scan.C        ScanCost.compute_ns
//!   │ └ engine.agg_join        agg_ns + join_ns
//!   └ core.maintain            caching_ns (materialize, upgrade, switch)
//! ```
//!
//! Only durations are measured; children are laid out one after the
//! other from their parent's start. Spans are kept in memory and written
//! out as a tab-separated dump when the run ends.

use crate::reference::Answer;
use crate::workload::{build_session, Dataset, Issued, Plan, SessionKind, CLIENTS};
use recache_cache::admission::AdmissionDecision;
use recache_cache::registry::MatchResult;
use recache_core::{CacheOutcome, QueryRequest, QueryStats};
use recache_engine::exec::AccessKind;
use recache_server::dataset::JSON_TABLE;
use recache_types::{Result, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest share of `core.query` time no child stage may cover before
/// the trace is reported as not reconciling.
pub const UNATTRIBUTED_SLACK: f64 = 0.15;
/// Clock-rounding tolerance when checking a child against its parent.
pub const CHILD_TOLERANCE_NS: u64 = 1_000;
/// Requests the traced run keeps spans for (bounds the dump's size).
pub const MAX_TRACED_REQUESTS: usize = 20_000;

/// The layer a span's self time is charged to.
pub const LAYERS: [&str; 6] = ["client", "core", "cache", "data", "layout", "engine"];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub request: u32,
    pub id: u32,
    /// `None` for the root `request` span.
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `key=value` pairs separated by `;` (scan rows, hit kind,
    /// admission, layout switch).
    pub attrs: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.split(';').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Builds one request's span tree from its measured stats.
struct Builder {
    request: u32,
    spans: Vec<Span>,
}

impl Builder {
    fn push(
        &mut self,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        attrs: String,
    ) -> (u32, u64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            request: self.request,
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            attrs,
        });
        (id, start_ns + dur_ns)
    }
}

fn scan_name(access: AccessKind, json: bool) -> (&'static str, &'static str) {
    match (access, json) {
        (AccessKind::RawFirstScan, false) => ("data", "data.scan.csv.raw_first"),
        (AccessKind::RawFirstScan, true) => ("data", "data.scan.json.raw_first"),
        (AccessKind::RawMapped, false) => ("data", "data.scan.csv.raw_mapped"),
        (AccessKind::RawMapped, true) => ("data", "data.scan.json.raw_mapped"),
        (AccessKind::CacheColumnar, _) => ("layout", "layout.scan.columnar"),
        (AccessKind::CacheDremel, _) => ("layout", "layout.scan.dremel"),
        (AccessKind::CacheRow, _) => ("layout", "layout.scan.row"),
        (AccessKind::CacheOffsets, _) => ("layout", "layout.scan.offsets"),
    }
}

/// The span tree of one traced call.
pub fn request_spans(
    request: u32,
    start_ns: u64,
    wall_ns: u64,
    stats: &QueryStats,
    outcome: CacheOutcome,
) -> Vec<Span> {
    let mut b = Builder {
        request,
        spans: Vec::with_capacity(8),
    };
    let (root, _) = b.push(None, "client", "request", start_ns, wall_ns, String::new());
    let outcome_attr = format!("outcome={outcome:?}");
    let (query, _) = b.push(
        Some(root),
        "core",
        "core.query",
        start_ns,
        stats.total_ns,
        outcome_attr,
    );
    if outcome == CacheOutcome::ResultHit {
        b.push(
            Some(query),
            "core",
            "core.result_probe",
            start_ns,
            stats.lookup_ns,
            String::new(),
        );
        return b.spans;
    }
    let (_, at) = b.push(
        Some(query),
        "cache",
        "cache.lookup",
        start_ns,
        stats.lookup_ns,
        String::new(),
    );
    let (exec, after_exec) = b.push(
        Some(query),
        "engine",
        "engine.exec",
        at,
        stats.exec_ns,
        String::new(),
    );
    let mut cursor = at;
    for (i, table) in stats.exec.tables.iter().enumerate() {
        let json = table.name == JSON_TABLE;
        let (layer, name) = scan_name(table.access, json);
        let hit = match stats.tables.get(i).and_then(|t| t.hit) {
            Some(MatchResult::Exact(_)) => "exact",
            Some(MatchResult::Subsuming(_)) => "subsuming",
            _ => "miss",
        };
        let attrs = format!(
            "rows_scanned={};rows_out={};hit={hit}",
            table.rows_scanned, table.rows_out
        );
        let (scan, end) = b.push(Some(exec), layer, name, cursor, table.exec_ns, attrs);
        if let Some(cost) = &table.cache_scan {
            let (_, d_end) = b.push(
                Some(scan),
                "layout",
                "layout.scan.D",
                cursor,
                cost.data_ns,
                String::new(),
            );
            b.push(
                Some(scan),
                "engine",
                "engine.scan.C",
                d_end,
                cost.compute_ns,
                String::new(),
            );
        }
        cursor = end;
    }
    b.push(
        Some(exec),
        "engine",
        "engine.agg_join",
        cursor,
        stats.exec.agg_ns + stats.exec.join_ns,
        String::new(),
    );
    let mut attrs = String::new();
    for table in &stats.tables {
        match table.admission {
            Some(AdmissionDecision::Eager) => attrs.push_str("admission=eager;"),
            Some(AdmissionDecision::Lazy) => attrs.push_str("admission=lazy;"),
            None => {}
        }
        if let Some((from, to)) = table.layout_switch {
            let _ = write!(attrs, "switch={from:?}>{to:?};");
        }
    }
    b.push(
        Some(query),
        "core",
        "core.maintain",
        after_exec,
        stats.caching_ns,
        attrs,
    );
    b.spans
}

/// What the traced run produced.
pub struct Traced {
    pub spans: Vec<Span>,
    pub requests: usize,
    pub elapsed_s: f64,
    /// Issued specs by reply key, with the replies to check.
    pub replies: Vec<(usize, Vec<Value>, u64)>,
    pub errors: usize,
}

/// Replays `plan` in-process on a fresh session of the served
/// configuration: the same warm-up, then `CLIENTS` threads calling
/// `execute` for `seconds` or `max_requests` requests, whichever ends
/// first. Each call runs on one thread, the share the server grants each
/// of two live connections on a two-core machine.
pub fn traced_run(
    plan: &Plan,
    data: &Dataset,
    seconds: f64,
    max_requests: usize,
    first_request: u32,
) -> Result<Traced> {
    let session = Arc::new(build_session(
        SessionKind::Served,
        data.csv.clone(),
        data.json.clone(),
    ));
    for _ in 0..plan.workload.warm_passes() {
        let next = AtomicUsize::new(0);
        run_threads(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = plan.pool.get(i) else {
                return Ok(());
            };
            session.execute(&QueryRequest::spec(spec.clone()).threads(1))?;
        })?;
    }
    let next = AtomicUsize::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    type Worker = (Vec<Span>, Vec<(usize, Vec<Value>, u64)>, usize);
    let results: Vec<Worker> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (next, session) = (&next, &session);
                scope.spawn(move || {
                    let (mut spans, mut replies, mut errors) = (Vec::new(), Vec::new(), 0);
                    while started.elapsed() < budget {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= max_requests {
                            break;
                        }
                        let Some(Issued { key, spec }) = plan.request(i) else {
                            break;
                        };
                        let request = QueryRequest::spec(spec).threads(1);
                        let start_ns = started.elapsed().as_nanos() as u64;
                        let called = Instant::now();
                        let outcome = session.execute(&request);
                        let wall_ns = called.elapsed().as_nanos() as u64;
                        match outcome {
                            Ok(response) => {
                                spans.extend(request_spans(
                                    first_request + i as u32,
                                    start_ns,
                                    wall_ns,
                                    &response.stats,
                                    response.telemetry.outcome,
                                ));
                                replies.push((
                                    key,
                                    response.rows.clone(),
                                    response.rows_aggregated as u64,
                                ));
                            }
                            Err(_) => errors += 1,
                        }
                    }
                    (spans, replies, errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("traced thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut traced = Traced {
        spans: Vec::new(),
        requests: 0,
        elapsed_s,
        replies: Vec::new(),
        errors: 0,
    };
    for (spans, replies, errors) in results {
        traced.spans.extend(spans);
        traced.requests += replies.len() + errors;
        traced.replies.extend(replies);
        traced.errors += errors;
    }
    traced.spans.sort_by_key(|s| (s.request, s.id));
    Ok(traced)
}

fn run_threads(work: impl Fn() -> Result<()> + Sync) -> Result<()> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(&work)).collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up thread panicked"))
    })
}

impl Traced {
    /// Appends another episode's replay, whose request ids are disjoint
    /// from this one's. Replies are checked per episode, so they are not
    /// carried over.
    pub fn merge(&mut self, other: Traced) {
        self.spans.extend(other.spans);
        self.requests += other.requests;
        self.elapsed_s += other.elapsed_s;
        self.errors += other.errors;
    }
}

/// Checks the traced replies against the reference answers by key.
pub fn count_mismatches(traced: &Traced, answers: &HashMap<usize, Answer>) -> usize {
    traced
        .replies
        .iter()
        .filter(|(key, rows, agg)| !answers[key].same_bits(rows, *agg))
        .count()
}

// ---------------------------------------------------------------------
// Dump

/// Renders the span dump: `#` provenance lines, a header, one span a line.
pub fn render_dump(provenance: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 64);
    for line in provenance.lines() {
        let _ = writeln!(out, "# {line}");
    }
    out.push_str("request\tid\tparent\tlayer\tname\tstart_ns\tend_ns\tattrs\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.request, s.id, parent, s.layer, s.name, s.start_ns, s.end_ns, s.attrs
        );
    }
    out
}

fn intern(known: &[&'static str], text: &str) -> Option<&'static str> {
    known.iter().copied().find(|k| *k == text)
}

const NAMES: [&str; 17] = [
    "request",
    "core.query",
    "core.result_probe",
    "cache.lookup",
    "engine.exec",
    "data.scan.csv.raw_first",
    "data.scan.json.raw_first",
    "data.scan.csv.raw_mapped",
    "data.scan.json.raw_mapped",
    "layout.scan.columnar",
    "layout.scan.dremel",
    "layout.scan.row",
    "layout.scan.offsets",
    "layout.scan.D",
    "engine.scan.C",
    "engine.agg_join",
    "core.maintain",
];

/// Parses a dump rendered by [`render_dump`].
pub fn read_dump(text: &str) -> std::result::Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.starts_with("request\t") || line.is_empty() {
            continue;
        }
        let bad = || format!("line {}: malformed span", n + 1);
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 8 {
            return Err(bad());
        }
        spans.push(Span {
            request: f[0].parse().map_err(|_| bad())?,
            id: f[1].parse().map_err(|_| bad())?,
            parent: match f[2] {
                "-" => None,
                p => Some(p.parse().map_err(|_| bad())?),
            },
            layer: intern(&LAYERS, f[3]).ok_or_else(bad)?,
            name: intern(&NAMES, f[4]).ok_or_else(bad)?,
            start_ns: f[5].parse().map_err(|_| bad())?,
            end_ns: f[6].parse().map_err(|_| bad())?,
            attrs: f[7].to_owned(),
        });
    }
    Ok(spans)
}

// ---------------------------------------------------------------------
// Summary

/// Per-layer self time, the reconciliation checks, and the traced
/// per-layer metrics.
#[derive(Debug, Clone)]
pub struct Summary {
    pub requests: usize,
    pub spans: usize,
    /// Self time (own duration minus children) per layer, in ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Children whose duration exceeds their parent's.
    pub child_exceeds_parent: usize,
    /// Parents whose children together exceed them.
    pub children_exceed_parent: usize,
    pub unattributed_share: f64,
    /// Whether no child exceeds its parent and the unattributed share
    /// stays within [`UNATTRIBUTED_SLACK`].
    pub reconciled: bool,
    /// Traced per-layer metrics: `(name, unit, value)`.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn p50(mut values: Vec<u64>) -> f64 {
    values.sort_unstable();
    percentile(&values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Cache-store scan spans and the metrics reporting them.
const LAYOUT_SCANS: [(&str, &str, &str); 4] = [
    (
        "layout.scan.columnar",
        "layout.columnar_scans",
        "layout.columnar_scan_us_p50",
    ),
    (
        "layout.scan.dremel",
        "layout.dremel_scans",
        "layout.dremel_scan_us_p50",
    ),
    (
        "layout.scan.row",
        "layout.row_scans",
        "layout.row_scan_us_p50",
    ),
    (
        "layout.scan.offsets",
        "layout.offsets_scans",
        "layout.offsets_scan_us_p50",
    ),
];

/// Layers whose self time is reported as a share of request time.
const SELF_SHARES: [(&str, &str); 5] = [
    ("core", "core.self_share"),
    ("cache", "cache.self_share"),
    ("data", "data.self_share"),
    ("layout", "layout.self_share"),
    ("engine", "engine.self_share"),
];

/// Summarizes a span dump.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut by_key: HashMap<(u32, u32), usize> = HashMap::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        by_key.insert((s.request, s.id), i);
    }
    let mut child_sum = vec![0u64; spans.len()];
    let mut child_exceeds_parent = 0;
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_key.get(&(s.request, p))) {
            child_sum[*parent] += s.duration_ns();
            if s.duration_ns() > spans[*parent].duration_ns() + CHILD_TOLERANCE_NS {
                child_exceeds_parent += 1;
            }
        }
    }
    let mut self_ns: BTreeMap<&'static str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
    let mut children_exceed_parent = 0;
    let (mut query_ns, mut unattributed_ns) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        let own = s.duration_ns();
        if child_sum[i] > own + CHILD_TOLERANCE_NS {
            children_exceed_parent += 1;
        }
        let self_time = own.saturating_sub(child_sum[i]);
        *self_ns.entry(s.layer).or_default() += self_time;
        if s.name == "core.query" {
            query_ns += own;
            unattributed_ns += self_time;
        }
    }
    let unattributed_share = ratio(unattributed_ns as f64, query_ns as f64);

    let durations = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    };
    let sum = |name: &str| durations(name).iter().sum::<u64>() as f64;
    let maintain = durations("core.maintain");
    let maintain_nonzero: Vec<u64> = maintain.iter().copied().filter(|&d| d > 0).collect();
    let (mut lazy, mut eager, mut switches) = (0usize, 0usize, 0usize);
    for s in spans.iter().filter(|s| s.name == "core.maintain") {
        for kv in s.attrs.split(';') {
            match kv {
                "admission=lazy" => lazy += 1,
                "admission=eager" => eager += 1,
                kv if kv.starts_with("switch=") => switches += 1,
                _ => {}
            }
        }
    }
    let raw = |format: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.layer == "data" && s.name.starts_with(format))
            .map(Span::duration_ns)
            .collect()
    };
    let csv_raw = raw("data.scan.csv.");
    let json_raw = raw("data.scan.json.");
    let raw_total: u64 = csv_raw.iter().chain(&json_raw).sum();
    let (mut scanned, mut out) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.name.starts_with("layout.scan.") && s.attr("hit") == Some("subsuming"))
    {
        scanned += s
            .attr("rows_scanned")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        out += s.attr("rows_out").and_then(|v| v.parse().ok()).unwrap_or(0);
    }
    let d_total = sum("layout.scan.D");
    let c_total = sum("engine.scan.C");
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;
    let requests = spans.iter().filter(|s| s.name == "request").count();
    let request_ns = sum("request");

    let mut metrics = vec![
        (
            "core.maintain_share",
            "ratio",
            ratio(sum("core.maintain"), query_ns as f64),
        ),
        ("core.maintain_ms_p50", "ms", ms(p50(maintain_nonzero))),
        (
            "cache.lookup_us_p50",
            "us",
            us(p50(durations("cache.lookup"))),
        ),
        (
            "cache.lazy_share",
            "ratio",
            ratio(lazy as f64, (lazy + eager) as f64),
        ),
        ("cache.layout_switches", "count", switches as f64),
        ("data.csv_scan_ms_p50", "ms", ms(p50(csv_raw.clone()))),
        ("data.json_scan_ms_p50", "ms", ms(p50(json_raw.clone()))),
        (
            "data.raw_scans",
            "count",
            (csv_raw.len() + json_raw.len()) as f64,
        ),
        (
            "data.raw_share",
            "ratio",
            ratio(raw_total as f64, query_ns as f64),
        ),
    ];
    for (span_name, count_name, p50_name) in LAYOUT_SCANS {
        let d = durations(span_name);
        metrics.push((count_name, "count", d.len() as f64));
        metrics.push((p50_name, "us", us(p50(d))));
    }
    metrics.extend([
        (
            "layout.decode_share",
            "ratio",
            ratio(d_total, d_total + c_total),
        ),
        (
            "layout.rows_scanned_per_out",
            "ratio",
            ratio(scanned as f64, out as f64),
        ),
        (
            "engine.compute_share",
            "ratio",
            ratio(c_total, query_ns as f64),
        ),
        (
            "engine.compute_us_p50",
            "us",
            us(p50(durations("engine.scan.C"))),
        ),
        (
            "engine.agg_join_us_p50",
            "us",
            us(p50(durations("engine.agg_join"))),
        ),
        ("trace.unattributed_share", "ratio", unattributed_share),
    ]);
    for (layer, name) in SELF_SHARES {
        metrics.push((name, "ratio", ratio(self_ns[layer] as f64, request_ns)));
    }
    Summary {
        requests,
        spans: spans.len(),
        reconciled: child_exceeds_parent == 0
            && children_exceed_parent == 0
            && unattributed_share <= UNATTRIBUTED_SLACK,
        self_ns,
        child_exceeds_parent,
        children_exceed_parent,
        unattributed_share,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            request: 0,
            id,
            parent,
            layer,
            name,
            start_ns: start,
            end_ns: end,
            attrs: String::new(),
        }
    }

    #[test]
    fn self_time_and_reconciliation() {
        let spans = vec![
            span(0, None, "client", "request", 0, 100_000),
            span(1, Some(0), "core", "core.query", 0, 90_000),
            span(2, Some(1), "cache", "cache.lookup", 0, 10_000),
            span(3, Some(1), "engine", "engine.exec", 10_000, 80_000),
            span(4, Some(3), "layout", "layout.scan.columnar", 10_000, 70_000),
            span(5, Some(1), "core", "core.maintain", 80_000, 85_000),
        ];
        let summary = summarize(&spans);
        assert_eq!(summary.self_ns["client"], 10_000);
        assert_eq!(summary.self_ns["cache"], 10_000);
        assert_eq!(summary.self_ns["engine"], 10_000);
        assert_eq!(summary.self_ns["layout"], 60_000);
        // core.query self 5_000 + core.maintain 5_000.
        assert_eq!(summary.self_ns["core"], 10_000);
        assert!((summary.unattributed_share - 5.0 / 90.0).abs() < 1e-12);
        assert!(summary.reconciled);
    }

    #[test]
    fn a_child_longer_than_its_parent_fails_reconciliation() {
        let spans = vec![
            span(0, None, "client", "request", 0, 10_000),
            span(1, Some(0), "core", "core.query", 0, 50_000),
        ];
        let summary = summarize(&spans);
        assert_eq!(summary.child_exceeds_parent, 1);
        assert!(!summary.reconciled);
    }

    #[test]
    fn dump_round_trips() {
        let mut spans = vec![
            span(0, None, "client", "request", 5, 100),
            span(1, Some(0), "core", "core.maintain", 5, 50),
        ];
        spans[1].attrs = "admission=lazy;switch=Dremel>Columnar;".to_owned();
        let text = render_dump("seed=1\nsf=0.002", &spans);
        assert_eq!(read_dump(&text).unwrap(), spans);
    }
}
