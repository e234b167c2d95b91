//! `servebench` — the repository benchmark: closed-loop served
//! workloads over ReCache with end-to-end and per-layer metrics.
//!
//! ```text
//! servebench --workload <adhoc_cold|revisit_warm|repeat_hot> --seed <n> --seconds <s> --trace <0|1>
//! servebench --summarize <span dump>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. See `README.md`.

mod reference;
mod serve;
mod trace;
mod workload;

use recache_cache::stats::RegistryCounters;
use recache_core::CacheOutcome;
use reference::Answer;
use serve::Timed;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{percentile, Summary, Traced};
use workload::{Dataset, Plan, Workload, CACHE_BUDGET_BYTES, CLIENTS, SF};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --workload <adhoc_cold|revisit_warm|repeat_hot> \
                     --seed <n> --seconds <s> --trace <0|1>\n       servebench --summarize <dump>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut values: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| {
        values
            .get(flag)
            .copied()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_owned())?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("bad --seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 2 && argv[0] == "--summarize" {
        return summarize_file(&argv[1]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// A metric as printed: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// One fresh deployment's share of the run: its data, its requests, and
/// (for pool repeats) the reference computed before set-up.
struct Episode {
    data: Dataset,
    plan: Plan,
    expected: Option<Vec<Answer>>,
}

fn run(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    let workload = args.workload;
    let count = workload.episodes();
    let phase_s = args.seconds / count as f64;
    let horizon = ((phase_s * 1000.0) as usize).max(6000);
    let episodes = (0..count)
        .map(|e| {
            let seed = workload.episode_seed(args.seed, e);
            let data = Dataset::generate(SF, workload.data_seed(seed));
            let plan = Plan::new(workload, SF, seed, horizon);
            // Pool repeats are checked as they arrive, against a reference
            // computed here: after data generation, before set-up.
            let expected = if plan.repeats_pool() {
                Some(reference::answers(&data.csv, &data.json, &plan.pool)?)
            } else {
                None
            };
            Ok(Episode {
                data,
                plan,
                expected,
            })
        })
        .collect::<Result<Vec<_>, recache_types::Error>>()?;
    let provenance = provenance(args, &episodes);
    println!("{}", provenance.replace('\n', " "));

    let mut setup_times = Vec::new();
    let mut phases = Vec::new();
    let mut peak_rss_mb = None;
    for episode in &episodes {
        let (mut deployment, seconds) = serve::timed_set_up(&episode.plan, &episode.data)?;
        setup_times.push(seconds);
        let expected = episode.expected.as_deref();
        phases.push(serve::timed_phase(
            &mut deployment,
            &episode.plan,
            phase_s,
            expected,
        )?);
        // The first episode's peak: later episodes would add whatever the
        // allocator kept from the deployments before them.
        peak_rss_mb.get_or_insert_with(peak_rss_mb_now);
        deployment.tear_down()?;
    }
    let peak_rss_mb = peak_rss_mb.expect("at least one episode");
    // Further set-ups for the `setup_s` median, after the peak is read so
    // their garbage does not count in it.
    while setup_times.len() < workload.setup_repeats() {
        let episode = &episodes[setup_times.len() % count];
        let (deployment, seconds) = serve::timed_set_up(&episode.plan, &episode.data)?;
        deployment.tear_down()?;
        setup_times.push(seconds);
    }

    // Reference for every distinct query each episode issued.
    let mut answers = Vec::new();
    let mut mismatches = 0;
    for (episode, timed) in episodes.iter().zip(&phases) {
        let mut keys: Vec<usize> = timed.samples().map(|s| s.key as usize).collect();
        keys.sort_unstable();
        keys.dedup();
        let known: HashMap<usize, Answer> = match &episode.expected {
            Some(pool) => pool.iter().cloned().enumerate().collect(),
            None => reference_for(episode, &keys)?,
        };
        mismatches += timed
            .lanes
            .iter()
            .map(|lane| {
                lane.mismatches
                    + lane
                        .replies
                        .iter()
                        .filter(|r| !known[&(r.key as usize)].same_bits(&r.rows, r.rows_aggregated))
                        .count()
            })
            .sum::<usize>();
        answers.push(known);
    }
    let mut phases = phases.into_iter();
    let mut timed = phases.next().expect("at least one episode");
    phases.for_each(|episode| timed.merge(episode));
    let attempted = timed.attempted();
    let mut failed = timed.errors().count() + mismatches;
    for err in timed.errors().take(3) {
        eprintln!("servebench: request failed: {err}");
    }

    let metrics: Vec<Metric> = if args.trace {
        let mut traced: Option<Traced> = None;
        let mut traced_failed = 0;
        let per_episode = (attempted / count).min(trace::MAX_TRACED_REQUESTS / count);
        for (e, (episode, known)) in episodes.iter().zip(&mut answers).enumerate() {
            let first_request = (e * trace::MAX_TRACED_REQUESTS) as u32;
            let replay = trace::traced_run(
                &episode.plan,
                &episode.data,
                phase_s,
                per_episode,
                first_request,
            )?;
            let missing: Vec<usize> = replay
                .replies
                .iter()
                .map(|(key, _, _)| *key)
                .filter(|key| !known.contains_key(key))
                .collect::<HashSet<_>>()
                .into_iter()
                .collect();
            known.extend(reference_for(episode, &missing)?);
            traced_failed += replay.errors + trace::count_mismatches(&replay, known);
            match &mut traced {
                Some(all) => all.merge(replay),
                None => traced = Some(replay),
            }
        }
        let traced = traced.expect("at least one episode");
        failed += traced_failed;
        let summary = trace::summarize(&traced.spans);
        let raw_bytes = episodes.iter().map(|e| e.data.raw_bytes()).sum::<usize>() / count;
        let metrics = per_layer(&timed, &traced, &summary, raw_bytes);
        write_trace_outputs(args, &provenance, &traced, &summary, &metrics)?;
        print_summary(&summary, traced_failed);
        metrics
    } else {
        end_to_end(&timed, &setup_times, peak_rss_mb)
    };

    let correct = failed == 0;
    let beyond_p99: usize = rtt_slices(&timed)
        .iter()
        .map(|slice| slice.len() - (0.99 * slice.len() as f64).ceil() as usize)
        .sum();
    println!(
        "workload={} episodes={} samples={} failed={} mismatches={} elapsed_s={:.3} samples_beyond_p99={}{}",
        workload.name(),
        count,
        attempted,
        failed,
        mismatches,
        timed.elapsed_s,
        beyond_p99,
        if timed.lanes.iter().any(|lane| lane.exhausted) {
            " (request sequence exhausted)"
        } else {
            ""
        }
    );
    for (name, unit, value) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let result = result_json(correct, attempted, failed, &metrics);
    write_results(args, &provenance, &result)?;
    println!("{result}");
    Ok(correct)
}

fn reference_for(
    episode: &Episode,
    keys: &[usize],
) -> Result<HashMap<usize, Answer>, recache_types::Error> {
    let specs: Vec<_> = keys.iter().map(|&k| episode.plan.spec_of(k)).collect();
    let answers = reference::answers(&episode.data.csv, &episode.data.json, &specs)?;
    Ok(keys.iter().copied().zip(answers).collect())
}

fn sorted_rtts(timed: &Timed) -> Vec<u64> {
    let mut rtts: Vec<u64> = timed.samples().map(|s| s.rtt_ns).collect();
    rtts.sort_unstable();
    rtts
}

/// Consecutive slices of the timed phase that `p99_ms` is taken over:
/// up to [`P99_SLICES`], each with at least [`serve::MIN_SAMPLES`]
/// samples so that 10 lie beyond its p99.
const P99_SLICES: usize = 5;

/// Round trips of each slice, sorted. Slice `i` joins the `i`-th share
/// of every lane; the lanes run side by side, so it covers one stretch of
/// the timed phase.
fn rtt_slices(timed: &Timed) -> Vec<Vec<u64>> {
    let n = (timed.samples().count() / serve::MIN_SAMPLES).clamp(1, P99_SLICES);
    (0..n)
        .map(|i| {
            let mut rtts: Vec<u64> = timed
                .lanes
                .iter()
                .flat_map(|lane| {
                    let len = lane.samples.len();
                    &lane.samples[len * i / n..len * (i + 1) / n]
                })
                .map(|s| s.rtt_ns)
                .collect();
            rtts.sort_unstable();
            rtts
        })
        .collect()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn end_to_end(timed: &Timed, setup_times: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let rtts = sorted_rtts(timed);
    let completed = timed.attempted();
    // The median of the slices' p99s: one burst of interference from
    // outside the process moves one slice, not the metric.
    let p99s: Vec<f64> = rtt_slices(timed)
        .iter()
        .map(|slice| percentile(slice, 0.99) / 1e6)
        .collect();
    vec![
        ("qps", "1/s", completed as f64 / timed.elapsed_s),
        ("p50_ms", "ms", percentile(&rtts, 0.50) / 1e6),
        ("p99_ms", "ms", median(&p99s)),
        ("setup_s", "s", median(setup_times)),
        ("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics: counters and wire times from the untraced run,
/// stage times from the traced run's summary.
fn per_layer(timed: &Timed, traced: &Traced, summary: &Summary, raw_bytes: usize) -> Vec<Metric> {
    let delta = |name: &str| timed.stat_delta(name) as f64;
    let mut wire: Vec<u64> = timed
        .samples()
        .map(|s| s.rtt_ns.saturating_sub(s.total_ns))
        .collect();
    wire.sort_unstable();
    let mut probe: Vec<u64> = timed
        .samples()
        .filter(|s| s.outcome == CacheOutcome::ResultHit)
        .map(|s| s.total_ns)
        .collect();
    probe.sort_unstable();
    let registry = |field: fn(&RegistryCounters) -> u64| timed.counter_delta(field) as f64;
    let hits = registry(|c| c.hits_exact) + registry(|c| c.hits_subsuming);
    let misses = registry(|c| c.misses);
    let result_hits = delta("result_hits");
    let untraced_qps = timed.attempted() as f64 / timed.elapsed_s;
    let traced_qps = traced.requests as f64 / traced.elapsed_s;
    let mut metrics: Vec<Metric> = vec![
        ("server.wire_us_p50", "us", percentile(&wire, 0.50) / 1e3),
        ("server.wire_us_p99", "us", percentile(&wire, 0.99) / 1e3),
        ("server.shed", "count", timed.shed() as f64),
        (
            "core.result_hit_ratio",
            "ratio",
            ratio(result_hits, result_hits + delta("result_misses")),
        ),
        (
            "core.result_probe_us_p50",
            "us",
            percentile(&probe, 0.50) / 1e3,
        ),
        (
            "core.coalesced",
            "count",
            delta("coalesced") + delta("coalesced_subsumed"),
        ),
        (
            "core.raw_passes_saved_ratio",
            "ratio",
            ratio(
                delta("shared_scan_participants") - delta("shared_scans"),
                misses,
            ),
        ),
        ("cache.hit_ratio", "ratio", ratio(hits, hits + misses)),
        ("cache.admissions", "count", registry(|c| c.admissions)),
        ("cache.evictions", "count", registry(|c| c.evictions)),
        (
            "cache.evicted_mb",
            "MB",
            registry(|c| c.bytes_evicted) / 1e6,
        ),
        ("cache.warm_misses", "count", misses),
        ("cache.resident_mb", "MB", timed.mean_resident_bytes() / 1e6),
        (
            "cache.bytes_per_raw_byte",
            "ratio",
            ratio(timed.mean_resident_bytes(), raw_bytes as f64),
        ),
        (
            "trace.overhead",
            "ratio",
            ratio(untraced_qps - traced_qps, untraced_qps),
        ),
    ];
    metrics.extend(summary.metrics.iter().copied());
    metrics
}

fn print_summary(summary: &Summary, traced_failed: usize) {
    let total: u64 = summary.self_ns.values().sum();
    let mut line = format!(
        "trace: requests={} spans={} failed={} reconciled={} unattributed_share={:.4} (slack {}) \
         child_exceeds_parent={} children_exceed_parent={} self:",
        summary.requests,
        summary.spans,
        traced_failed,
        summary.reconciled,
        summary.unattributed_share,
        trace::UNATTRIBUTED_SLACK,
        summary.child_exceeds_parent,
        summary.children_exceed_parent,
    );
    for (layer, ns) in &summary.self_ns {
        let _ = write!(
            line,
            " {layer}={:.1}%",
            100.0 * ratio(*ns as f64, total as f64)
        );
    }
    println!("{line}");
}

fn summary_json(summary: &Summary, metrics: &[Metric], provenance: &str) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"provenance\": {}, ", json_string(provenance));
    let _ = write!(
        out,
        "\"requests\": {}, \"spans\": {}, \"reconciled\": {}, \"unattributed_share\": {}, \
         \"unattributed_slack\": {}, \"child_exceeds_parent\": {}, \"children_exceed_parent\": {}, ",
        summary.requests,
        summary.spans,
        summary.reconciled,
        json_number(summary.unattributed_share),
        trace::UNATTRIBUTED_SLACK,
        summary.child_exceeds_parent,
        summary.children_exceed_parent
    );
    out.push_str("\"self_ns\": {");
    let layers: Vec<String> = summary
        .self_ns
        .iter()
        .map(|(layer, ns)| format!("\"{layer}\": {ns}"))
        .collect();
    out.push_str(&layers.join(", "));
    out.push_str("}, \"metrics\": ");
    out.push_str(&metrics_json(metrics));
    out.push('}');
    out
}

fn summarize_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("servebench: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance: String = text
        .lines()
        .filter_map(|l| l.strip_prefix("# "))
        .collect::<Vec<_>>()
        .join("\n");
    match trace::read_dump(&text) {
        Ok(spans) => {
            let summary = trace::summarize(&spans);
            print_summary(&summary, 0);
            println!("{}", summary_json(&summary, &summary.metrics, &provenance));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {path}: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Outputs

fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results"))
}

fn run_stem(args: &Args) -> String {
    format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    )
}

fn write_results(args: &Args, provenance: &str, result: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(results_dir())?;
    let body = format!(
        "{{\"provenance\": {}, \"result\": {result}}}\n",
        json_string(provenance)
    );
    std::fs::write(results_dir().join(format!("{}.json", run_stem(args))), body)
}

fn write_trace_outputs(
    args: &Args,
    provenance: &str,
    traced: &Traced,
    summary: &Summary,
    metrics: &[Metric],
) -> std::io::Result<()> {
    std::fs::create_dir_all(results_dir())?;
    let stem = run_stem(args);
    std::fs::write(
        results_dir().join(format!("{stem}.spans.tsv")),
        trace::render_dump(provenance, &traced.spans),
    )?;
    std::fs::write(
        results_dir().join(format!("{stem}.summary.json")),
        summary_json(summary, metrics, provenance) + "\n",
    )
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

// ---------------------------------------------------------------------
// Provenance

fn provenance(args: &Args, episodes: &[Episode]) -> String {
    let seeds: Vec<String> = (0..episodes.len())
        .map(|e| {
            let seed = args.workload.episode_seed(args.seed, e);
            args.workload.data_seed(seed).to_string()
        })
        .collect();
    let raw_bytes: Vec<String> = episodes
        .iter()
        .map(|e| e.data.raw_bytes().to_string())
        .collect();
    format!(
        "workload={}\nseed={}\nepisodes={}\ndata_seeds={}\nseconds={}\ntrace={}\nsf={}\n\
         raw_bytes={}\ncache_budget_bytes={}\npool_size={}\nclients={}\nnproc={}\ncpu={}\ncommit={}",
        args.workload.name(),
        args.seed,
        episodes.len(),
        seeds.join(","),
        args.seconds,
        u8::from(args.trace),
        SF,
        raw_bytes.join(","),
        CACHE_BUDGET_BYTES,
        args.workload.pool_size(),
        CLIENTS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        git_commit(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set (`VmHWM`) of this process — it hosts the server.
fn peak_rss_mb_now() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_core::AdmissionStats;
    use recache_server::StatsReply;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` pairs of a metric list in `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let value = |line: &str| line.split('"').nth(3).unwrap_or_default().to_owned();
        let mut current = String::new();
        let mut name = String::new();
        let mut out = Vec::new();
        for line in BENCHMARK.lines() {
            if line.starts_with("  \"") {
                current = line.split('"').nth(1).unwrap_or_default().to_owned();
            } else if current == section && line.trim_start().starts_with("\"name\"") {
                name = value(line);
            } else if current == section && line.trim_start().starts_with("\"unit\"") {
                out.push((name.clone(), value(line)));
            }
        }
        out
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
            .collect()
    }

    fn idle_timed() -> Timed {
        let stats = StatsReply {
            queries_run: 0,
            counters: Vec::new(),
            admission: AdmissionStats {
                admitted: 0,
                shed: 0,
                running: 0,
                queued: 0,
            },
            latency_buckets: Vec::new(),
        };
        Timed {
            lanes: vec![serve::Lane::default()],
            elapsed_s: 1.0,
            stats: vec![(stats.clone(), stats)],
            counters: vec![(RegistryCounters::default(), RegistryCounters::default())],
            resident_bytes: vec![0],
        }
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let timed = idle_timed();
        assert_eq!(
            emitted(&end_to_end(&timed, &[1.0], 1.0)),
            listed("end_to_end")
        );
        let traced = Traced {
            spans: Vec::new(),
            requests: 1,
            elapsed_s: 1.0,
            replies: Vec::new(),
            errors: 0,
        };
        let metrics = per_layer(&timed, &traced, &trace::summarize(&[]), 1);
        assert_eq!(emitted(&metrics), listed("per_layer"));
    }
}
