//! The untraced run: boot `recache-server` in-process on an ephemeral
//! port and drive it closed loop from `CLIENTS` connections.

use crate::reference::Answer;
use crate::workload::{build_session, Dataset, Plan, SessionKind, CLIENTS};
use recache_cache::stats::RegistryCounters;
use recache_core::{CacheOutcome, QueryRequest, ReCache};
use recache_server::{Client, Server, ServerConfig, ServerHandle, StatsReply};
use recache_types::{Error, Result, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A served deployment, ready for timed traffic.
pub struct Deployment {
    pub session: Arc<ReCache>,
    pub server: ServerHandle,
    pub clients: Vec<Client>,
    /// A separate connection for stats probes.
    pub probe: Client,
}

impl Deployment {
    /// Session build, source registration, server bind, client connects
    /// and the workload's warm-up replay — exactly what `setup_s` times.
    /// The byte vectors are moved in so their copies stay off the clock.
    pub fn set_up(plan: &Plan, csv: Vec<u8>, json: Vec<u8>) -> Result<Deployment> {
        let session = Arc::new(build_session(SessionKind::Served, csv, json));
        let server = Server::bind(ServerConfig::default(), Arc::clone(&session))?.spawn();
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<Vec<_>>>()?;
        let probe = Client::connect(server.addr())?;
        let mut deployment = Deployment {
            session,
            server,
            clients,
            probe,
        };
        for _ in 0..plan.workload.warm_passes() {
            deployment.replay(&plan.pool)?;
        }
        Ok(deployment)
    }

    /// Replays `specs` once, split over the client connections.
    fn replay(&mut self, specs: &[recache_core::sql::QuerySpec]) -> Result<()> {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let next = &next;
                    scope.spawn(move || -> Result<()> {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = specs.get(i) else {
                                return Ok(());
                            };
                            client.query(&QueryRequest::spec(spec.clone()))?;
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("replay thread panicked"))
        })
    }

    /// Closes every connection and drains the server.
    pub fn tear_down(self) -> Result<()> {
        drop(self.clients);
        drop(self.probe);
        self.server.shutdown()
    }
}

/// Times one set-up; the byte copies stay off the clock.
pub fn timed_set_up(plan: &Plan, data: &Dataset) -> Result<(Deployment, f64)> {
    let (csv, json) = (data.csv.clone(), data.json.clone());
    let started = Instant::now();
    let deployment = Deployment::set_up(plan, csv, json)?;
    Ok((deployment, started.elapsed().as_secs_f64()))
}

/// One completed request of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub key: u32,
    pub outcome: CacheOutcome,
    pub rtt_ns: u64,
    /// Server-reported `total_ns`.
    pub total_ns: u64,
}

/// A reply kept for the reference check after the timed phase.
pub struct Reply {
    pub key: u32,
    pub rows: Vec<Value>,
    pub rows_aggregated: u64,
}

/// What one client connection saw, in completion order.
#[derive(Default)]
pub struct Lane {
    pub samples: Vec<Sample>,
    pub replies: Vec<Reply>,
    /// Requests that returned a typed error.
    pub errors: Vec<Error>,
    /// Replies checked against a precomputed reference that differed.
    pub mismatches: usize,
    /// Whether a finite request sequence ran out before the clock.
    pub exhausted: bool,
}

/// What the timed phase saw: one episode, or several merged.
pub struct Timed {
    pub lanes: Vec<Lane>,
    pub elapsed_s: f64,
    /// Stats frames before and after each episode.
    pub stats: Vec<(StatsReply, StatsReply)>,
    /// `cache().counters()` before and after each episode.
    pub counters: Vec<(RegistryCounters, RegistryCounters)>,
    /// `cache().total_bytes()` at the end of each episode.
    pub resident_bytes: Vec<usize>,
}

impl Timed {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.lanes.iter().flat_map(|lane| &lane.samples)
    }

    pub fn errors(&self) -> impl Iterator<Item = &Error> {
        self.lanes.iter().flat_map(|lane| &lane.errors)
    }

    /// Completed requests, failed ones included.
    pub fn attempted(&self) -> usize {
        self.lanes
            .iter()
            .map(|lane| lane.samples.len() + lane.errors.len())
            .sum()
    }

    /// Appends another episode.
    pub fn merge(&mut self, other: Timed) {
        self.lanes.extend(other.lanes);
        self.elapsed_s += other.elapsed_s;
        self.stats.extend(other.stats);
        self.counters.extend(other.counters);
        self.resident_bytes.extend(other.resident_bytes);
    }

    /// A named stats-frame counter's change over the timed phase.
    pub fn stat_delta(&self, name: &str) -> u64 {
        let get = |stats: &StatsReply| {
            stats
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        self.stats
            .iter()
            .map(|(before, after)| get(after).saturating_sub(get(before)))
            .sum()
    }

    /// Requests shed by the admission gate during the timed phase.
    pub fn shed(&self) -> u64 {
        self.stats
            .iter()
            .map(|(before, after)| after.admission.shed - before.admission.shed)
            .sum()
    }

    /// A registry counter's change over the timed phase. Both snapshots
    /// of an episode are taken with no request in flight.
    pub fn counter_delta(&self, field: fn(&RegistryCounters) -> u64) -> u64 {
        self.counters
            .iter()
            .map(|(before, after)| field(after) - field(before))
            .sum()
    }

    /// Mean resident data-cache bytes at the end of an episode.
    pub fn mean_resident_bytes(&self) -> f64 {
        let n = self.resident_bytes.len().max(1);
        self.resident_bytes.iter().sum::<usize>() as f64 / n as f64
    }
}

/// Requests the closed loop keeps issuing past the clock until it has
/// this many samples, so `p99_ms` has at least 10 samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Drives the deployment closed loop for `seconds`. With `expected`
/// (pool repeats), replies are checked as they arrive; otherwise they
/// are kept for the reference check after the phase.
pub fn timed_phase(
    deployment: &mut Deployment,
    plan: &Plan,
    seconds: f64,
    expected: Option<&[Answer]>,
) -> Result<Timed> {
    let stats_before = deployment.probe.stats()?;
    let counters_before = deployment.session.cache().counters();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let workers: Vec<_> = deployment
            .clients
            .iter_mut()
            .map(|client| {
                let (next, done) = (&next, &done);
                scope.spawn(move || {
                    let mut lane = Lane::default();
                    while started.elapsed() < budget || done.load(Ordering::Relaxed) < MIN_SAMPLES {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(issued) = plan.request(i) else {
                            lane.exhausted = true;
                            break;
                        };
                        let request = QueryRequest::spec(issued.spec);
                        let sent = Instant::now();
                        let outcome = client.query(&request);
                        let rtt_ns = sent.elapsed().as_nanos() as u64;
                        done.fetch_add(1, Ordering::Relaxed);
                        let reply = match outcome {
                            Ok(reply) => reply,
                            Err(err) => {
                                lane.errors.push(err);
                                continue;
                            }
                        };
                        let key = issued.key as u32;
                        lane.samples.push(Sample {
                            key,
                            outcome: reply.telemetry.outcome,
                            rtt_ns,
                            total_ns: reply.telemetry.total_ns,
                        });
                        match expected {
                            Some(answers) => {
                                if !answers[issued.key]
                                    .same_bits(&reply.rows, reply.rows_aggregated)
                                {
                                    lane.mismatches += 1;
                                }
                            }
                            None => lane.replies.push(Reply {
                                key,
                                rows: reply.rows,
                                rows_aggregated: reply.rows_aggregated,
                            }),
                        }
                    }
                    lane
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let counters_after = deployment.session.cache().counters();
    let resident_bytes = deployment.session.cache().total_bytes();
    let stats_after = deployment.probe.stats()?;
    Ok(Timed {
        lanes,
        elapsed_s,
        stats: vec![(stats_before, stats_after)],
        counters: vec![(counters_before, counters_after)],
        resident_bytes: vec![resident_bytes],
    })
}
