//! The deployment and the three workloads: seeded data, seeded request
//! sequences, and the session/server set-up they share.
//!
//! The workload seed draws the traffic: the ad-hoc query sequence and its
//! dataset, the pool picks and the fresh aggregate lists. The set-up pools
//! are fixed by [`DEPLOYMENT_SEED`]. Request `i` is a pure function of
//! `(workload, seed, i)`, which is what lets a run check its replies
//! against a serial reference computed in the same process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recache_core::sql::QuerySpec;
use recache_core::{ReCache, ResultCacheConfig, SharedScanConfig};
use recache_data::gen::tpch;
use recache_data::{csv, json};
use recache_engine::plan::AggFunc;
use recache_server::dataset::{serving_workload, CSV_TABLE, JSON_TABLE};
use recache_types::FieldPath;
use std::collections::HashSet;
use std::sync::Mutex;

/// Scale factor of the serving dataset (about 2.5 MB of raw CSV + JSON;
/// the `recache-server` binary's default).
pub const SF: f64 = 0.001;
/// Data-cache budget of every session: `revisit_warm`'s working set fits
/// under it, `adhoc_cold`'s does not.
pub const CACHE_BUDGET_BYTES: usize = 128 << 20;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Query pool replayed by `revisit_warm`.
pub const REVISIT_POOL: usize = 400;
/// Query pool replayed by `repeat_hot`.
pub const REPEAT_POOL: usize = 64;
/// Warm-up passes over the `revisit_warm` pool: the first admits, the
/// second upgrades lazy entries and settles layouts.
pub const REVISIT_WARM_PASSES: usize = 2;
/// Seed of the set-up pools and of the data they run on. Fixed, so every
/// workload seed revisits the same pool with the same share of
/// empty-result queries; a seeded pool moves that share, and with it
/// `revisit_warm`'s throughput, by a quarter.
pub const DEPLOYMENT_SEED: u64 = 42;
/// Zipf exponent of `repeat_hot`'s picks.
pub const ZIPF_S: f64 = 1.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AdhocCold,
    RevisitWarm,
    RepeatHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AdhocCold,
        Workload::RevisitWarm,
        Workload::RepeatHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocCold => "adhoc_cold",
            Workload::RevisitWarm => "revisit_warm",
            Workload::RepeatHot => "repeat_hot",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queries replayed during set-up (counted in `setup_s`).
    pub fn pool_size(self) -> usize {
        match self {
            Workload::AdhocCold => 0,
            Workload::RevisitWarm => REVISIT_POOL,
            Workload::RepeatHot => REPEAT_POOL,
        }
    }

    /// Independent fresh deployments the timed phase is split over.
    /// `adhoc_cold`'s throughput depends on where its query sequence
    /// steers the cache (how much it evicts and re-admits): single
    /// sequences differ by a quarter from seed to seed, so each run
    /// averages five.
    pub fn episodes(self) -> usize {
        match self {
            Workload::AdhocCold => 5,
            _ => 1,
        }
    }

    /// Seed of episode `e` of a run at `seed`.
    pub fn episode_seed(self, seed: u64, e: usize) -> u64 {
        seed.wrapping_mul(self.episodes() as u64)
            .wrapping_add(e as u64)
    }

    /// Seed of the dataset: the workload seed for `adhoc_cold`, whose
    /// queries draw their ranges from the data's domains; the fixed
    /// deployment seed for the pool workloads.
    pub fn data_seed(self, seed: u64) -> u64 {
        match self {
            Workload::AdhocCold => seed,
            _ => DEPLOYMENT_SEED,
        }
    }

    /// Replay passes over the pool during set-up.
    pub fn warm_passes(self) -> usize {
        match self {
            Workload::AdhocCold => 0,
            Workload::RevisitWarm => REVISIT_WARM_PASSES,
            Workload::RepeatHot => 1,
        }
    }

    /// Set-ups per run, episodes included; `setup_s` is their median.
    /// Many where a set-up takes well under a millisecond, few where it
    /// replays a large pool.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::AdhocCold => 15,
            Workload::RevisitWarm => 3,
            Workload::RepeatHot => 5,
        }
    }
}

/// The raw serving dataset: a TPC-H `lineitem` CSV plus the nested
/// `orderLineitems` JSON.
pub struct Dataset {
    pub csv: Vec<u8>,
    pub json: Vec<u8>,
}

impl Dataset {
    pub fn generate(sf: f64, seed: u64) -> Dataset {
        let (_, lineitems) = tpch::gen_orders_and_lineitems(sf, seed);
        let csv = csv::write_csv(&tpch::lineitem_schema(), &lineitems);
        let records = tpch::gen_order_lineitems(sf, seed);
        let json = json::write_json(&tpch::order_lineitems_schema(), &records);
        Dataset { csv, json }
    }

    pub fn raw_bytes(&self) -> usize {
        self.csv.len() + self.json.len()
    }
}

/// How a session is configured: the served session, its traced twin,
/// and the cache-free reference all come from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Reactive cache under the byte budget, result cache on (the
    /// server default).
    Served,
    /// No caching at all: the serial reference.
    Reference,
}

/// Builds a session and registers both sources. The byte vectors are
/// moved in, so callers clone outside any timer. Result-cache and
/// shared-scan settings are pinned to their defaults, so `RECACHE_*`
/// variables in the environment do not change what is measured.
pub fn build_session(kind: SessionKind, csv_bytes: Vec<u8>, json_bytes: Vec<u8>) -> ReCache {
    let builder = ReCache::builder()
        .shared_scans(SharedScanConfig::default())
        .result_cache(ResultCacheConfig::default());
    let builder = match kind {
        SessionKind::Served => builder
            .cache_capacity_bytes(CACHE_BUDGET_BYTES)
            .result_cache_enabled(true),
        SessionKind::Reference => builder.no_caching(),
    };
    let mut session = builder.build();
    session.register_csv_bytes(CSV_TABLE, csv_bytes, tpch::lineitem_schema());
    session.register_json_bytes(JSON_TABLE, json_bytes, tpch::order_lineitems_schema());
    session
}

/// One request the closed loop issues: its position in the sequence,
/// the spec, and the key of the distinct query it is (replies of equal
/// keys must be equal).
#[derive(Debug, Clone)]
pub struct Issued {
    pub key: usize,
    pub spec: QuerySpec,
}

/// The timed request sequence of a workload. Request `i` is a pure
/// function of `(seed, i)` however the client threads interleave.
pub enum Requests {
    /// Distinct queries, issued in order.
    Sequence(Vec<QuerySpec>),
    /// Pool picks with freshly drawn aggregate lists, generated on
    /// demand and never repeated.
    Variants(Mutex<VariantGen>),
    /// Zipf-skewed exact repeats of the pool.
    Repeats {
        pool: Vec<QuerySpec>,
        cdf: Vec<f64>,
        seed: u64,
    },
}

/// A workload instance: the set-up pool plus the timed requests.
pub struct Plan {
    pub workload: Workload,
    pub pool: Vec<QuerySpec>,
    pub requests: Requests,
}

impl Plan {
    /// The plan for `workload` at `seed`. `horizon` bounds how many
    /// distinct `adhoc_cold` queries are pre-generated.
    pub fn new(workload: Workload, sf: f64, seed: u64, horizon: usize) -> Plan {
        match workload {
            Workload::AdhocCold => Plan {
                workload,
                pool: Vec::new(),
                requests: Requests::Sequence(serving_workload(sf, seed, horizon)),
            },
            Workload::RevisitWarm => {
                let pool = serving_workload(sf, DEPLOYMENT_SEED, REVISIT_POOL);
                Plan {
                    workload,
                    requests: Requests::Variants(Mutex::new(VariantGen::new(pool.clone(), seed))),
                    pool,
                }
            }
            Workload::RepeatHot => {
                let pool = serving_workload(sf, DEPLOYMENT_SEED, REPEAT_POOL);
                Plan {
                    workload,
                    requests: Requests::Repeats {
                        cdf: zipf_cdf(pool.len(), ZIPF_S),
                        pool: pool.clone(),
                        seed,
                    },
                    pool,
                }
            }
        }
    }

    /// Request `i`, or `None` past the end of a finite sequence.
    pub fn request(&self, i: usize) -> Option<Issued> {
        match &self.requests {
            Requests::Sequence(specs) => specs.get(i).map(|spec| Issued {
                key: i,
                spec: spec.clone(),
            }),
            Requests::Variants(gen) => Some(gen.lock().expect("variant generator").get(i)),
            Requests::Repeats { pool, cdf, seed } => {
                let key = zipf_pick(cdf, unit(splitmix(seed ^ (i as u64).wrapping_mul(GOLDEN))));
                Some(Issued {
                    key,
                    spec: pool[key].clone(),
                })
            }
        }
    }

    /// Whether every timed request repeats a pool query exactly, so the
    /// reference can be computed before the timed phase and replies
    /// checked as they arrive.
    pub fn repeats_pool(&self) -> bool {
        matches!(self.requests, Requests::Repeats { .. })
    }

    /// The spec behind a reply key (after the timed phase).
    pub fn spec_of(&self, key: usize) -> QuerySpec {
        match &self.requests {
            Requests::Sequence(specs) => specs[key].clone(),
            Requests::Variants(gen) => gen.lock().expect("variant generator").spec_of(key),
            Requests::Repeats { pool, .. } => pool[key].clone(),
        }
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

const VARIANT_FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];

/// Generates `revisit_warm` requests: a seeded pool pick whose
/// predicate is kept verbatim and whose aggregate list is redrawn over
/// the attributes the pool query already touches, so the request
/// misses the result cache but hits the data-cache entry of the same
/// predicate. A variant is never issued twice.
pub struct VariantGen {
    pool: Vec<QuerySpec>,
    rng: StdRng,
    seen: HashSet<String>,
    issued: Vec<QuerySpec>,
}

impl VariantGen {
    pub fn new(pool: Vec<QuerySpec>, seed: u64) -> VariantGen {
        let seen = pool.iter().map(|spec| format!("{spec:?}")).collect();
        VariantGen {
            pool,
            rng: StdRng::seed_from_u64(seed ^ 0x7e71_517e),
            seen,
            issued: Vec::new(),
        }
    }

    fn get(&mut self, i: usize) -> Issued {
        while self.issued.len() <= i {
            let variant = self.draw();
            self.issued.push(variant);
        }
        Issued {
            key: i,
            spec: self.issued[i].clone(),
        }
    }

    fn spec_of(&self, key: usize) -> QuerySpec {
        self.issued[key].clone()
    }

    fn draw(&mut self) -> QuerySpec {
        loop {
            let base = &self.pool[self.rng.random_range(0..self.pool.len())];
            let mut paths: Vec<FieldPath> = base
                .aggregates
                .iter()
                .filter_map(|(_, path)| path.clone())
                .chain(base.predicates.iter().map(|clause| match clause {
                    recache_core::sql::PredClause::Cmp { path, .. }
                    | recache_core::sql::PredClause::Between { path, .. } => path.clone(),
                }))
                .collect();
            paths.dedup();
            let n = self.rng.random_range(1..=3);
            let aggregates = (0..n)
                .map(|_| {
                    let func = VARIANT_FUNCS[self.rng.random_range(0..VARIANT_FUNCS.len())];
                    let path = paths[self.rng.random_range(0..paths.len())].clone();
                    (func, Some(path))
                })
                .collect();
            let variant = QuerySpec {
                aggregates,
                ..base.clone()
            };
            if self.seen.insert(format!("{variant:?}")) {
                return variant;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SF: f64 = 0.0002;

    fn prefix(plan: &Plan, n: usize) -> Vec<QuerySpec> {
        (0..n).map(|i| plan.request(i).unwrap().spec).collect()
    }

    #[test]
    fn same_seed_regenerates_identical_sequences() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, TEST_SF, 7, 64);
            let b = Plan::new(workload, TEST_SF, 7, 64);
            assert_eq!(a.pool, b.pool, "{}", workload.name());
            assert_eq!(prefix(&a, 64), prefix(&b, 64), "{}", workload.name());
        }
    }

    #[test]
    fn different_seed_changes_sequences() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, TEST_SF, 7, 64);
            let b = Plan::new(workload, TEST_SF, 8, 64);
            assert_ne!(prefix(&a, 64), prefix(&b, 64), "{}", workload.name());
        }
    }

    #[test]
    fn revisit_variants_keep_their_pool_predicate_signature() {
        let data = Dataset::generate(TEST_SF, DEPLOYMENT_SEED);
        let session = build_session(SessionKind::Served, data.csv, data.json);
        let plan = Plan::new(Workload::RevisitWarm, TEST_SF, 11, 0);
        let signatures = |spec: &QuerySpec| -> Vec<(String, String)> {
            let resolved = session.resolve_query(spec).expect("variant resolves");
            resolved
                .tables
                .iter()
                .map(|t| (t.name.clone(), t.signature.clone()))
                .collect()
        };
        let pool_signatures: Vec<_> = plan.pool.iter().map(&signatures).collect();
        let mut seen = HashSet::new();
        for i in 0..500 {
            let issued = plan.request(i).unwrap();
            assert!(
                plan.pool
                    .iter()
                    .any(|p| p.predicates == issued.spec.predicates
                        && p.tables == issued.spec.tables),
                "variant {i} must keep a pool query's predicate verbatim"
            );
            assert!(pool_signatures.contains(&signatures(&issued.spec)));
            assert!(
                !plan.pool.contains(&issued.spec),
                "variant {i} repeats a pool query"
            );
            assert!(
                seen.insert(format!("{:?}", issued.spec)),
                "variant {i} repeats"
            );
        }
    }

    #[test]
    fn repeat_picks_are_skewed_pool_repeats() {
        let plan = Plan::new(Workload::RepeatHot, TEST_SF, 3, 0);
        let mut counts = vec![0usize; plan.pool.len()];
        for i in 0..20_000 {
            let issued = plan.request(i).unwrap();
            assert_eq!(issued.spec, plan.pool[issued.key]);
            counts[issued.key] += 1;
        }
        assert!(counts[0] > counts[plan.pool.len() / 2] * 5, "{counts:?}");
    }
}
