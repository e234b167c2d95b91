//! Criterion micro-benchmarks backing the paper's component-level claims:
//!
//! * raw-parse costs: JSON ≫ CSV, positional maps cut re-access cost,
//! * layout scans: columnar vs Dremel, record- vs element-level (§4.1),
//! * row-at-a-time vs vectorized execution on the cache-store hot paths
//!   (scan → filter → aggregate; the vectorized path must win ≥ 2× on
//!   the columnar case),
//! * layout writes: Dremel shreds faster than columnar flattens (Fig. 6),
//! * R-tree subsumption lookups in the microsecond range (§3.3: 2–15 µs),
//! * sampled vs naive timing overhead (§5.1: naive adds 5–10%),
//! * eviction-decision cost for the Greedy-Dual policy.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use recache_cache::eviction::{EvictView, EvictionContext, EvictionPolicy, GreedyDualRecache};
use recache_cache::stats::EntryStats;
use recache_data::gen::{nested, tpch};
use recache_data::{csv, json, FileFormat, RawFile};
use recache_engine::exec::{execute_with, ExecOptions};
use recache_engine::expr::Expr;
use recache_engine::plan::{AccessPath, AggFunc, AggSpec, QueryPlan, TablePlan};
use recache_engine::profiler::SampledTimer;
use recache_layout::{ColumnStore, DremelStore, RowStore};
use recache_rtree::{RTree, Rect};
use recache_types::{FieldPath, Value};
use std::hint::black_box;
use std::sync::Arc;

fn parse_costs(c: &mut Criterion) {
    let mut group = c.benchmark_group("raw_parse");
    group.sample_size(20);

    let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0005, 42);
    let li_schema = tpch::lineitem_schema();
    let csv_bytes = csv::write_csv(&li_schema, &lineitems);
    let nested_records = tpch::gen_order_lineitems(0.0005, 42);
    let ol_schema = tpch::order_lineitems_schema();
    let json_bytes = json::write_json(&ol_schema, &nested_records);

    group.bench_function("csv_first_scan", |b| {
        b.iter_batched(
            || RawFile::from_bytes(csv_bytes.clone(), FileFormat::Csv, li_schema.clone()),
            |file| {
                let accessed = vec![true; file.leaves().len()];
                let mut n = 0usize;
                file.scan_projected(&accessed, &mut |_, _| n += 1).unwrap();
                black_box(n)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("json_first_scan", |b| {
        b.iter_batched(
            || RawFile::from_bytes(json_bytes.clone(), FileFormat::Json, ol_schema.clone()),
            |file| {
                let accessed = vec![true; file.leaves().len()];
                let mut n = 0usize;
                file.scan_projected(&accessed, &mut |_, _| n += 1).unwrap();
                black_box(n)
            },
            BatchSize::SmallInput,
        )
    });

    // Positional-map-assisted selective re-scan (2 of 16 columns).
    let csv_file = RawFile::from_bytes(csv_bytes.clone(), FileFormat::Csv, li_schema.clone());
    let full = vec![true; csv_file.leaves().len()];
    csv_file.scan_projected(&full, &mut |_, _| {}).unwrap();
    group.bench_function("csv_mapped_selective_scan", |b| {
        b.iter(|| {
            let mut accessed = vec![false; csv_file.leaves().len()];
            accessed[4] = true; // l_quantity
            accessed[5] = true; // l_extendedprice
            let mut n = 0usize;
            csv_file
                .scan_projected(&accessed, &mut |_, _| n += 1)
                .unwrap();
            black_box(n)
        })
    });

    let json_file = RawFile::from_bytes(json_bytes.clone(), FileFormat::Json, ol_schema.clone());
    let full = vec![true; json_file.leaves().len()];
    json_file.scan_projected(&full, &mut |_, _| {}).unwrap();
    group.bench_function("json_mapped_non_nested_scan", |b| {
        b.iter(|| {
            let mut accessed = vec![false; json_file.leaves().len()];
            accessed[0] = true; // o_orderkey
            accessed[3] = true; // o_totalprice
            let mut n = 0usize;
            json_file
                .scan_projected(&accessed, &mut |_, _| n += 1)
                .unwrap();
            black_box(n)
        })
    });
    group.finish();
}

fn layout_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout_scan");
    group.sample_size(20);
    let schema = nested::synthetic_nested_schema();
    let records = nested::gen_synthetic_nested(4_000, 4, 42);
    let columnar = ColumnStore::build(&schema, records.iter());
    let dremel = DremelStore::build(&schema, records.iter());
    let all: Vec<usize> = (0..schema.leaves().len()).collect();
    let flat: Vec<usize> = vec![0, 1, 2];

    group.bench_function("columnar_element_level", |b| {
        b.iter(|| {
            let mut n = 0usize;
            columnar.scan(&all, false, &mut |_, _| n += 1);
            black_box(n)
        })
    });
    group.bench_function("dremel_element_level", |b| {
        b.iter(|| {
            let mut n = 0usize;
            dremel.scan(&all, false, &mut |_, _| n += 1);
            black_box(n)
        })
    });
    group.bench_function("columnar_record_level", |b| {
        b.iter(|| {
            let mut n = 0usize;
            columnar.scan(&flat, true, &mut |_, _| n += 1);
            black_box(n)
        })
    });
    group.bench_function("dremel_record_level_short_columns", |b| {
        b.iter(|| {
            let mut n = 0usize;
            dremel.scan(&flat, true, &mut |_, _| n += 1);
            black_box(n)
        })
    });
    group.finish();
}

const ROW: ExecOptions = ExecOptions {
    vectorized: false,
    threads: 1,
    cancel: None,
};
const VECTORIZED: ExecOptions = ExecOptions {
    vectorized: true,
    threads: 1,
    cancel: None,
};

/// One-table scan → filter → aggregate plan over a cache store.
fn filter_agg_plan(access: AccessPath, accessed: Vec<usize>, record_level: bool) -> QueryPlan {
    // Predicate on slot 0 (~60% selectivity on l_quantity ∈ 1..=50),
    // aggregates over slot 1.
    QueryPlan {
        tables: vec![TablePlan {
            name: "bench".into(),
            access,
            accessed,
            predicate: Some(Expr::between(0, 10.0, 40.0)),
            record_level,
            collect_satisfying: false,
        }],
        joins: vec![],
        aggregates: vec![
            AggSpec {
                table: 0,
                slot: None,
                func: AggFunc::Count,
            },
            AggSpec {
                table: 0,
                slot: Some(1),
                func: AggFunc::Sum,
            },
            AggSpec {
                table: 0,
                slot: Some(1),
                func: AggFunc::Min,
            },
            AggSpec {
                table: 0,
                slot: Some(1),
                func: AggFunc::Max,
            },
        ],
    }
}

/// Head-to-head: row-at-a-time vs vectorized execution of the same plan
/// on the columnar, Dremel, and row cache-store hot paths.
fn row_vs_vectorized(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_mode");
    group.sample_size(30);

    // Flat TPC-H lineitem slice in columnar and row layouts:
    // quantity filter + price aggregates (the paper's SPA shape).
    let (_, lineitems) = tpch::gen_orders_and_lineitems(0.002, 42);
    let li_schema = tpch::lineitem_schema();
    let records: Vec<Value> = lineitems.iter().map(|r| Value::Struct(r.clone())).collect();
    let columnar = Arc::new(ColumnStore::build(&li_schema, records.iter()));
    let row = Arc::new(RowStore::build(&li_schema, records.iter()));
    let quantity = li_schema
        .leaf_index(&FieldPath::parse("l_quantity"))
        .unwrap();
    let price = li_schema
        .leaf_index(&FieldPath::parse("l_extendedprice"))
        .unwrap();
    let col_plan = filter_agg_plan(AccessPath::Columnar(columnar), vec![quantity, price], true);
    group.bench_function("columnar_filter_agg_row", |b| {
        b.iter(|| black_box(execute_with(&col_plan, &ROW).unwrap().values))
    });
    group.bench_function("columnar_filter_agg_vectorized", |b| {
        b.iter(|| black_box(execute_with(&col_plan, &VECTORIZED).unwrap().values))
    });
    let row_plan = filter_agg_plan(AccessPath::Row(row), vec![quantity, price], true);
    group.bench_function("rowstore_filter_agg_row", |b| {
        b.iter(|| black_box(execute_with(&row_plan, &ROW).unwrap().values))
    });
    group.bench_function("rowstore_filter_agg_vectorized", |b| {
        b.iter(|| black_box(execute_with(&row_plan, &VECTORIZED).unwrap().values))
    });

    // Nested order–lineitems in the Dremel layout, element-level scan
    // through the repeated leaves (record assembly dominates compute).
    let ol_records = tpch::gen_order_lineitems(0.002, 42);
    let ol_schema = tpch::order_lineitems_schema();
    let dremel = Arc::new(DremelStore::build(&ol_schema, ol_records.iter()));
    let nested_quantity = ol_schema
        .leaf_index(&FieldPath::parse("lineitems.l_quantity"))
        .unwrap();
    let nested_price = ol_schema
        .leaf_index(&FieldPath::parse("lineitems.l_extendedprice"))
        .unwrap();
    let dremel_plan = filter_agg_plan(
        AccessPath::Dremel(dremel.clone()),
        vec![nested_quantity, nested_price],
        false,
    );
    group.bench_function("dremel_element_filter_agg_row", |b| {
        b.iter(|| black_box(execute_with(&dremel_plan, &ROW).unwrap().values))
    });
    group.bench_function("dremel_element_filter_agg_vectorized", |b| {
        b.iter(|| black_box(execute_with(&dremel_plan, &VECTORIZED).unwrap().values))
    });

    // Dremel record-level short-column path (borrowed batches).
    let totalprice = ol_schema
        .leaf_index(&FieldPath::parse("o_totalprice"))
        .unwrap();
    let orderdate = ol_schema
        .leaf_index(&FieldPath::parse("o_orderdate"))
        .unwrap();
    let (lo, hi) = (totalprice.min(orderdate), totalprice.max(orderdate));
    let dremel_flat_plan = filter_agg_plan(AccessPath::Dremel(dremel), vec![lo, hi], true);
    group.bench_function("dremel_record_filter_agg_row", |b| {
        b.iter(|| black_box(execute_with(&dremel_flat_plan, &ROW).unwrap().values))
    });
    group.bench_function("dremel_record_filter_agg_vectorized", |b| {
        b.iter(|| black_box(execute_with(&dremel_flat_plan, &VECTORIZED).unwrap().values))
    });
    group.finish();
}

/// Thread scaling on the cache-store scan→filter→aggregate hot paths:
/// the acceptance benches behind the `BENCH_pr<N>.json` trajectory. A
/// larger dataset than `exec_mode` so the chunk grid is wide enough for
/// the pool to matter (speedups need real cores; thread counts above the
/// machine's parallelism are clamped by the pool).
fn parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);

    let (_, lineitems) = tpch::gen_orders_and_lineitems(0.02, 42);
    let li_schema = tpch::lineitem_schema();
    let records: Vec<Value> = lineitems.iter().map(|r| Value::Struct(r.clone())).collect();
    let columnar = Arc::new(ColumnStore::build(&li_schema, records.iter()));
    let row = Arc::new(RowStore::build(&li_schema, records.iter()));
    let quantity = li_schema
        .leaf_index(&FieldPath::parse("l_quantity"))
        .unwrap();
    let price = li_schema
        .leaf_index(&FieldPath::parse("l_extendedprice"))
        .unwrap();
    let col_plan = filter_agg_plan(AccessPath::Columnar(columnar), vec![quantity, price], true);
    for threads in [1usize, 2, 4, 8] {
        let options = ExecOptions {
            vectorized: true,
            threads,
            cancel: None,
        };
        group.bench_function(&format!("columnar_filter_agg_t{threads}"), |b| {
            b.iter(|| black_box(execute_with(&col_plan, &options).unwrap().values))
        });
    }
    let row_plan = filter_agg_plan(AccessPath::Row(row), vec![quantity, price], true);
    for threads in [1usize, 4] {
        let options = ExecOptions {
            vectorized: true,
            threads,
            cancel: None,
        };
        group.bench_function(&format!("rowstore_filter_agg_t{threads}"), |b| {
            b.iter(|| black_box(execute_with(&row_plan, &options).unwrap().values))
        });
    }

    let ol_records = tpch::gen_order_lineitems(0.02, 42);
    let ol_schema = tpch::order_lineitems_schema();
    let dremel = Arc::new(DremelStore::build(&ol_schema, ol_records.iter()));
    let nested_quantity = ol_schema
        .leaf_index(&FieldPath::parse("lineitems.l_quantity"))
        .unwrap();
    let nested_price = ol_schema
        .leaf_index(&FieldPath::parse("lineitems.l_extendedprice"))
        .unwrap();
    let dremel_plan = filter_agg_plan(
        AccessPath::Dremel(dremel),
        vec![nested_quantity, nested_price],
        false,
    );
    for threads in [1usize, 4] {
        let options = ExecOptions {
            vectorized: true,
            threads,
            cancel: None,
        };
        group.bench_function(&format!("dremel_element_filter_agg_t{threads}"), |b| {
            b.iter(|| black_box(execute_with(&dremel_plan, &options).unwrap().values))
        });
    }
    group.finish();
}

fn layout_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout_write");
    group.sample_size(15);
    let schema = nested::synthetic_nested_schema();
    let records = nested::gen_synthetic_nested(2_000, 8, 42);
    group.bench_function("columnar_build", |b| {
        b.iter(|| black_box(ColumnStore::build(&schema, records.iter())))
    });
    group.bench_function("dremel_build", |b| {
        b.iter(|| black_box(DremelStore::build(&schema, records.iter())))
    });
    // The stores cache admission builds in the served mix: flat lineitem
    // rows (sf 0.001) and nested orderLineitems records (750 at sf
    // 0.0005), plus the Dremel -> columnar layout switch.
    let (_, lineitem_rows) = tpch::gen_orders_and_lineitems(0.001, 42);
    let lineitem: Vec<Value> = lineitem_rows.into_iter().map(Value::Struct).collect();
    let lineitem_schema = tpch::lineitem_schema();
    group.bench_function("lineitem_columnar_build", |b| {
        b.iter(|| black_box(ColumnStore::build(&lineitem_schema, lineitem.iter())))
    });
    group.bench_function("lineitem_row_build", |b| {
        b.iter(|| black_box(RowStore::build(&lineitem_schema, lineitem.iter())))
    });
    let nested_schema = tpch::order_lineitems_schema();
    let orders = tpch::gen_order_lineitems(0.0005, 42);
    group.bench_function("order_lineitems_columnar_build", |b| {
        b.iter(|| black_box(ColumnStore::build(&nested_schema, orders.iter())))
    });
    group.bench_function("order_lineitems_row_build", |b| {
        b.iter(|| black_box(RowStore::build(&nested_schema, orders.iter())))
    });
    group.bench_function("order_lineitems_dremel_build", |b| {
        b.iter(|| black_box(DremelStore::build(&nested_schema, orders.iter())))
    });
    let dremel = DremelStore::build(&nested_schema, orders.iter());
    group.bench_function("order_lineitems_dremel_to_columnar", |b| {
        b.iter(|| black_box(recache_layout::dremel_to_columnar(&dremel)))
    });
    group.finish();
}

fn rtree_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree");
    // §3.3: subsumption lookups should land in the low microseconds.
    let mut tree: RTree<1, u64> = RTree::new();
    for i in 0..10_000u64 {
        let lo = (i % 1000) as f64;
        tree.insert(Rect::new([lo], [lo + 25.0]), i);
    }
    group.bench_function("covering_lookup_10k", |b| {
        let mut q = 0.0f64;
        b.iter(|| {
            q = (q + 7.3) % 900.0;
            let query = Rect::new([q + 5.0], [q + 6.0]);
            let mut found = 0usize;
            tree.covering(&query, &mut |_, _| found += 1);
            black_box(found)
        })
    });
    group.bench_function("insert", |b| {
        let mut i = 0u64;
        b.iter_batched(
            || tree.clone(),
            |mut t| {
                i += 1;
                t.insert(
                    Rect::new([i as f64 % 1000.0], [i as f64 % 1000.0 + 10.0]),
                    i,
                );
                black_box(t.len())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn profiler_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiler");
    // §5.1: timing every record adds 5-10%; sampling <1% is negligible.
    fn work(x: u64) -> u64 {
        let mut acc = x;
        for i in 0..40 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }
    group.bench_function("no_timing", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc ^= work(i);
            }
            black_box(acc)
        })
    });
    group.bench_function("naive_per_record_timing", |b| {
        b.iter(|| {
            let mut timer = SampledTimer::new(1);
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc ^= timer.observe(|| work(i));
            }
            black_box((acc, timer.estimated_total_ns()))
        })
    });
    group.bench_function("sampled_1_in_128_timing", |b| {
        b.iter(|| {
            let mut timer = SampledTimer::new(128);
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc ^= timer.observe(|| work(i));
            }
            black_box((acc, timer.estimated_total_ns()))
        })
    });
    group.finish();
}

fn eviction_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("eviction");
    let stats: Vec<EntryStats> = (0..500u64)
        .map(|i| EntryStats {
            n: i % 7,
            t_ns: 1_000 * (i + 1),
            c_ns: 100 * (i + 1),
            s_ns: 10,
            l_ns: 1,
            bytes: 1_000 + (i as usize * 97) % 50_000,
            last_access: i,
            access_count: i % 11,
            created_at: 0,
        })
        .collect();
    group.bench_function("greedy_dual_500_entries", |b| {
        b.iter_batched(
            || {
                let mut policy = GreedyDualRecache::new();
                for (i, st) in stats.iter().enumerate() {
                    policy.on_admit(i as u64, st);
                }
                policy
            },
            |mut policy| {
                let views: Vec<EvictView<'_>> = stats
                    .iter()
                    .enumerate()
                    .map(|(i, st)| EvictView {
                        id: i as u64,
                        stats: st,
                        format: FileFormat::Csv,
                        source: "t",
                        next_use: None,
                    })
                    .collect();
                let ctx = EvictionContext {
                    entries: views,
                    need_bytes: 100_000,
                    clock: 1_000,
                    has_oracle: false,
                };
                black_box(policy.select_victims(&ctx))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    parse_costs,
    layout_scans,
    row_vs_vectorized,
    parallel_scaling,
    layout_writes,
    rtree_ops,
    profiler_overhead,
    eviction_decision
);
criterion_main!(benches);
