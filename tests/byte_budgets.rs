//! Byte budgets against real allocations: the data cache's store sizes
//! (`byte_size`) and the result cache's `total_bytes` drive admission
//! and eviction, so they must track what the heap really holds. A
//! counting global allocator measures live bytes per thread; each check
//! frees the measured structure on the test thread and compares the
//! bytes released with the structure's own estimate.

use recache::data::gen::tpch;
use recache::layout::{ColumnStore, RowStore};
use recache::types::Value;
use recache::{QueryRequest, ResultCache, ResultCacheConfig};
use recache_server::dataset::{serving_session, serving_workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live heap bytes allocated minus freed by the current thread. Per
/// thread, so tests running in parallel do not disturb each other;
/// every measurement below frees on the thread that reads the counter.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so `Counting` upholds exactly the contract `System` does.
// The bookkeeping touches only a const-initialized thread-local `Cell`:
// it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Heap bytes released by dropping `value`.
fn freed_by_drop<T>(value: T) -> usize {
    let before = live();
    drop(value);
    (before - live()) as usize
}

/// The accepted estimate/measured band.
const LOW: f64 = 0.8;
const HIGH: f64 = 1.25;

fn assert_within(what: &str, estimate: usize, measured: usize) {
    let ratio = estimate as f64 / measured as f64;
    assert!(
        (LOW..=HIGH).contains(&ratio),
        "{what}: estimate {estimate} B vs {measured} B live (ratio {ratio:.3}, \
         accepted {LOW}..={HIGH})"
    );
}

#[test]
fn store_byte_sizes_match_live_bytes() {
    let (_, lineitem_rows) = tpch::gen_orders_and_lineitems(0.001, 7);
    let lineitem: Vec<Value> = lineitem_rows.into_iter().map(Value::Struct).collect();
    let orders = tpch::gen_order_lineitems(0.0005, 7);
    let cases = [
        ("lineitem", tpch::lineitem_schema(), &lineitem),
        ("orderLineitems", tpch::order_lineitems_schema(), &orders),
    ];
    for (name, schema, records) in cases {
        let ids: Vec<u32> = (0..records.len() as u32).collect();
        for dict in [Some(recache::layout::DICT_MAX_RATIO), None] {
            let mut store = ColumnStore::build_with_dict(&schema, records.iter(), dict);
            store.set_source_record_ids(ids.clone());
            let estimate = store.byte_size();
            assert_within(
                &format!("{name} columnar (dict {dict:?})"),
                estimate,
                freed_by_drop(store),
            );
        }
        let mut store = RowStore::build(&schema, records.iter());
        store.set_source_record_ids(ids.clone());
        let estimate = store.byte_size();
        assert_within(&format!("{name} row"), estimate, freed_by_drop(store));
    }
}

#[test]
fn result_cache_total_bytes_match_live_bytes() {
    // The serving mix at a small scale factor: key, result and pin
    // shapes match the served workload, at a fraction of its run time.
    let session = serving_session(0.0002, 42);
    session.result_cache().set_enabled(true);
    let workload = serving_workload(0.0002, 42, 600);
    // Check at several fill levels: hash tables grow in powers of two,
    // so the estimate must hold across their load-factor swing.
    for n in [150, 330, 600] {
        let cache = session.result_cache();
        cache.clear();
        for spec in &workload[..n] {
            session
                .execute(&QueryRequest::spec(spec.clone()))
                .expect("serving query");
        }
        let (entries, estimate) = (cache.len(), cache.total_bytes());
        let before = live();
        cache.clear();
        let measured = (before - live()) as usize;
        assert_within(
            &format!("result cache with {entries} entries"),
            estimate,
            measured,
        );
    }
}

#[test]
fn result_cache_shared_pins_are_charged_once() {
    // Many entries, few pins: served results over one resident store
    // share its pin, so the pin's reverse-index record exists once, not
    // once per entry. Keys and rows are shaped like the serving mix's.
    let cache = ResultCache::new(ResultCacheConfig {
        enabled: true,
        capacity_bytes: 64 << 20,
    });
    for pins in [1, 3] {
        for n in [200, 1500] {
            cache.clear();
            for i in 0..n {
                let key = format!(
                    "agg:sum(l_extendedprice),count(*),|tab:lineitem,|pred:l_quantity >= n:{i},|join:"
                );
                let rows = vec![Value::Float(i as f64), Value::Int(i)];
                let pin = ("lineitem".to_owned(), format!("l_quantity#{}", i % pins));
                cache.insert(key, rows, 1, vec![pin]);
            }
            let (entries, estimate) = (cache.len(), cache.total_bytes());
            let before = live();
            cache.clear();
            let measured = (before - live()) as usize;
            assert_within(
                &format!("result cache with {entries} entries over {pins} pins"),
                estimate,
                measured,
            );
        }
    }
}
