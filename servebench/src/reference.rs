//! The serial, cache-free reference every reply is checked against.
//!
//! The reference session is built with `no_caching()` and runs one
//! query at a time on one thread. Queries that differ only in their
//! aggregate lists (the `revisit_warm` variants) are answered by one
//! reference query over the union of their aggregates when they also
//! agree on record-level versus flattened evaluation (whether a repeated
//! leaf is accessed): every aggregate is then computed independently over
//! the same rows, so each variant's answer is a projection of the union's.

use crate::workload::{build_session, SessionKind};
use recache_core::sql::QuerySpec;
use recache_core::{QueryRequest, ReCache};
use recache_types::{Result, Value};
use std::collections::HashMap;

/// One expected answer: aggregate values plus the aggregated row count.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub rows: Vec<Value>,
    pub rows_aggregated: u64,
}

impl Answer {
    /// Bit-for-bit equality: floats compare by their bit patterns, so
    /// `-0.0 != 0.0` and equal NaNs match.
    pub fn same_bits(&self, rows: &[Value], rows_aggregated: u64) -> bool {
        self.rows_aggregated == rows_aggregated
            && self.rows.len() == rows.len()
            && self.rows.iter().zip(rows).all(|(a, b)| value_bits_eq(a, b))
    }
}

fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::List(x), Value::List(y)) | (Value::Struct(x), Value::Struct(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| value_bits_eq(a, b))
        }
        _ => a == b,
    }
}

/// Reference sessions answering disjoint shares of the queries at once;
/// each still runs its queries one at a time on one thread.
const REFERENCE_SESSIONS: usize = 2;

/// Computes the answers to `specs` (in order) on fresh cache-free
/// sessions over the given bytes.
pub fn answers(csv: &[u8], json: &[u8], specs: &[QuerySpec]) -> Result<Vec<Answer>> {
    let sessions: Vec<ReCache> = (0..REFERENCE_SESSIONS)
        .map(|_| build_session(SessionKind::Reference, csv.to_vec(), json.to_vec()))
        .collect();
    // Group by everything but the aggregate list, and by whether each
    // table is evaluated record-level.
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let shape = QuerySpec {
            aggregates: Vec::new(),
            ..spec.clone()
        };
        let record_level: Vec<bool> = sessions[0]
            .resolve_query(spec)?
            .tables
            .iter()
            .map(|t| t.record_level)
            .collect();
        let key = format!("{shape:?} {record_level:?}");
        let g = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    let shares: Vec<Vec<(usize, Answer)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(t, session)| {
                let groups = &groups;
                scope.spawn(move || -> Result<Vec<(usize, Answer)>> {
                    let mut out = Vec::new();
                    for members in groups.iter().skip(t).step_by(REFERENCE_SESSIONS) {
                        out.extend(answer_group(session, specs, members)?);
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference thread panicked"))
            .collect::<Result<_>>()
    })?;
    let mut out: Vec<Option<Answer>> = vec![None; specs.len()];
    for (i, answer) in shares.into_iter().flatten() {
        out[i] = Some(answer);
    }
    Ok(out
        .into_iter()
        .map(|a| a.expect("every spec answered"))
        .collect())
}

/// Answers a group of specs that differ only in their aggregate lists
/// with one query over the union of their aggregates.
fn answer_group(
    session: &ReCache,
    specs: &[QuerySpec],
    members: &[usize],
) -> Result<Vec<(usize, Answer)>> {
    let mut union = Vec::new();
    for &m in members {
        for agg in &specs[m].aggregates {
            if !union.contains(agg) {
                union.push(agg.clone());
            }
        }
    }
    let combined = QuerySpec {
        aggregates: union.clone(),
        ..specs[members[0]].clone()
    };
    let response = session.execute(&QueryRequest::spec(combined).threads(1))?;
    Ok(members
        .iter()
        .map(|&m| {
            let rows = specs[m]
                .aggregates
                .iter()
                .map(|agg| {
                    let at = union.iter().position(|u| u == agg).expect("agg in union");
                    response.rows[at].clone()
                })
                .collect();
            let answer = Answer {
                rows,
                rows_aggregated: response.rows_aggregated as u64,
            };
            (m, answer)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Dataset, Plan, Workload, DEPLOYMENT_SEED};

    #[test]
    fn float_bits_distinguish_signed_zero() {
        let answer = Answer {
            rows: vec![Value::Float(0.0)],
            rows_aggregated: 1,
        };
        assert!(answer.same_bits(&[Value::Float(0.0)], 1));
        assert!(!answer.same_bits(&[Value::Float(-0.0)], 1));
        assert!(!answer.same_bits(&[Value::Float(0.0)], 2));
    }

    #[test]
    fn union_answers_equal_separate_answers() {
        let sf = 0.0002;
        let data = Dataset::generate(sf, DEPLOYMENT_SEED);
        // Variants share predicates by construction; ad-hoc queries over
        // single-valued attributes share them by chance.
        let revisit = Plan::new(Workload::RevisitWarm, sf, 5, 0);
        let adhoc = Plan::new(Workload::AdhocCold, sf, 5, 300);
        // The same predicate under a flat and a nested aggregate: one is
        // evaluated per record, the other per flattened lineitem.
        let mixed = [
            "SELECT sum(o_totalprice) FROM orderLineitems WHERE o_shippriority BETWEEN 0 AND 0",
            "SELECT sum(lineitems.l_quantity) FROM orderLineitems WHERE o_shippriority BETWEEN 0 AND 0",
        ]
        .map(|sql| recache_core::sql::parse_query(sql).unwrap());
        let specs: Vec<QuerySpec> = (0..100)
            .map(|i| revisit.request(i).unwrap().spec)
            .chain((0..300).map(|i| adhoc.request(i).unwrap().spec))
            .chain(mixed)
            .collect();
        let combined = answers(&data.csv, &data.json, &specs).unwrap();
        for (spec, expected) in specs.iter().zip(&combined) {
            let alone = answers(&data.csv, &data.json, std::slice::from_ref(spec)).unwrap();
            assert!(expected.same_bits(&alone[0].rows, alone[0].rows_aggregated));
        }
    }
}
