//! Canonical flattening of nested records into relational rows.
//!
//! ReCache's relational columnar cache layout stores nested data
//! *flattened*: every list is exploded into one row per element, with
//! non-nested fields duplicated across those rows (§4 of the paper: the
//! JSON entry `{"a":1,"b":4,"c":[4,6,9]}` becomes three rows). Sibling
//! lists multiply (cartesian product); an empty or absent list still
//! yields one row with `Null` for the leaves beneath it, so no record is
//! ever dropped by flattening.
//!
//! The *projected* variant only explodes lists that carry accessed leaves.
//! This is how raw scans and Dremel-layout scans behave: a query touching
//! only non-nested attributes sees one row per record ("4x fewer rows", as
//! the paper observes on `orderLineitems`), while the same query over the
//! relational columnar cache iterates all flattened rows.

use crate::datatype::{DataType, Field, Schema};
use crate::value::Value;

/// A flattened row: one scalar per accessed leaf, in schema-leaf order.
pub type FlatRow = Vec<Value>;

/// Leaf-id range `(start, end)` covered by each list node of a schema, in
/// depth-first preorder. These are the *flattening dimensions*: a store
/// flattened over all lists can recover projected-flattening semantics by
/// keeping only rows whose unprojected dimensions sit at element index 0
/// (see [`flatten_record_masks`]).
pub fn list_dim_ranges(schema: &Schema) -> Vec<(usize, usize)> {
    fn walk(ty: &DataType, leaf: &mut usize, out: &mut Vec<(usize, usize)>) {
        match ty {
            DataType::Struct(fields) => {
                for f in fields {
                    walk(&f.data_type, leaf, out);
                }
            }
            DataType::List(inner) => {
                let start = *leaf;
                let width = leaf_count(inner);
                out.push((start, start + width));
                walk(inner, leaf, out);
                debug_assert_eq!(*leaf, start + width);
            }
            _ => *leaf += 1,
        }
    }
    let mut out = Vec::new();
    let mut leaf = 0usize;
    for f in schema.fields() {
        walk(&f.data_type, &mut leaf, &mut out);
    }
    out
}

/// Flattens a record over all leaves, additionally reporting for each row
/// a bitmask with bit `d` set iff list dimension `d` (in
/// [`list_dim_ranges`] order) is at a non-zero element index.
///
/// The first row of a record always has mask 0; a query that accesses
/// leaf set `A` gets exactly the rows of `flatten_record_projected` by
/// keeping rows where `mask & unaccessed_dims == 0`.
///
/// This is the reference definition of the flattened stores' contents.
/// The stores themselves are built by `recache-layout`'s one-walk
/// shredder, whose tests check it against this function row for row.
///
/// Panics if the schema has more than 64 list nodes (no realistic schema
/// comes close).
pub fn flatten_record_masks(schema: &Schema, record: &Value) -> Vec<(FlatRow, u64)> {
    let n_dims = list_dim_ranges(schema).len();
    assert!(
        n_dims <= 64,
        "schemas with more than 64 list dimensions are unsupported"
    );
    let children = match record {
        Value::Struct(children) => children.as_slice(),
        _ => &[],
    };
    let mut dim = 0usize;
    flatten_struct_masks(schema.fields(), children, &mut dim)
}

fn flatten_struct_masks(
    fields: &[Field],
    children: &[Value],
    dim: &mut usize,
) -> Vec<(FlatRow, u64)> {
    let mut rows: Vec<(FlatRow, u64)> = vec![(Vec::new(), 0)];
    for (i, field) in fields.iter().enumerate() {
        let child = children.get(i).unwrap_or(&Value::Null);
        let child_rows = flatten_value_masks(&field.data_type, child, dim);
        rows = product_masks(rows, child_rows);
    }
    rows
}

fn flatten_value_masks(ty: &DataType, value: &Value, dim: &mut usize) -> Vec<(FlatRow, u64)> {
    match ty {
        DataType::Struct(fields) => {
            let children = match value {
                Value::Struct(children) => children.as_slice(),
                _ => &[],
            };
            flatten_struct_masks(fields, children, dim)
        }
        DataType::List(inner) => {
            let this_dim = *dim;
            *dim += 1;
            let dims_below = count_dims(inner);
            match value {
                Value::List(items) if !items.is_empty() => {
                    let mut out = Vec::with_capacity(items.len());
                    let mut after = *dim;
                    for (i, item) in items.iter().enumerate() {
                        let mut d = *dim;
                        let rows = flatten_value_masks(inner, item, &mut d);
                        after = d;
                        let elem_bit = if i > 0 { 1u64 << this_dim } else { 0 };
                        for (row, mask) in rows {
                            out.push((row, mask | elem_bit));
                        }
                    }
                    *dim = after;
                    out
                }
                _ => {
                    // Empty/absent list: one all-null row at index 0.
                    let mut d = *dim;
                    let rows = null_rows_masks(inner, &mut d);
                    *dim += dims_below;
                    rows
                }
            }
        }
        _ => vec![(vec![value.clone()], 0)],
    }
}

fn null_rows_masks(ty: &DataType, dim: &mut usize) -> Vec<(FlatRow, u64)> {
    match ty {
        DataType::Struct(fields) => {
            let mut row = Vec::new();
            for field in fields {
                for (r, _) in null_rows_masks(&field.data_type, dim) {
                    row.extend(r);
                }
            }
            vec![(row, 0)]
        }
        DataType::List(inner) => {
            *dim += 1;
            null_rows_masks(inner, dim)
        }
        _ => vec![(vec![Value::Null], 0)],
    }
}

fn count_dims(ty: &DataType) -> usize {
    match ty {
        DataType::Struct(fields) => fields.iter().map(|f| count_dims(&f.data_type)).sum(),
        DataType::List(inner) => 1 + count_dims(inner),
        _ => 0,
    }
}

fn product_masks(left: Vec<(FlatRow, u64)>, right: Vec<(FlatRow, u64)>) -> Vec<(FlatRow, u64)> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    for (l, lm) in &left {
        for (r, rm) in &right {
            let mut row = Vec::with_capacity(l.len() + r.len());
            row.extend(l.iter().cloned());
            row.extend(r.iter().cloned());
            out.push((row, lm | rm));
        }
    }
    out
}

/// Number of scalar leaves in a type tree.
fn leaf_count(ty: &DataType) -> usize {
    match ty {
        DataType::Struct(fields) => fields.iter().map(|f| leaf_count(&f.data_type)).sum(),
        DataType::List(inner) => leaf_count(inner),
        _ => 1,
    }
}

/// Flattens a record over *all* leaves: the representation the relational
/// columnar layout stores.
pub fn flatten_record(schema: &Schema, record: &Value) -> Vec<FlatRow> {
    let accessed = vec![true; schema.leaves().len()];
    flatten_record_projected(schema, record, &accessed)
}

/// Flattens a record over the accessed leaves only (indexed by leaf id in
/// [`Schema::leaves`] order). Lists with no accessed leaf beneath them do
/// not multiply rows.
pub fn flatten_record_projected(
    schema: &Schema,
    record: &Value,
    accessed: &[bool],
) -> Vec<FlatRow> {
    debug_assert_eq!(accessed.len(), schema.leaves().len());
    let children = match record {
        Value::Struct(children) => children.as_slice(),
        _ => &[],
    };
    let mut leaf_id = 0;
    flatten_struct(schema.fields(), children, accessed, &mut leaf_id)
}

/// Flattens a struct's fields into the cartesian product of its children's
/// row sets.
fn flatten_struct(
    fields: &[Field],
    children: &[Value],
    accessed: &[bool],
    leaf_id: &mut usize,
) -> Vec<FlatRow> {
    let mut rows: Vec<FlatRow> = vec![Vec::new()];
    for (i, field) in fields.iter().enumerate() {
        let child = children.get(i).unwrap_or(&Value::Null);
        let child_rows = flatten_value(&field.data_type, child, accessed, leaf_id);
        rows = product(rows, child_rows);
    }
    rows
}

fn flatten_value(
    ty: &DataType,
    value: &Value,
    accessed: &[bool],
    leaf_id: &mut usize,
) -> Vec<FlatRow> {
    match ty {
        DataType::Struct(fields) => {
            let children = match value {
                Value::Struct(children) => children.as_slice(),
                _ => &[],
            };
            flatten_struct(fields, children, accessed, leaf_id)
        }
        DataType::List(inner) => {
            let n_leaves = leaf_count(inner);
            let start = *leaf_id;
            let any_accessed = accessed[start..start + n_leaves].iter().any(|&a| a);
            if !any_accessed {
                // Unaccessed list: contributes no columns, no row expansion.
                *leaf_id += n_leaves;
                return vec![Vec::new()];
            }
            match value {
                Value::List(items) if !items.is_empty() => {
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        // Each element re-reads the same leaf-id range.
                        let mut id = start;
                        out.extend(flatten_value(inner, item, accessed, &mut id));
                    }
                    *leaf_id = start + n_leaves;
                    out
                }
                _ => {
                    // Empty/absent list: one row of nulls for accessed leaves.
                    let mut id = start;
                    let rows = null_rows(inner, accessed, &mut id);
                    *leaf_id = start + n_leaves;
                    rows
                }
            }
        }
        _ => {
            let id = *leaf_id;
            *leaf_id += 1;
            if accessed[id] {
                vec![vec![value.clone()]]
            } else {
                vec![Vec::new()]
            }
        }
    }
}

/// One row with `Null` for every accessed leaf in the subtree.
fn null_rows(ty: &DataType, accessed: &[bool], leaf_id: &mut usize) -> Vec<FlatRow> {
    match ty {
        DataType::Struct(fields) => {
            let mut row = Vec::new();
            for field in fields {
                for r in null_rows(&field.data_type, accessed, leaf_id) {
                    row.extend(r);
                }
            }
            vec![row]
        }
        DataType::List(inner) => null_rows(inner, accessed, leaf_id),
        _ => {
            let id = *leaf_id;
            *leaf_id += 1;
            if accessed[id] {
                vec![vec![Value::Null]]
            } else {
                vec![Vec::new()]
            }
        }
    }
}

/// Cartesian product of row sets, concatenating value vectors. The common
/// case (`right` has one row) avoids cloning the left rows.
fn product(left: Vec<FlatRow>, mut right: Vec<FlatRow>) -> Vec<FlatRow> {
    if right.len() == 1 {
        let suffix = right.pop().expect("len checked");
        let mut left = left;
        if suffix.is_empty() {
            return left;
        }
        for row in &mut left {
            row.extend(suffix.iter().cloned());
        }
        return left;
    }
    let mut out = Vec::with_capacity(left.len() * right.len());
    for l in &left {
        for r in &right {
            let mut row = Vec::with_capacity(l.len() + r.len());
            row.extend(l.iter().cloned());
            row.extend(r.iter().cloned());
            out.push(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Field;

    fn abc_schema() -> Schema {
        // {"a": int, "b": int, "c": [int]}
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::required("b", DataType::Int),
            Field::new("c", DataType::List(Box::new(DataType::Int))),
        ])
    }

    fn abc_record() -> Value {
        Value::Struct(vec![
            Value::Int(1),
            Value::Int(4),
            Value::List(vec![Value::Int(4), Value::Int(6), Value::Int(9)]),
        ])
    }

    #[test]
    fn paper_example_flattens_to_three_rows() {
        // {"a":1,"b":4,"c":[4,6,9]} -> (1,4,4), (1,4,6), (1,4,9)
        let rows = flatten_record(&abc_schema(), &abc_record());
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(4), Value::Int(4)],
                vec![Value::Int(1), Value::Int(4), Value::Int(6)],
                vec![Value::Int(1), Value::Int(4), Value::Int(9)],
            ]
        );
    }

    #[test]
    fn projection_without_nested_leaf_yields_one_row() {
        let rows = flatten_record_projected(&abc_schema(), &abc_record(), &[true, true, false]);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(4)]]);
    }

    #[test]
    fn projection_of_only_nested_leaf() {
        let rows = flatten_record_projected(&abc_schema(), &abc_record(), &[false, false, true]);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(4)],
                vec![Value::Int(6)],
                vec![Value::Int(9)]
            ]
        );
    }

    #[test]
    fn empty_list_preserves_record_with_null() {
        let record = Value::Struct(vec![Value::Int(1), Value::Int(4), Value::List(vec![])]);
        let rows = flatten_record(&abc_schema(), &record);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(4), Value::Null]]);
    }

    #[test]
    fn absent_list_treated_as_empty() {
        let record = Value::Struct(vec![Value::Int(1), Value::Int(4), Value::Null]);
        let rows = flatten_record(&abc_schema(), &record);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(4), Value::Null]]);
    }

    #[test]
    fn sibling_lists_multiply() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::List(Box::new(DataType::Int))),
            Field::new("y", DataType::List(Box::new(DataType::Int))),
        ]);
        let record = Value::Struct(vec![
            Value::List(vec![Value::Int(1), Value::Int(2)]),
            Value::List(vec![Value::Int(10), Value::Int(20), Value::Int(30)]),
        ]);
        let rows = flatten_record(&schema, &record);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(10)]);
        assert_eq!(rows[5], vec![Value::Int(2), Value::Int(30)]);
    }

    #[test]
    fn list_of_struct_flattens_elementwise() {
        let schema = Schema::new(vec![
            Field::required("o", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::required("p", DataType::Float),
                ]))),
            ),
        ]);
        let record = Value::Struct(vec![
            Value::Int(7),
            Value::List(vec![
                Value::Struct(vec![Value::Int(1), Value::Float(1.5)]),
                Value::Struct(vec![Value::Int(2), Value::Float(2.5)]),
            ]),
        ]);
        let rows = flatten_record(&schema, &record);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(7), Value::Int(1), Value::Float(1.5)],
                vec![Value::Int(7), Value::Int(2), Value::Float(2.5)],
            ]
        );
    }

    #[test]
    fn nested_list_of_list() {
        let schema = Schema::new(vec![Field::new(
            "m",
            DataType::List(Box::new(DataType::List(Box::new(DataType::Int)))),
        )]);
        let record = Value::Struct(vec![Value::List(vec![
            Value::List(vec![Value::Int(1), Value::Int(2)]),
            Value::List(vec![Value::Int(3)]),
        ])]);
        let rows = flatten_record(&schema, &record);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
    }

    #[test]
    fn unaccessed_sibling_list_does_not_multiply() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::List(Box::new(DataType::Int))),
            Field::required("a", DataType::Int),
        ]);
        let record = Value::Struct(vec![
            Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            Value::Int(9),
        ]);
        let rows = flatten_record_projected(&schema, &record, &[false, true]);
        assert_eq!(rows, vec![vec![Value::Int(9)]]);
    }

    #[test]
    fn missing_struct_children_become_null() {
        // Record shorter than schema (optional trailing fields absent).
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let record = Value::Struct(vec![Value::Int(1)]);
        let rows = flatten_record(&schema, &record);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Null]]);
    }

    #[test]
    fn null_record_yields_single_null_row() {
        let rows = flatten_record(&abc_schema(), &Value::Null);
        assert_eq!(rows, vec![vec![Value::Null, Value::Null, Value::Null]]);
    }

    #[test]
    fn list_dim_ranges_enumerate_preorder() {
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("tags", DataType::List(Box::new(DataType::Str))),
                ]))),
            ),
            Field::new("scores", DataType::List(Box::new(DataType::Float))),
        ]);
        // Leaves: a=0, items.q=1, items.tags=2, scores=3.
        assert_eq!(list_dim_ranges(&schema), vec![(1, 3), (2, 3), (3, 4)]);
    }

    #[test]
    fn masks_mark_non_first_elements() {
        // {"a":1, "c":[4,6,9]} with dims = [c].
        let rows = flatten_record_masks(&abc_schema(), &abc_record());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, 0);
        assert_eq!(rows[1].1, 1);
        assert_eq!(rows[2].1, 1);
        // Values match the plain flatten.
        let plain = flatten_record(&abc_schema(), &abc_record());
        let values: Vec<FlatRow> = rows.into_iter().map(|(r, _)| r).collect();
        assert_eq!(values, plain);
    }

    /// The load-bearing equivalence: filtering mask-flattened rows by
    /// "unaccessed dims at index 0" reproduces projected flattening.
    fn assert_mask_filter_matches_projection(schema: &Schema, record: &Value, accessed: &[bool]) {
        let dims = list_dim_ranges(schema);
        let mut unaccessed = 0u64;
        for (d, &(lo, hi)) in dims.iter().enumerate() {
            if !accessed[lo..hi].iter().any(|&a| a) {
                unaccessed |= 1 << d;
            }
        }
        let expected = flatten_record_projected(schema, record, accessed);
        let got: Vec<FlatRow> = flatten_record_masks(schema, record)
            .into_iter()
            .filter(|(_, mask)| mask & unaccessed == 0)
            .map(|(row, _)| {
                row.into_iter()
                    .enumerate()
                    .filter(|(i, _)| accessed[*i])
                    .map(|(_, v)| v)
                    .collect()
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn mask_filtering_equals_projected_flattening() {
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("tags", DataType::List(Box::new(DataType::Str))),
                ]))),
            ),
            Field::new("scores", DataType::List(Box::new(DataType::Float))),
        ]);
        let record = Value::Struct(vec![
            Value::Int(1),
            Value::List(vec![
                Value::Struct(vec![
                    Value::Int(10),
                    Value::List(vec![Value::from("x"), Value::from("y")]),
                ]),
                Value::Struct(vec![Value::Int(20), Value::Null]),
            ]),
            Value::List(vec![
                Value::Float(0.5),
                Value::Float(1.5),
                Value::Float(2.5),
            ]),
        ]);
        // Sweep every subset of {a, q, tags, scores}.
        for bits in 0..16u32 {
            let accessed: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            assert_mask_filter_matches_projection(&schema, &record, &accessed);
        }
        // And the empty-list / null variants.
        let record = Value::Struct(vec![Value::Int(1), Value::List(vec![]), Value::Null]);
        for bits in 0..16u32 {
            let accessed: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            assert_mask_filter_matches_projection(&schema, &record, &accessed);
        }
    }
}
