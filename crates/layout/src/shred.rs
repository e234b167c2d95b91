//! One-walk record shredding for the flattened stores.
//!
//! [`crate::ColumnStore`] and [`crate::RowStore`] store nested records
//! *flattened*: lists exploded into one row per element, sibling lists
//! multiplied (cartesian product, leftmost field varying slowest), and an
//! empty or absent list kept as one all-null row (the definition in
//! [`recache_types::flatten_record_masks`], which stays the reference
//! oracle in tests). Materializing that product row by row clones every
//! accumulated prefix for every field. The [`Shredder`] instead walks a
//! record once, knows each subtree's flattened row count up front, and
//! hands every leaf value to a [`LeafSink`] together with the contiguous
//! run of rows it occupies — a flat record becomes one `fill` per field,
//! and a parent field under an `n`-element list one `fill` of `n` rows.
//!
//! The same walk sets the per-row list-dimension masks (bit `d` set ⇔
//! dimension `d` sits at a non-zero element index) and captures the
//! record's [`crate::shape`] (list lengths in preorder).
//!
//! # Run layout
//!
//! A subtree is emitted in a context `(base, rep, tile)`: its own row
//! sequence `S` is laid out `tile` times back to back starting at row
//! `base`, each row of `S` repeated `rep` times. Child `j` of a struct
//! whose children have row counts `c_0..c_k` inherits
//! `rep · Π_{i>j} c_i` and `tile · Π_{i<j} c_i`; a scalar's sequence is
//! one value, so it covers `rep · tile` consecutive rows. Every node's
//! emission covers its block in increasing row order, leaf by leaf,
//! which is what lets column sinks simply append.

use recache_types::{DataType, Schema, Value};
use std::ops::Range;

/// The value null-filled leaves receive (empty/absent lists and missing
/// struct children).
static NULL: Value = Value::Null;

/// Receives the leaf values of one record's flattened rows.
pub(crate) trait LeafSink<'a> {
    /// Called once per record, before any `fill`, with its row count.
    fn begin_record(&mut self, _rows: usize) {}

    /// Leaf `leaf` holds `value` in the record's rows `[lo, lo + n)`.
    /// For one leaf, calls arrive in increasing row order and cover every
    /// row of the record exactly once.
    fn fill(&mut self, leaf: usize, value: &'a Value, lo: usize, n: usize);
}

/// Schema node, precompiled once per build.
enum Node {
    Leaf(usize),
    /// `nested` ⇔ some list sits below (otherwise the struct always
    /// flattens to exactly one row).
    Struct {
        fields: Vec<Node>,
        nested: bool,
    },
    /// `dim` is the list's flattening dimension
    /// ([`recache_types::list_dim_ranges`] order); `leaves` the leaf ids
    /// beneath it (null-filled when the list is empty or absent).
    List {
        dim: u32,
        inner: Box<Node>,
        leaves: Range<usize>,
    },
}

impl Node {
    fn compile(ty: &DataType, leaf: &mut usize, dim: &mut u32) -> Node {
        match ty {
            DataType::Struct(fields) => {
                Node::compile_struct(fields.iter().map(|f| &f.data_type), leaf, dim)
            }
            DataType::List(inner) => {
                let this_dim = *dim;
                *dim += 1;
                let start = *leaf;
                let inner = Node::compile(inner, leaf, dim);
                Node::List {
                    dim: this_dim,
                    inner: Box::new(inner),
                    leaves: start..*leaf,
                }
            }
            _ => {
                *leaf += 1;
                Node::Leaf(*leaf - 1)
            }
        }
    }

    fn compile_struct<'t>(
        types: impl Iterator<Item = &'t DataType>,
        leaf: &mut usize,
        dim: &mut u32,
    ) -> Node {
        let fields: Vec<Node> = types.map(|ty| Node::compile(ty, leaf, dim)).collect();
        let nested = fields.iter().any(Node::nested);
        Node::Struct { fields, nested }
    }

    fn nested(&self) -> bool {
        match self {
            Node::Leaf(_) => false,
            Node::Struct { nested, .. } => *nested,
            Node::List { .. } => true,
        }
    }

    /// Flattened row count of `value` under this node.
    fn rows(&self, value: &Value) -> usize {
        match self {
            Node::Struct {
                fields,
                nested: true,
            } => {
                let children = struct_children(value);
                fields
                    .iter()
                    .enumerate()
                    .map(|(i, f)| f.rows(child(children, i)))
                    .product()
            }
            Node::List { inner, .. } => match value {
                Value::List(items) if !items.is_empty() => {
                    if inner.nested() {
                        items.iter().map(|item| inner.rows(item)).sum()
                    } else {
                        items.len()
                    }
                }
                // An empty or absent list still flattens to one null row.
                _ => 1,
            },
            _ => 1,
        }
    }
}

fn struct_children(value: &Value) -> &[Value] {
    match value {
        Value::Struct(children) => children,
        _ => &[],
    }
}

/// Child `i`, or `Null` when the struct is shorter than its schema.
fn child(children: &[Value], i: usize) -> &Value {
    children.get(i).unwrap_or(&NULL)
}

/// Per-schema shredding plan shared by the flattened store builders.
pub(crate) struct Shredder {
    root: Node,
}

impl Shredder {
    /// Compiles `schema`. Panics if it has more than 64 list nodes (masks
    /// are `u64`; no realistic schema comes close).
    pub(crate) fn new(schema: &Schema) -> Self {
        let (mut leaf, mut dim) = (0usize, 0u32);
        let root = Node::compile_struct(
            schema.fields().iter().map(|f| &f.data_type),
            &mut leaf,
            &mut dim,
        );
        assert!(
            dim <= 64,
            "schemas with more than 64 list dimensions are unsupported"
        );
        Shredder { root }
    }

    /// Flattened row count of one record.
    pub(crate) fn rows(&self, record: &Value) -> usize {
        self.root.rows(record)
    }

    /// Shreds one record: appends its row masks to `masks` and its shape
    /// to `shape`, and feeds its leaf values to `sink`. Returns the
    /// record's flattened row count.
    pub(crate) fn shred<'a>(
        &self,
        record: &'a Value,
        masks: &mut Vec<u64>,
        shape: &mut Vec<u32>,
        sink: &mut impl LeafSink<'a>,
    ) -> usize {
        let rows = self.root.rows(record);
        sink.begin_record(rows);
        let base = masks.len();
        masks.resize(base + rows, 0);
        let mut walk = Walk {
            masks: &mut masks[base..],
            shape,
            counts: Vec::new(),
            sink,
        };
        walk.emit(&self.root, record, 0, 1, 1, true);
        rows
    }
}

/// One record's walk state.
struct Walk<'w, S> {
    /// The record's row masks.
    masks: &'w mut [u64],
    shape: &'w mut Vec<u32>,
    /// Stack of struct child row counts (scratch).
    counts: Vec<usize>,
    sink: &'w mut S,
}

impl<'a, S: LeafSink<'a>> Walk<'_, S> {
    /// Emits `value`'s subtree in context `(base, rep, tile)` (see the
    /// module docs). `capture` is false on repeated tiles, whose shape
    /// the first tile already recorded.
    fn emit(
        &mut self,
        node: &Node,
        value: &'a Value,
        base: usize,
        rep: usize,
        tile: usize,
        capture: bool,
    ) {
        match node {
            Node::Leaf(leaf) => self.sink.fill(*leaf, value, base, rep * tile),
            Node::Struct {
                fields,
                nested: false,
            } => {
                let children = struct_children(value);
                for (i, f) in fields.iter().enumerate() {
                    self.emit(f, child(children, i), base, rep, tile, capture);
                }
            }
            Node::Struct { fields, .. } => {
                let children = struct_children(value);
                let mark = self.counts.len();
                let mut total = 1usize;
                for (i, f) in fields.iter().enumerate() {
                    let c = f.rows(child(children, i));
                    self.counts.push(c);
                    total *= c;
                }
                // Leftmost child varies slowest: child j repeats each row
                // over the product of the counts to its right and tiles
                // over the product of those to its left.
                let mut left = 1usize;
                for (i, f) in fields.iter().enumerate() {
                    let c = self.counts[mark + i];
                    let right = total / (left * c);
                    self.emit(
                        f,
                        child(children, i),
                        base,
                        rep * right,
                        tile * left,
                        capture,
                    );
                    left *= c;
                }
                self.counts.truncate(mark);
            }
            Node::List { dim, inner, leaves } => match value {
                Value::List(items) if !items.is_empty() => {
                    if capture {
                        self.shape.push(items.len() as u32);
                    }
                    let bit = 1u64 << dim;
                    let mut pos = base;
                    for t in 0..tile {
                        for (i, item) in items.iter().enumerate() {
                            let n = inner.rows(item) * rep;
                            if i > 0 {
                                for mask in &mut self.masks[pos..pos + n] {
                                    *mask |= bit;
                                }
                            }
                            self.emit(inner, item, pos, rep, 1, capture && t == 0);
                            pos += n;
                        }
                    }
                }
                _ => {
                    if capture {
                        self.shape.push(0);
                    }
                    for leaf in leaves.clone() {
                        self.sink.fill(leaf, &NULL, base, rep * tile);
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_types::{flatten_record_masks, Field};

    /// Materializes fills into full rows (test sink).
    struct Grid<'a> {
        width: usize,
        cells: Vec<Option<&'a Value>>,
    }

    impl<'a> LeafSink<'a> for Grid<'a> {
        fn begin_record(&mut self, rows: usize) {
            self.cells = vec![None; rows * self.width];
        }

        fn fill(&mut self, leaf: usize, value: &'a Value, lo: usize, n: usize) {
            for row in lo..lo + n {
                let cell = &mut self.cells[row * self.width + leaf];
                assert!(cell.is_none(), "row {row} leaf {leaf} filled twice");
                *cell = Some(value);
            }
        }
    }

    fn shred_rows(schema: &Schema, record: &Value) -> (Vec<(Vec<Value>, u64)>, Vec<u32>) {
        let width = schema.leaves().len();
        let mut grid = Grid {
            width,
            cells: Vec::new(),
        };
        let (mut masks, mut shape) = (Vec::new(), Vec::new());
        let rows = Shredder::new(schema).shred(record, &mut masks, &mut shape, &mut grid);
        assert_eq!(masks.len(), rows);
        let out = (0..rows)
            .map(|r| {
                let row = (0..width)
                    .map(|l| grid.cells[r * width + l].expect("cell filled").clone())
                    .collect();
                (row, masks[r])
            })
            .collect();
        (out, shape)
    }

    #[test]
    fn sibling_lists_and_nested_lists_match_the_oracle() {
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
            Field::required("z", DataType::Str),
        ]);
        let record = Value::Struct(vec![
            Value::Int(1),
            Value::List(vec![
                Value::Struct(vec![
                    Value::Int(10),
                    Value::List(vec![Value::from("x"), Value::from("y")]),
                ]),
                Value::Null,
                Value::Struct(vec![Value::Int(30)]),
            ]),
            Value::List(vec![Value::Float(0.5), Value::Float(1.5)]),
            Value::from("end"),
        ]);
        let (rows, shape) = shred_rows(&schema, &record);
        assert_eq!(rows.len(), 8); // (2 + 1 + 1) items-rows x 2 scores
        assert_eq!(rows, flatten_record_masks(&schema, &record));
        let mut expected_shape = Vec::new();
        crate::shape::capture(schema.fields(), &record, &mut expected_shape);
        assert_eq!(shape, expected_shape);
    }

    #[test]
    fn flat_record_is_one_fill_per_field() {
        struct Count(usize);
        impl LeafSink<'_> for Count {
            fn fill(&mut self, _: usize, _: &Value, lo: usize, n: usize) {
                assert_eq!((lo, n), (0, 1));
                self.0 += 1;
            }
        }
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Float),
        ]);
        let record = Value::Struct(vec![Value::Int(1), Value::from("s")]);
        let mut sink = Count(0);
        let (mut masks, mut shape) = (Vec::new(), Vec::new());
        let rows = Shredder::new(&schema).shred(&record, &mut masks, &mut shape, &mut sink);
        assert_eq!((rows, sink.0), (1, 3));
        assert_eq!(masks, vec![0]);
        assert!(shape.is_empty());
    }
}

/// The shredded builds against the pre-shredder builds
/// ([`recache_types::flatten_record_masks`] rows pushed value by value):
/// stores, round trips and all four layout switches must be identical.
#[cfg(test)]
mod equivalence {
    use crate::{
        columnar_to_dremel, columnar_to_row, dremel_to_columnar, row_to_columnar, ColumnStore,
        DremelStore, RowStore, DICT_MAX_RATIO,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recache_types::{flatten_record, DataType, Field, Schema, Value};

    /// Sibling lists, a list of structs holding a list and a struct, a
    /// list of lists, a trailing struct, low-cardinality (dictionary
    /// eligible) and unique strings.
    fn schema() -> Schema {
        let list = |ty: DataType| DataType::List(Box::new(ty));
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new("kind", DataType::Str),
            Field::new(
                "items",
                list(DataType::Struct(vec![
                    Field::new("q", DataType::Int),
                    Field::new("tags", list(DataType::Str)),
                    Field::new(
                        "sub",
                        DataType::Struct(vec![
                            Field::new("f", DataType::Float),
                            Field::new("ok", DataType::Bool),
                        ]),
                    ),
                    Field::new("note", DataType::Str),
                ])),
            ),
            Field::new("scores", list(DataType::Float)),
            Field::new("grid", list(list(DataType::Int))),
            Field::new(
                "tail",
                DataType::Struct(vec![
                    Field::new("x", DataType::Int),
                    Field::new("y", DataType::Str),
                ]),
            ),
        ])
    }

    /// Null with probability 1/8, else `f()`.
    fn maybe(rng: &mut StdRng, f: impl FnOnce(&mut StdRng) -> Value) -> Value {
        if rng.random_range(0..8) == 0 {
            Value::Null
        } else {
            f(rng)
        }
    }

    /// Absent (null), empty, or up to `max` elements.
    fn list(rng: &mut StdRng, max: usize, mut item: impl FnMut(&mut StdRng) -> Value) -> Value {
        match rng.random_range(0..6) {
            0 => Value::Null,
            1 => Value::List(Vec::new()),
            _ => {
                let n = rng.random_range(1..=max);
                Value::List((0..n).map(|_| item(rng)).collect())
            }
        }
    }

    /// A struct whose trailing children may be missing.
    fn truncated(rng: &mut StdRng, mut children: Vec<Value>) -> Value {
        let keep = if rng.random_range(0..4) == 0 {
            rng.random_range(0..=children.len())
        } else {
            children.len()
        };
        children.truncate(keep);
        Value::Struct(children)
    }

    fn word(rng: &mut StdRng) -> Value {
        const WORDS: [&str; 4] = ["red", "green", "blue", ""];
        Value::from(WORDS[rng.random_range(0..WORDS.len())])
    }

    fn record(rng: &mut StdRng, i: usize) -> Value {
        if rng.random_range(0..40) == 0 {
            return Value::Null;
        }
        let item = |rng: &mut StdRng| {
            maybe(rng, |rng| {
                let children = vec![
                    maybe(rng, |rng| Value::Int(rng.random_range(-5..5))),
                    list(rng, 3, |rng| maybe(rng, word)),
                    maybe(rng, |rng| {
                        let children = vec![
                            maybe(rng, |rng| Value::Float(rng.random_range(0.0..1.0))),
                            maybe(rng, |rng| Value::Bool(rng.random())),
                        ];
                        truncated(rng, children)
                    }),
                    maybe(rng, |rng| {
                        Value::Str(format!("note-{}", rng.random::<u64>() % 1_000_000))
                    }),
                ];
                truncated(rng, children)
            })
        };
        let children = vec![
            Value::Int(i as i64),
            maybe(rng, word),
            list(rng, 3, item),
            list(rng, 3, |rng| maybe(rng, |rng| Value::Float(rng.random()))),
            list(rng, 3, |rng| {
                list(rng, 3, |rng| {
                    maybe(rng, |rng| Value::Int(rng.random_range(0..9)))
                })
            }),
            maybe(rng, |rng| {
                let children = vec![maybe(rng, |rng| Value::Int(rng.random())), maybe(rng, word)];
                truncated(rng, children)
            }),
        ];
        truncated(rng, children)
    }

    fn records(seed: u64, n: usize) -> Vec<Value> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|i| record(&mut rng, i)).collect()
    }

    #[test]
    fn shredded_stores_equal_the_flatten_oracle() {
        let schema = schema();
        for seed in 0..6u64 {
            let recs = records(seed, 1 + 60 * seed as usize);
            for dict in [Some(DICT_MAX_RATIO), Some(0.5), None] {
                let new = ColumnStore::build_with_dict(&schema, recs.iter(), dict);
                let old = ColumnStore::build_reference(&schema, recs.iter(), dict);
                assert_eq!(new, old, "columnar seed {seed} dict {dict:?}");
            }
            let new_row = RowStore::build(&schema, recs.iter());
            let old_row = RowStore::build_reference(&schema, recs.iter());
            assert_eq!(new_row, old_row, "row seed {seed}");

            // Round trips rebuild records with the original flattening.
            let col = ColumnStore::build(&schema, recs.iter());
            for (rec, (a, b)) in recs
                .iter()
                .zip(col.to_records().iter().zip(new_row.to_records().iter()))
            {
                let want = flatten_record(&schema, rec);
                assert_eq!(flatten_record(&schema, a), want, "seed {seed}");
                assert_eq!(flatten_record(&schema, b), want, "seed {seed}");
            }
        }
    }

    #[test]
    fn dictionary_eligible_columns_are_encoded_identically() {
        let schema = schema();
        let recs = records(42, 400);
        let dict_leaves = |ratio: f64| {
            let new = ColumnStore::build_with_dict(&schema, recs.iter(), Some(ratio));
            let old = ColumnStore::build_reference(&schema, recs.iter(), Some(ratio));
            assert_eq!(new, old, "ratio {ratio}");
            assert!(new.row_count() > 400, "lists must multiply rows");
            (0..schema.leaves().len())
                .filter(|&l| new.leaf_is_dict(l))
                .collect::<Vec<usize>>()
        };
        // `kind`, `items.tags` and `tail.y` draw from four words; the
        // per-item `items.note` repeats only through list products, so a
        // tight ratio leaves it plain.
        assert_eq!(dict_leaves(DICT_MAX_RATIO), vec![1, 3, 6, 10]);
        assert_eq!(dict_leaves(0.01), vec![1, 3, 10]);
    }

    #[test]
    fn layout_switches_equal_the_flatten_oracle() {
        let schema = schema();
        let recs = records(7, 300);
        let ids: Vec<u32> = (0..recs.len() as u32).map(|i| 3 * i + 1).collect();
        let with_ids = |mut s: ColumnStore| {
            s.set_source_record_ids(ids.clone());
            s
        };
        let with_row_ids = |mut s: RowStore| {
            s.set_source_record_ids(ids.clone());
            s
        };
        let mut dremel = DremelStore::build(&schema, recs.iter());
        dremel.set_source_record_ids(ids.clone());
        let col = with_ids(ColumnStore::build(&schema, recs.iter()));
        let row = with_row_ids(RowStore::build(&schema, recs.iter()));

        let (switched, _) = dremel_to_columnar(&dremel);
        let oracle =
            ColumnStore::build_reference(&schema, dremel.to_records().iter(), Some(DICT_MAX_RATIO));
        assert_eq!(switched, with_ids(oracle), "dremel -> columnar");

        let (switched, _) = row_to_columnar(&row);
        let oracle =
            ColumnStore::build_reference(&schema, row.to_records().iter(), Some(DICT_MAX_RATIO));
        assert_eq!(switched, with_ids(oracle), "row -> columnar");

        let (switched, _) = columnar_to_row(&col);
        let oracle = RowStore::build_reference(&schema, col.to_records().iter());
        assert_eq!(switched, with_row_ids(oracle), "columnar -> row");

        let old_col = with_ids(ColumnStore::build_reference(
            &schema,
            recs.iter(),
            Some(DICT_MAX_RATIO),
        ));
        let (a, _) = columnar_to_dremel(&col);
        let (b, _) = columnar_to_dremel(&old_col);
        assert_eq!(a.to_records(), b.to_records(), "columnar -> dremel");
        assert_eq!(a.flattened_rows(), b.flattened_rows());
        assert_eq!(a.byte_size(), b.byte_size());
        assert_eq!(a.source_record_ids(), b.source_record_ids());
        let leaves: Vec<usize> = (0..schema.leaves().len()).collect();
        let scan = |s: &DremelStore| {
            let mut out = Vec::new();
            s.scan(&leaves, false, &mut |id, row| out.push((id, row.to_vec())));
            out
        };
        assert_eq!(scan(&a), scan(&b));
    }
}
