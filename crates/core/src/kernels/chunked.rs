//! Vectorized execution kernels over columnar [`Chunk`]s.
//!
//! Each kernel here is the columnar twin of a row kernel in
//! [`crate::kernels`] and is **byte-identical** to it: for any input,
//! `chunk_kernel(Chunk::from_records(rows))` converted back with
//! [`Chunk::to_records`] equals `row_kernel(rows)` exactly — including
//! `Null` placement, `NaN` payload bits, `-0.0`, group ordering, and join
//! output order. The property-test suite (`tests/columnar_kernels.rs`)
//! enforces this over random data.
//!
//! The operator table ([`super::execute`]) runs these kernels whenever
//! every payload of an operator is declarative — which is everything SQL
//! lowers to — and its inputs have a columnar view.
//!
//! Where the operator carries a declarative form (an [`Expr`] predicate, an
//! aggregate spec ([`crate::udf::GroupMapUdf::from_aggs`]),
//! [`KeyUdf::fields`]), kernels run fully columnar: predicates evaluate vectorized and the keyed kernels run on
//! the vectorized hash engine (`super::hash`) — the key column hashes
//! once into a hash lane (`i64` fast lane, dict-code lane hashing each
//! distinct string a single time, generic [`Value`] fallback), an
//! open-addressing slot table assigns dense group slots, and aggregation
//! folds into typed accumulator lanes (or per-slot accumulators) without
//! gathering a `Vec<Record>` per group first. Joins drive the same engine:
//! the right side is indexed once (direct-address slots for a small-range
//! `i64` key, else one pre-sized slot table), the left side
//! probes it, and the output gathers only what it cannot share: a fully
//! matched left side of a unique-key join passes through, and a typed
//! right key lane is the left key lane.
//! Filters build their selection without a branch per row, and one that
//! keeps every row hands its input on uncopied. Opaque closures fall back
//! to materializing rows — correct, but without the columnar speedup.

use crate::data::{Chunk, Column, Record, Text, Value};
use crate::error::{Result, RheemError};
use crate::expr::Expr;
use crate::fault;
use crate::physical::{PipelineStage, StageKind};
use crate::udf::{AggFunc, AggState, GroupOutput, KeyUdf};

use super::hash;

/// Keep rows whose predicate evaluates to `Bool(true)`.
pub fn filter(chunk: &Chunk, expr: &Expr) -> Chunk {
    gather_kept(chunk, &filter_indices(chunk, expr))
}

/// The rows at `kept`, an ascending selection of `chunk`'s rows: the chunk
/// itself — `Arc` bumps, no copy — when the selection is every row.
fn gather_kept(chunk: &Chunk, kept: &[usize]) -> Chunk {
    if kept.len() == chunk.rows() {
        chunk.clone()
    } else {
        chunk.gather(kept)
    }
}

/// Row indices kept by a predicate (the mask form of [`filter`]).
pub(crate) fn filter_indices(chunk: &Chunk, expr: &Expr) -> Vec<usize> {
    let mask = expr.eval_chunk(chunk);
    let rows = chunk.rows();
    match mask.bools() {
        Some(lane) if mask.no_nulls() => select_rows(rows, |i| lane[i]),
        // A NULL row is not `Bool(true)`, whatever its lane entry holds.
        Some(lane) => select_rows(rows, |i| lane[i] & mask.is_valid(i)),
        // Another layout holds `Bool(true)` only as a `Mixed` value.
        None => select_rows(rows, |i| matches!(mask.value(i), Value::Bool(true))),
    }
}

/// The rows `i < rows` for which `keep(i)` holds, ascending, without a
/// branch per row. A first pass counts them, so the selection is allocated
/// at its size; then each block of rows writes every index at a cursor
/// that moves past the kept ones only, and appends the block's kept prefix.
fn select_rows(rows: usize, keep: impl Fn(usize) -> bool) -> Vec<usize> {
    const BLOCK: usize = 64;
    let mut kept = Vec::with_capacity((0..rows).map(|i| usize::from(keep(i))).sum());
    let mut block = [0usize; BLOCK];
    for start in (0..rows).step_by(BLOCK) {
        let mut n = 0;
        for i in start..rows.min(start + BLOCK) {
            block[n] = i;
            n += usize::from(keep(i));
        }
        kept.extend_from_slice(&block[..n]);
    }
    kept
}

/// Evaluate one output column per expression (the vectorized map).
pub fn map(chunk: &Chunk, exprs: &[Expr]) -> Chunk {
    let columns = exprs.iter().map(|e| e.eval_chunk(chunk)).collect();
    Chunk::new(columns, chunk.rows())
}

/// Keep the given columns, in order — zero-copy.
///
/// Mirrors the row kernel's contract: out-of-bounds indices are an error
/// (unless the chunk is empty, where the row kernel also succeeds).
pub fn project(chunk: &Chunk, indices: &[usize]) -> Result<Chunk> {
    if chunk.rows() == 0 {
        return Ok(Chunk::new(Vec::new(), 0));
    }
    chunk
        .project(indices)
        .ok_or_else(|| RheemError::FieldOutOfBounds {
            index: indices
                .iter()
                .copied()
                .find(|&i| i >= chunk.width())
                .unwrap_or(0),
            width: chunk.width(),
        })
}

/// Per-row keys extracted column-wise, avoiding record materialization when
/// the key is a plain field read.
enum Keys<'a> {
    /// Typed fast path: the key column is a clean `i64` lane.
    Ints(&'a [i64]),
    /// Typed fast path: a clean dictionary-encoded string lane. Dictionary
    /// entries are distinct ([`Column::dict_codes`]), so code equality is
    /// string equality and each distinct string hashes once.
    Dict {
        /// Distinct dictionary strings.
        dict: &'a [Text],
        /// Per-row dictionary codes.
        codes: &'a [u32],
    },
    /// Generic path: one [`Value`] key per row.
    Values(Vec<Value>),
}

fn extract_keys<'a>(chunk: &'a Chunk, key: &KeyUdf) -> Keys<'a> {
    match key.field_index() {
        Some(idx) => field_keys(chunk, idx),
        None => {
            let records = chunk.to_records();
            Keys::Values(records.iter().map(|r| (key.f)(r)).collect())
        }
    }
}

/// The key lane of a plain field read.
fn field_keys(chunk: &Chunk, idx: usize) -> Keys<'_> {
    match chunk.column(idx) {
        Some(col) => {
            if col.no_nulls() {
                if let Some(lane) = col.ints() {
                    return Keys::Ints(lane);
                }
                if let Some((dict, codes)) = col.dict_codes() {
                    return Keys::Dict { dict, codes };
                }
            }
            Keys::Values((0..chunk.rows()).map(|i| col.value(i)).collect())
        }
        // Out-of-bounds field reads as Null for every row.
        None => Keys::Values(vec![Value::Null; chunk.rows()]),
    }
}

/// Materialize a key lane as one [`Value`] per row (the generic join/sort
/// fallback when the two sides' lanes disagree).
fn into_values(keys: Keys<'_>) -> Vec<Value> {
    match keys {
        Keys::Ints(lane) => lane.iter().map(|&k| Value::Int(k)).collect(),
        Keys::Dict { dict, codes } => codes
            .iter()
            .map(|&c| Value::Str(dict[c as usize].clone()))
            .collect(),
        Keys::Values(v) => v,
    }
}

/// Per-chunk key-hash column: one engine hash per row, computed once. The
/// dict lane hashes each distinct dictionary string a single time and maps
/// codes through.
fn key_hashes(keys: &Keys<'_>) -> Vec<u64> {
    match keys {
        Keys::Ints(lane) => lane.iter().map(|&k| hash::hash_i64(k)).collect(),
        Keys::Dict { dict, codes } => {
            let dict_hashes: Vec<u64> = dict.iter().map(|s| hash::hash_str(s)).collect();
            codes.iter().map(|&c| dict_hashes[c as usize]).collect()
        }
        Keys::Values(vals) => vals.iter().map(hash::hash_value).collect(),
    }
}

/// One hash per row of the key tuple `key_fields`: per-field engine hashes
/// (typed lanes, each dictionary string hashed once) folded
/// with `hash::combine` — equal to folding `hash::hash_value` over the
/// same fields of the same row. Partitioned platforms route rows by it, so
/// equal keys meet in one partition whichever view a side was routed on.
pub fn key_tuple_hashes(chunk: &Chunk, key_fields: &[usize]) -> Vec<u64> {
    let mut hashes = vec![0u64; chunk.rows()];
    for &field in key_fields {
        let field_hashes = key_hashes(&field_keys(chunk, field));
        for (acc, h) in hashes.iter_mut().zip(field_hashes) {
            *acc = hash::combine(*acc, h);
        }
    }
    hashes
}

/// Dense group slots for a chunk's key column plus each slot's
/// materialized key (the engine-level core of `hash_group` and the
/// single-field `hash_aggregate`).
struct GroupedKeys {
    groups: hash::DenseGroups,
    /// Slot-indexed group keys.
    keys: Vec<Value>,
}

/// Dense group slots of an `i64` lane. Small-range lanes skip hashing
/// entirely: the key is its own perfect hash (direct-address slots). Wide
/// ranges fall back to the engine's hash tables. Both number slots in
/// first-encounter order, so the choice is invisible downstream.
fn int_lane_groups(lane: &[i64]) -> hash::DenseGroups {
    match hash::dense_index_i64(lane) {
        Some(index) => index.into_groups(),
        None => int_lane_index(lane).into_groups(),
    }
}

/// The engine's hash index over an `i64` lane (the wide-range path).
fn int_lane_index(lane: &[i64]) -> hash::GroupIndex {
    let hashes: Vec<u64> = lane.iter().map(|&k| hash::hash_i64(k)).collect();
    hash::build_index(&hashes, |a, b| lane[a as usize] == lane[b as usize])
}

fn group_slots(chunk: &Chunk, key: &KeyUdf) -> GroupedKeys {
    grouped_keys(extract_keys(chunk, key))
}

fn grouped_keys(keys: Keys<'_>) -> GroupedKeys {
    match keys {
        Keys::Ints(lane) => {
            let groups = int_lane_groups(lane);
            let keys = groups
                .first_row
                .iter()
                .map(|&r| Value::Int(lane[r as usize]))
                .collect();
            GroupedKeys { groups, keys }
        }
        // Dictionary codes are already dense (distinct code ⇔ distinct
        // string): the dictionary is the perfect hash.
        Keys::Dict { dict, codes } => {
            let groups = hash::dense_groups_codes(codes, dict.len());
            let keys = groups
                .first_row
                .iter()
                .map(|&r| Value::Str(dict[codes[r as usize] as usize].clone()))
                .collect();
            GroupedKeys { groups, keys }
        }
        Keys::Values(vals) => {
            let hashes: Vec<u64> = vals.iter().map(hash::hash_value).collect();
            let groups = hash::build_index(&hashes, |a, b| vals[a as usize] == vals[b as usize])
                .into_groups();
            let keys = groups
                .first_row
                .iter()
                .map(|&r| vals[r as usize].clone())
                .collect();
            GroupedKeys { groups, keys }
        }
    }
}

/// Group rows by key. Same output contract as the row kernel: groups sorted
/// by key, members in input order.
///
/// Engine slots feed a CSR member list, and each group's records are then
/// materialized group-major into an exactly-sized `Vec` — sequential
/// writes into one destination at a time, no per-push reload of a
/// scattered `Vec` header. Member rows sit in the CSR in input order, so
/// the contract holds; the final sort is over *groups* (by key), so hash
/// choices never reach the output.
pub fn hash_group(chunk: &Chunk, key: &KeyUdf) -> Vec<(Value, Vec<Record>)> {
    let GroupedKeys { groups, keys } = group_slots(chunk, key);
    let (offsets, rows) = hash::member_lists(&groups.slot_of_row, groups.n_groups());
    let columns = chunk.columns();
    let mut out: Vec<(Value, Vec<Record>)> = keys
        .into_iter()
        .enumerate()
        .map(|(s, k)| {
            let members = &rows[offsets[s]..offsets[s + 1]];
            let recs: Vec<Record> = members
                .iter()
                .map(|&r| {
                    let r = r as usize;
                    Record::new(columns.iter().map(|c| c.value(r)).collect())
                })
                .collect();
            (k, recs)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Dense group slots of a key *tuple*, and each slot's key values.
///
/// One field is the single-lane case. More fold left to right: the slot
/// pair `(slot so far, slot of the next field)` is itself a small integer
/// key — `so_far * n_next + next`, below `2^64` because both factors are
/// row-bounded `u32`s — which the `i64` lane grouping densifies again. No
/// tuple is ever hashed or compared as a tuple. No field at all is the
/// global group: one slot holding every row (and still one slot over no
/// rows, whose key reads `Null`s).
struct GroupedTuples {
    groups: hash::DenseGroups,
    /// Per key field, the slot-indexed key values.
    keys: Vec<Vec<Value>>,
}

fn group_tuples(chunk: &Chunk, key_fields: &[usize]) -> GroupedTuples {
    let mut fields = key_fields.iter();
    let Some(&first) = fields.next() else {
        return GroupedTuples {
            groups: hash::DenseGroups {
                slot_of_row: vec![0; chunk.rows()],
                first_row: vec![0],
            },
            keys: Vec::new(),
        };
    };
    let mut groups = grouped_keys(field_keys(chunk, first)).groups;
    for &field in fields {
        let next = grouped_keys(field_keys(chunk, field)).groups;
        let n_next = next.n_groups() as u64;
        let pairs: Vec<i64> = groups
            .slot_of_row
            .iter()
            .zip(&next.slot_of_row)
            .map(|(&a, &b)| (u64::from(a) * n_next + u64::from(b)) as i64)
            .collect();
        groups = int_lane_groups(&pairs);
    }
    let keys = key_fields
        .iter()
        .map(|&field| {
            let column = chunk.column(field);
            groups
                .first_row
                .iter()
                .map(|&r| column.map_or(Value::Null, |c| c.value(r as usize)))
                .collect()
        })
        .collect();
    GroupedTuples { groups, keys }
}

/// One aggregate folded over every group at once: `slot_of_row` routes each
/// row's input to its group's accumulator, in row order — so each group
/// folds exactly as [`AggState`] would over its member list, which is never
/// built. COUNT counts into an `i64` array, `Int` and `Float` lanes (nulls
/// allowed) fold in typed accumulator arrays ([`fold_typed_lane`]), and any
/// other layout folds one [`AggState`] per slot. A lane without NULLs asks
/// no row whether it is valid.
fn aggregate_lane(
    func: AggFunc,
    arg: Option<&Column>,
    slot_of_row: &[u32],
    n_groups: usize,
) -> Vec<Value> {
    let slots = || slot_of_row.iter().map(|&s| s as usize);
    if func == AggFunc::Count {
        let mut counts = vec![0i64; n_groups];
        match arg.filter(|col| !col.no_nulls()) {
            // `COUNT(*)` counts every row: the derived row closure feeds its
            // `AggState` the constant `true`, which is never NULL.
            None => slots().for_each(|s| counts[s] += 1),
            Some(col) => {
                for (row, s) in slots().enumerate() {
                    counts[s] += i64::from(col.is_valid(row));
                }
            }
        }
        return counts.into_iter().map(Value::Int).collect();
    }
    let generic = |input: &dyn Fn(usize) -> Value| -> Vec<Value> {
        let mut state = vec![AggState::new(func); n_groups];
        for (row, s) in slots().enumerate() {
            state[s].accumulate(&input(row));
        }
        state.into_iter().map(AggState::finalize).collect()
    };
    let Some(col) = arg else {
        // SUM / AVG / MIN / MAX of `*`: every row's input is the constant
        // `true`, exactly what the derived row closure feeds its `AggState`.
        return generic(&|_| Value::Bool(true));
    };
    // Valid `(slot, row)` pairs in row order.
    let no_nulls = col.no_nulls();
    let valid = || {
        slots()
            .enumerate()
            .filter(move |(row, _)| no_nulls || col.is_valid(*row))
    };
    if let Some(lane) = col.ints() {
        let widen = |x: i64| x as f64;
        fold_typed_lane(
            func,
            lane,
            valid(),
            n_groups,
            Value::Int,
            widen,
            i64::wrapping_add,
            i64::cmp,
        )
    } else if let Some(lane) = col.floats() {
        let add = |a: f64, x: f64| a + x;
        fold_typed_lane(
            func,
            lane,
            valid(),
            n_groups,
            Value::Float,
            |x| x,
            add,
            f64::total_cmp,
        )
    } else {
        generic(&|row| col.value(row))
    }
}

/// SUM / AVG / MIN / MAX of one typed lane per group, as [`AggState`]
/// computes them on values of one numeric type: SUM adds in row order from
/// the type's zero (`add`), AVG adds the widened values, MIN replaces on
/// strictly-less and MAX on not-less under the SQL ordering (`cmp`); a
/// group without a valid input is `Null`.
#[allow(clippy::too_many_arguments)]
fn fold_typed_lane<T: Copy + Default>(
    func: AggFunc,
    lane: &[T],
    valid_rows: impl Iterator<Item = (usize, usize)>,
    n_groups: usize,
    wrap: impl Fn(T) -> Value,
    widen: impl Fn(T) -> f64,
    add: impl Fn(T, T) -> T,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
) -> Vec<Value> {
    let mut seen = vec![false; n_groups];
    let mut acc = vec![T::default(); n_groups];
    let mut mean = vec![(0.0f64, 0u64); if func == AggFunc::Avg { n_groups } else { 0 }];
    // One loop per function, so the per-row work carries no dispatch.
    macro_rules! each_valid_row {
        (|$s:ident, $x:ident| $step:expr) => {
            for (row, $s) in valid_rows {
                let $x = lane[row];
                $step;
                seen[$s] = true;
            }
        };
    }
    match func {
        AggFunc::Sum => each_valid_row!(|s, x| acc[s] = add(acc[s], x)),
        AggFunc::Avg => each_valid_row!(|s, x| mean[s] = (mean[s].0 + widen(x), mean[s].1 + 1)),
        AggFunc::Min => each_valid_row!(|s, x| if !seen[s] || cmp(&x, &acc[s]).is_lt() {
            acc[s] = x
        }),
        AggFunc::Max => each_valid_row!(|s, x| if !seen[s] || cmp(&x, &acc[s]).is_ge() {
            acc[s] = x
        }),
        AggFunc::Count => unreachable!("COUNT never reads its input's payload"),
    }
    (0..n_groups)
        .map(|s| match func {
            _ if !seen[s] => Value::Null,
            AggFunc::Avg => Value::Float(mean[s].0 / mean[s].1 as f64),
            _ => wrap(acc[s]),
        })
        .collect()
}

/// Hash aggregate: group by the `key_fields` tuple and emit one row per
/// group with one column per [`GroupOutput`] — the columnar twin of
/// `hash_group` + `apply_group_map` for a declarative key and a
/// [`crate::udf::GroupMapUdf::from_aggs`] group map, byte-identical to it:
/// groups ascend by key tuple under [`Value`]'s order (the order the row
/// key's encoding sorts in), every aggregate folds its group's inputs in
/// row order, and a key-less (global) aggregate emits its one row even
/// over an empty chunk. Member lists are never materialized.
pub fn hash_aggregate(chunk: &Chunk, key_fields: &[usize], outputs: &[GroupOutput]) -> Chunk {
    let GroupedTuples { groups, keys } = group_tuples(chunk, key_fields);
    let n = groups.n_groups();
    let first_rows: Vec<usize> = groups.first_row.iter().map(|&r| r as usize).collect();
    let columns: Vec<Column> = outputs
        .iter()
        .map(|output| match output {
            GroupOutput::First(i) => match chunk.column(*i) {
                Some(col) if chunk.rows() > 0 => col.gather(&first_rows),
                _ => Column::from_values(&vec![Value::Null; n]),
            },
            GroupOutput::Agg(agg) => {
                let arg = agg.arg.as_ref().map(|e| e.eval_chunk(chunk));
                let values = aggregate_lane(agg.func, arg.as_ref(), &groups.slot_of_row, n);
                Column::from_values(&values)
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        keys.iter()
            .map(|field| field[a].cmp(&field[b]))
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Chunk::new(columns, n).gather(&order)
}

/// Stable sort by key (same direction semantics as the row kernel).
pub fn sort(chunk: &Chunk, key: &KeyUdf, descending: bool) -> Chunk {
    let mut indices: Vec<usize> = (0..chunk.rows()).collect();
    match extract_keys(chunk, key) {
        Keys::Ints(lane) => {
            if descending {
                indices.sort_by(|&a, &b| lane[b].cmp(&lane[a]));
            } else {
                indices.sort_by(|&a, &b| lane[a].cmp(&lane[b]));
            }
        }
        // `Text` orders by its bytes, as `Value::Str` does, so the lane
        // sorts by its dictionary entries without materializing Values.
        Keys::Dict { dict, codes } => {
            let k = |i: usize| &dict[codes[i] as usize];
            if descending {
                indices.sort_by(|&a, &b| k(b).cmp(k(a)));
            } else {
                indices.sort_by(|&a, &b| k(a).cmp(k(b)));
            }
        }
        Keys::Values(keys) => {
            if descending {
                indices.sort_by(|&a, &b| keys[b].cmp(&keys[a]));
            } else {
                indices.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
            }
        }
    }
    chunk.gather(&indices)
}

/// The rows of a hash equi-join as selection vectors, in the row kernel's
/// output order: left-major, right matches in right input order within a
/// key.
struct JoinRows {
    /// The left row of each output row; `None` when that is every left row
    /// once, in order, so the left side passes through uncopied.
    left: Option<Vec<usize>>,
    /// The right row of each output row.
    right: Vec<usize>,
}

/// The rows of a hash equi-join, and whether both key lanes are typed and
/// null-free (`Int`/`Int` or dictionary/dictionary), so that every output
/// row's right key equals its left key exactly.
///
/// The right side is indexed once — direct-address slots for an `i64` lane
/// of small range ([`hash::dense_index_i64`]), else a [`hash::GroupIndex`]
/// (one pre-sized slot table) — and the left side probes
/// it: a subtraction and a load per row, or one hash per row. When both
/// key lanes are dictionary-encoded the probe is memoized per distinct
/// *left* dictionary entry, so string comparison happens at most once per
/// distinct string rather than per row.
fn equi_join_select(
    left: &Chunk,
    right: &Chunk,
    left_key: &KeyUdf,
    right_key: &KeyUdf,
) -> (JoinRows, bool) {
    let lkeys = extract_keys(left, left_key);
    let rkeys = extract_keys(right, right_key);
    match (&lkeys, &rkeys) {
        (Keys::Ints(ll), Keys::Ints(rl)) => {
            let rows = match hash::dense_index_i64(rl) {
                Some(index) => emit_matches(
                    ll.len(),
                    &index.groups.slot_of_row,
                    &index.groups.first_row,
                    |i| index.lookup(ll[i]),
                ),
                None => {
                    let index = int_lane_index(rl);
                    emit_matches(ll.len(), &index.slot_of_row, &index.first_row, |i| {
                        let k = ll[i];
                        index.lookup(hash::hash_i64(k), |s| {
                            rl[index.first_row[s as usize] as usize] == k
                        })
                    })
                }
            };
            (rows, true)
        }
        (
            Keys::Dict {
                dict: ld,
                codes: lc,
            },
            Keys::Dict {
                dict: rd,
                codes: rc,
            },
        ) => {
            let rhashes = key_hashes(&rkeys);
            let index = hash::build_index(&rhashes, |a, b| rc[a as usize] == rc[b as usize]);
            let lhashes: Vec<u64> = ld.iter().map(|s| hash::hash_str(s)).collect();
            // Per-left-dictionary-entry probe memo: dictionary entries are
            // distinct, so one string-compared lookup per entry covers
            // every row carrying its code.
            let mut memo: Vec<Option<Option<u32>>> = vec![None; ld.len()];
            let rows = emit_matches(lc.len(), &index.slot_of_row, &index.first_row, |i| {
                let c = lc[i] as usize;
                *memo[c].get_or_insert_with(|| {
                    let key: &str = &ld[c];
                    index.lookup(lhashes[c], |s| {
                        let r = index.first_row[s as usize] as usize;
                        *rd[rc[r] as usize] == *key
                    })
                })
            });
            (rows, true)
        }
        _ => {
            // Mixed or generic keys: compare as Values (Value::eq is
            // variant-exact, so Int(5) never matches Float(5.0), matching
            // the row kernel).
            let rv = into_values(rkeys);
            let rhashes: Vec<u64> = rv.iter().map(hash::hash_value).collect();
            let index = hash::build_index(&rhashes, |a, b| rv[a as usize] == rv[b as usize]);
            let lv = into_values(lkeys);
            let rows = emit_matches(lv.len(), &index.slot_of_row, &index.first_row, |i| {
                index.lookup(hash::hash_value(&lv[i]), |s| {
                    rv[index.first_row[s as usize] as usize] == lv[i]
                })
            });
            (rows, false)
        }
    }
}

/// The match rectangles of a probe, left-major with each key's right rows
/// in input order: `probe(i)` is the build slot left row `i` hits, if any,
/// and `slot_of_row` / `first_row` are the build side's grouping. Pairs are
/// pushed one at a time.
///
/// With unique build keys a left row meets at most one right row — its
/// slot's first row — so no member list is built, a non-empty build side
/// reserves the right selection for the left side up front, and only the
/// right rows are recorded. The left selection is started at the first
/// left row that misses, as every row before it; a probe that never misses
/// keeps every left row once, in order, and has no left selection at all.
fn emit_matches(
    n_left: usize,
    slot_of_row: &[u32],
    first_row: &[u32],
    mut probe: impl FnMut(usize) -> Option<u32>,
) -> JoinRows {
    if first_row.len() != slot_of_row.len() {
        let (offsets, rows) = hash::member_lists(slot_of_row, first_row.len());
        let (mut li, mut ri) = (Vec::new(), Vec::new());
        for i in 0..n_left {
            if let Some(s) = probe(i) {
                for &r in &rows[offsets[s as usize]..offsets[s as usize + 1]] {
                    li.push(i);
                    ri.push(r as usize);
                }
            }
        }
        return JoinRows {
            left: Some(li),
            right: ri,
        };
    }
    let mut ri = Vec::new();
    if !first_row.is_empty() {
        ri.reserve(n_left);
    }
    let mut li: Option<Vec<usize>> = None;
    for i in 0..n_left {
        let Some(s) = probe(i) else {
            li.get_or_insert_with(|| {
                let mut kept = Vec::with_capacity(ri.capacity());
                kept.extend(0..i);
                kept
            });
            continue;
        };
        if let Some(li) = &mut li {
            li.push(i);
        }
        ri.push(first_row[s as usize] as usize);
    }
    JoinRows {
        left: li,
        right: ri,
    }
}

/// Build the `left ++ right` output chunk of a join's rows, columns
/// concatenated — no per-row record assembly. The left side is gathered at
/// its selection, or passes through as it is (windows included) when it has
/// none. The right side is gathered at its selection, all but its key lane
/// when `shared_key` names the `(left, right)` key lanes of typed,
/// null-free keys: every output row's right key then equals its left key,
/// so the output's right key column is its left key column.
fn join_output(
    left: &Chunk,
    right: &Chunk,
    rows: &JoinRows,
    shared_key: Option<(usize, usize)>,
) -> Chunk {
    let left = match &rows.left {
        Some(li) => left.gather(li),
        None => left.clone(),
    };
    let mut columns = left.columns().to_vec();
    for (c, column) in right.columns().iter().enumerate() {
        columns.push(match shared_key {
            Some((lk, rk)) if rk == c => left.columns()[lk].clone(),
            _ => column.gather(&rows.right),
        });
    }
    Chunk::new(columns, rows.right.len())
}

/// Hash equi-join; output rows are `left ++ right`, left-major.
///
/// It copies only what it cannot share. When the build keys are unique and
/// every left row matches, the output's left columns are the input's (an
/// `Arc` clone); a left row that misses starts a left selection, and the
/// left side is gathered at it. When both key lanes are typed and null-free
/// (`Int` or dictionary strings, whose equality is exact), the output's
/// right key column is its left key column, whatever the key multiplicity;
/// any other key lane (mixed types, NULLs, floats) is gathered.
pub fn hash_join(left: &Chunk, right: &Chunk, left_key: &KeyUdf, right_key: &KeyUdf) -> Chunk {
    let (rows, exact_keys) = equi_join_select(left, right, left_key, right_key);
    let shared_key = if exact_keys {
        left_key.field_index().zip(right_key.field_index())
    } else {
        None
    };
    join_output(left, right, &rows, shared_key)
}

/// Apply one fused pipeline stage to a chunk.
fn apply_stage(chunk: Chunk, stage: &StageKind) -> Result<Chunk> {
    match stage {
        StageKind::Filter { expr, .. } => Ok(filter(&chunk, expr)),
        StageKind::Map { exprs } => Ok(map(&chunk, exprs)),
        StageKind::Project { indices } => project(&chunk, indices),
    }
}

/// The rows of `chunk` that every filter of `stages` keeps, ascending.
///
/// Each stage before a filter runs on the rows that reach that filter;
/// the stages after the last filter do not run, since none of them drops a
/// row. No map or projection drops a row, and each computes an output row
/// from its input row alone, so a chain equals its filter-free stages run
/// over [`gather_kept`] of this selection — which is how
/// [`run_pipeline_chunk`] gathers a chain's input once.
fn stage_selection(chunk: Chunk, stages: &[PipelineStage]) -> Result<Vec<usize>> {
    let last = stages.iter().rposition(is_filter).map_or(0, |i| i + 1);
    let mut chunk = chunk;
    let mut kept: Option<Vec<usize>> = None;
    for (i, stage) in stages[..last].iter().enumerate() {
        let StageKind::Filter { expr, .. } = &stage.kind else {
            chunk = apply_stage(chunk, &stage.kind)?;
            continue;
        };
        let sel = filter_indices(&chunk, expr);
        if i + 1 < last {
            chunk = gather_kept(&chunk, &sel);
        }
        kept = Some(match kept {
            None => sel,
            Some(outer) => sel.iter().map(|&j| outer[j]).collect(),
        });
    }
    Ok(kept.unwrap_or_else(|| (0..chunk.rows()).collect()))
}

/// True for a stage that may drop rows.
fn is_filter(stage: &PipelineStage) -> bool {
    matches!(stage.kind, StageKind::Filter { .. })
}

/// The fused-pipeline runner for
/// [`crate::physical::PhysicalOp::ChunkPipeline`], chunk in and chunk out.
///
/// Filters select, then the rest computes: one `stage_selection` over
/// the whole chunk yields the rows the chain's filters keep, the input is
/// gathered at them once — not at all when every row is kept — and the
/// chain's maps and projections run over the result. That equals running
/// the chain, so the output is byte-identical to the row-at-a-time
/// reference ([`run_stages_rows`]). A map ahead of a filter runs twice: for
/// the selection, and over the kept rows. Stages evaluate expressions, not
/// user code, so a fired cancel is seen before and after the selection.
pub fn run_pipeline_chunk(chunk: &Chunk, stages: &[PipelineStage]) -> Result<Chunk> {
    fault::ambient_check()?;
    let mut out = chunk.clone();
    if stages.iter().any(is_filter) {
        let kept = stage_selection(chunk.clone(), stages)?;
        fault::ambient_check()?;
        out = gather_kept(chunk, &kept);
    }
    for stage in stages.iter().filter(|s| !is_filter(s)) {
        out = apply_stage(out, &stage.kind)?;
    }
    Ok(out)
}

/// Row-at-a-time reference semantics of a stage chain.
///
/// This is the fallback for ragged record batches (no columnar layout
/// exists) and the oracle the determinism smoke test compares against.
pub fn run_stages_rows(records: &[Record], stages: &[PipelineStage]) -> Result<Vec<Record>> {
    let mut rows: Vec<Record> = records.to_vec();
    for stage in stages {
        rows = match &stage.kind {
            StageKind::Filter { expr, .. } => rows
                .into_iter()
                .filter(|r| matches!(expr.eval(r), Value::Bool(true)))
                .collect(),
            StageKind::Map { exprs } => rows
                .iter()
                .map(|r| Record::new(exprs.iter().map(|e| e.eval(r)).collect()))
                .collect(),
            StageKind::Project { indices } => rows
                .iter()
                .map(|r| r.project(indices))
                .collect::<Result<_>>()?,
        };
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::rec;
    use crate::udf::{Aggregate, FilterUdf, GroupMapUdf, MapUdf};
    use std::sync::Arc;

    fn mixed_rows() -> Vec<Record> {
        vec![
            rec![3i64, 1.5, "a"],
            Record::new(vec![Value::Null, Value::Float(f64::NAN), Value::str("b")]),
            rec![1i64, -0.0, "a"],
            rec![3i64, 2.5, "c"],
            rec![2i64, 0.0, "b"],
        ]
    }

    #[test]
    fn filter_matches_row_twin() {
        let rows = mixed_rows();
        let expr = Expr::field(0).ge(Expr::lit(2i64));
        let udf = FilterUdf::from_expr("ge2", expr.clone());
        let chunk = Chunk::from_records(&rows).unwrap();
        assert_eq!(
            filter(&chunk, &expr).to_records(),
            kernels::filter(&rows, &udf)
        );
    }

    #[test]
    fn map_matches_row_twin() {
        let rows = mixed_rows();
        let exprs = vec![Expr::field(2), Expr::field(0).add(Expr::field(1))];
        let udf = MapUdf::from_exprs("m", exprs.clone());
        let chunk = Chunk::from_records(&rows).unwrap();
        assert_eq!(map(&chunk, &exprs).to_records(), kernels::map(&rows, &udf));
    }

    #[test]
    fn project_matches_row_twin_including_errors() {
        let rows = mixed_rows();
        let chunk = Chunk::from_records(&rows).unwrap();
        assert_eq!(
            project(&chunk, &[2, 0]).unwrap().to_records(),
            kernels::project(&rows, &[2, 0]).unwrap()
        );
        assert!(project(&chunk, &[7]).is_err());
        assert!(kernels::project(&rows, &[7]).is_err());
        let empty = Chunk::from_records(&[]).unwrap();
        assert!(project(&empty, &[7]).unwrap().to_records().is_empty());
    }

    #[test]
    fn hash_group_matches_row_twin() {
        let rows = mixed_rows();
        let chunk = Chunk::from_records(&rows).unwrap();
        for key in [KeyUdf::field(0), KeyUdf::field(2), KeyUdf::field(9)] {
            assert_eq!(
                hash_group(&chunk, &key),
                kernels::hash_group(&rows, &key),
                "key {}",
                key.name
            );
        }
        // Opaque closure key.
        let key = KeyUdf::new("mod2", |r| Value::Int(r.int(0).unwrap_or(0) % 2));
        assert_eq!(hash_group(&chunk, &key), kernels::hash_group(&rows, &key));
    }

    /// The row twin of `hash_aggregate`: group through the key's closure,
    /// then apply the group map's derived closure to each member list.
    fn aggregate_by_rows(rows: &[Record], key: &KeyUdf, group: &GroupMapUdf) -> Vec<Record> {
        kernels::apply_group_map(&kernels::hash_group(rows, key), group)
    }

    fn all_aggregates(fields: &[usize]) -> Vec<GroupOutput> {
        let mut outputs = vec![GroupOutput::First(fields.first().copied().unwrap_or(9))];
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            outputs.push(GroupOutput::Agg(Aggregate { func, arg: None }));
            for arg in [
                Expr::field(0),
                Expr::field(1),
                Expr::field(2),
                Expr::field(1).mul(Expr::lit(2i64)),
                Expr::field(7),
            ] {
                outputs.push(GroupOutput::Agg(Aggregate {
                    func,
                    arg: Some(arg),
                }));
            }
        }
        outputs
    }

    #[test]
    fn hash_aggregate_matches_row_twin_on_every_key_shape() {
        let mut rows = mixed_rows();
        rows.extend([
            Record::new(vec![Value::Float(3.0), Value::Null, Value::str("a")]),
            Record::new(vec![Value::Int(3), Value::Float(f64::NAN), Value::Null]),
            rec![3i64, 0.0, "c"],
        ]);
        let chunk = Chunk::from_records(&rows).unwrap();
        for fields in [
            vec![0],
            vec![2],
            vec![1],
            vec![2, 0],
            vec![0, 1, 2],
            vec![5],
            vec![],
        ] {
            let key = KeyUdf::fields(fields.clone());
            let outputs = all_aggregates(&fields);
            let group = GroupMapUdf::from_aggs("aggs", outputs.clone());
            assert_eq!(
                hash_aggregate(&chunk, &fields, &outputs).to_records(),
                aggregate_by_rows(&rows, &key, &group),
                "key fields {fields:?}"
            );
        }
    }

    #[test]
    fn hash_aggregate_folds_typed_lanes_like_the_closure() {
        // Clean Int and Float lanes (the typed accumulators), wrapping
        // sums, 0.1-step float sums in row order, many groups.
        let rows: Vec<Record> = (0..5_000i64)
            .map(|i| {
                rec![
                    i % 37,
                    i64::MAX - i,
                    (i % 97) as f64 * 0.1,
                    format!("s{}", i % 11)
                ]
            })
            .collect();
        let chunk = Chunk::from_records(&rows).unwrap();
        for fields in [vec![0], vec![3], vec![3, 0], vec![]] {
            let outputs = all_aggregates(&fields);
            let group = GroupMapUdf::from_aggs("aggs", outputs.clone());
            assert_eq!(
                hash_aggregate(&chunk, &fields, &outputs).to_records(),
                aggregate_by_rows(&rows, &KeyUdf::fields(fields.clone()), &group),
                "key fields {fields:?}"
            );
        }
    }

    #[test]
    fn a_global_aggregate_answers_one_row_over_no_input() {
        let outputs = vec![
            GroupOutput::First(0),
            GroupOutput::Agg(Aggregate {
                func: AggFunc::Count,
                arg: None,
            }),
            GroupOutput::Agg(Aggregate {
                func: AggFunc::Sum,
                arg: Some(Expr::field(0)),
            }),
        ];
        let empty = Chunk::from_records(&[]).unwrap();
        assert_eq!(
            hash_aggregate(&empty, &[], &outputs).to_records(),
            vec![Record::new(vec![Value::Null, Value::Int(0), Value::Null])]
        );
        // With a key there is no group, so there is no row.
        assert!(hash_aggregate(&empty, &[0], &outputs)
            .to_records()
            .is_empty());
    }

    #[test]
    fn sort_matches_row_twin_both_directions() {
        let rows = mixed_rows();
        let chunk = Chunk::from_records(&rows).unwrap();
        for key in [KeyUdf::field(0), KeyUdf::field(1)] {
            for desc in [false, true] {
                assert_eq!(
                    sort(&chunk, &key, desc).to_records(),
                    kernels::sort(&rows, &key, desc)
                );
            }
        }
    }

    #[test]
    fn joins_match_row_twins() {
        let left: Vec<Record> = (0..30i64).map(|i| rec![i % 5, i]).collect();
        let right: Vec<Record> = (0..20i64).map(|i| rec![i % 7, i * 10]).collect();
        let lc = Chunk::from_records(&left).unwrap();
        let rc = Chunk::from_records(&right).unwrap();
        let lk = KeyUdf::field(0);
        let rk = KeyUdf::field(0);
        assert_eq!(
            hash_join(&lc, &rc, &lk, &rk).to_records(),
            kernels::hash_join(&left, &right, &lk, &rk)
        );
    }

    #[test]
    fn joins_with_mixed_key_types_match_row_twins() {
        let left = vec![rec![1i64, "l"], rec![1.0, "lf"]];
        let right = vec![rec![1i64, "r"], rec![1.0, "rf"]];
        let lc = Chunk::from_records(&left).unwrap();
        let rc = Chunk::from_records(&right).unwrap();
        let lk = KeyUdf::field(0);
        let rk = KeyUdf::field(0);
        // Int(1) joins Int(1) only, Float(1.0) joins Float(1.0) only.
        let out = hash_join(&lc, &rc, &lk, &rk).to_records();
        assert_eq!(out, kernels::hash_join(&left, &right, &lk, &rk));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn stage_chain_matches_row_reference() {
        let rows: Vec<Record> = (0..200i64).map(|i| rec![i, i * 3, "x"]).collect();
        let stages = vec![
            PipelineStage {
                name: "f".into(),
                kind: StageKind::Filter {
                    expr: Arc::new(Expr::field(0).rem(Expr::lit(3i64)).eq(Expr::lit(0i64))),
                    selectivity: 0.33,
                },
            },
            PipelineStage {
                name: "m".into(),
                kind: StageKind::Map {
                    exprs: vec![
                        Expr::field(1).add(Expr::lit(1i64)),
                        Expr::field(0),
                        Expr::field(2),
                    ]
                    .into(),
                },
            },
            PipelineStage {
                name: "p".into(),
                kind: StageKind::Project {
                    indices: vec![0usize, 2].into(),
                },
            },
        ];
        let chunk = Chunk::from_records(&rows).unwrap();
        let chunked = run_pipeline_chunk(&chunk, &stages).unwrap().to_records();
        let by_rows = run_stages_rows(&rows, &stages).unwrap();
        assert_eq!(chunked, by_rows);
        assert!(chunked.iter().all(|r| r.width() == 2));
    }
}
