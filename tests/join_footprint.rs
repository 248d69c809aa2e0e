//! What a chunk hash join costs in heap, counted rather than read off RSS.
//! The shape is the benchmark's served join, `orders JOIN customers ON
//! orders.cust = customers.id`, over the lanes the statement binds: 200 000
//! `(amount, cust)` probe rows against 1 000 `(id, seg)` build rows with
//! unique ids.
//!
//! The join copies only what it cannot share. Every probe row matching one
//! build row, in order, the probe side passes through and its key lane
//! stands for the build key as well, so the join allocates the right
//! selection (8 B/row) and the gathered `seg` codes (4 B/row), and keeps
//! the codes. Gathering every lane of both sides through two selections
//! took 44 B/row at the peak and kept 28. One probe row that misses brings
//! back the left selection and the left lanes' gather, within that bound.
//!
//! A counting global allocator tracks the process's live heap bytes and
//! their high-water mark.

use std::sync::Mutex;

use rheem_core::kernels::chunked;
use rheem_core::udf::KeyUdf;
use rheem_core::{Chunk, ColumnBuilder, Value};
use testkit::{live_bytes, peak_bytes, reset_peak, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `live_bytes` is process-wide: the tests of this file take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const ROWS: usize = 200_000;
const CUSTOMERS: i64 = 1_000;

/// `(amount, cust)`: every `cust` a customer's id, but at row `miss`.
fn orders(miss: Option<usize>) -> Chunk {
    let (mut amount, mut cust) = (
        ColumnBuilder::with_capacity(ROWS),
        ColumnBuilder::with_capacity(ROWS),
    );
    for i in 0..ROWS {
        amount.push_int(i as i64);
        cust.push_int(if Some(i) == miss {
            CUSTOMERS
        } else {
            i as i64 * 7 % CUSTOMERS
        });
    }
    Chunk::new(vec![amount.finish(), cust.finish()], ROWS)
}

/// `(id, seg)`: ids `0..1000`, four segments as dictionary strings.
fn customers() -> Chunk {
    let rows = CUSTOMERS as usize;
    let (mut id, mut seg) = (
        ColumnBuilder::with_capacity(rows),
        ColumnBuilder::with_capacity(rows),
    );
    for i in 0..CUSTOMERS {
        id.push_int(i);
        seg.push_str(["consumer", "corporate", "public", "smb"][(i % 4) as usize]);
    }
    Chunk::new(vec![id.finish(), seg.finish()], rows)
}

/// The join's peak above what was live before it and what its output
/// holds, both in bytes per probe row, and the output.
fn counted_join(orders: &Chunk, customers: &Chunk) -> (f64, f64, Chunk) {
    let (cust, id) = (KeyUdf::field(1), KeyUdf::field(0));
    let before = live_bytes();
    reset_peak();
    let out = chunked::hash_join(orders, customers, &cust, &id);
    let per_row = |bytes: isize| (bytes - before) as f64 / ROWS as f64;
    (per_row(peak_bytes()), per_row(live_bytes()), out)
}

/// Every output row's `id` is its `cust`.
fn assert_keys_agree(out: &Chunk) {
    let columns = out.columns();
    assert_eq!(columns.len(), 4);
    for i in (0..out.rows()).step_by(997) {
        assert_eq!(columns[1].value(i), columns[2].value(i), "row {i}");
        assert!(matches!(columns[3].value(i), Value::Str(_)), "row {i}");
    }
}

#[test]
fn a_fully_matched_unique_key_join_copies_only_the_build_payload() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner());
    let (orders, customers) = (orders(None), customers());
    let (peak, kept, out) = counted_join(&orders, &customers);
    assert_eq!(out.rows(), ROWS);
    assert_keys_agree(&out);
    assert!(peak <= 13.0, "{peak:.1} B/row at the join's peak");
    assert!(kept <= 5.0, "{kept:.1} B/row held by the join's output");
}

#[test]
fn a_probe_row_that_misses_brings_back_the_left_gather() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner());
    let (orders, customers) = (orders(Some(ROWS / 2)), customers());
    let (peak, kept, out) = counted_join(&orders, &customers);
    assert_eq!(out.rows(), ROWS - 1);
    assert_keys_agree(&out);
    // The two 8 B left lanes are gathered again; the build key still is not.
    assert!(peak <= 44.0, "{peak:.1} B/row at the join's peak");
    assert!(
        (16.0..=28.0).contains(&kept),
        "{kept:.1} B/row held by the join's output"
    );
}
