//! The correctness gate: every response is digested and compared with an
//! in-process reference run of the same statement forced to the `java`
//! platform, and some statements are checked against closed forms of the
//! generator.

use rheem_core::query::QueryCatalog;
use rheem_core::{Record, Value};
use rheem_server::protocol::encode_rows;

use crate::workload::{self, ClosedForm, Statement, Tables};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The byte ranges of the single rows inside `encode_rows`' output (`u32`
/// row count, then per row a `u32` width and tagged values), or `None` if
/// the bytes do not parse that way.
fn row_slices(encoded: &[u8]) -> Option<Vec<&[u8]>> {
    let u32_at = |at: usize| {
        let bytes = encoded.get(at..at + 4)?;
        Some(u32::from_be_bytes(bytes.try_into().ok()?) as usize)
    };
    let mut rows = Vec::with_capacity(u32_at(0)?.min(encoded.len()));
    let mut pos = 4;
    for _ in 0..u32_at(0)? {
        let start = pos;
        let width = u32_at(pos)?;
        pos += 4;
        for _ in 0..width {
            pos += 1 + match encoded.get(pos)? {
                0 => 0,
                1 => 1,
                2 | 3 => 8,
                4 => 4 + u32_at(pos + 1)?,
                _ => return None,
            };
        }
        rows.push(encoded.get(start..pos)?);
    }
    (pos == encoded.len()).then_some(rows)
}

/// Digest of a result over its canonical wire encoding. Where row order is
/// not part of the answer, rows are digested one by one and the digests
/// sorted, so any permutation of the same multiset digests equally.
pub fn digest(rows: &[Record], ordered: bool) -> u64 {
    let encoded = encode_rows(rows);
    if ordered {
        return fnv1a(&encoded);
    }
    // Slicing one encoding is ~10x cheaper than encoding row by row, which
    // matters inside the closed loop on 100 k-row results; the slow way
    // stays as the fallback should the encoding ever change shape.
    let mut per_row: Vec<u64> = match row_slices(&encoded) {
        Some(slices) => slices.into_iter().map(fnv1a).collect(),
        None => rows
            .iter()
            .map(|r| fnv1a(&encode_rows(std::slice::from_ref(r))[4..]))
            .collect(),
    };
    per_row.sort_unstable();
    let bytes: Vec<u8> = per_row.iter().flat_map(|d| d.to_be_bytes()).collect();
    fnv1a(&bytes)
}

/// The catalog the server-side session builds from the same REGISTERs.
pub fn catalog(tables: &Tables) -> QueryCatalog {
    let mut catalog = QueryCatalog::new();
    catalog.register("orders", workload::orders_schema(), tables.orders.clone());
    catalog.register(
        "customers",
        workload::customers_schema(),
        tables.customers.clone(),
    );
    catalog
}

/// What every response to one statement must digest to.
pub struct Expected {
    pub digest: u64,
    pub rows: usize,
}

/// Run every statement in-process on the `java` platform and check the
/// closed forms on those reference results.
pub fn reference(tables: &Tables, statements: &[Statement]) -> Result<Vec<Expected>, String> {
    let catalog = catalog(tables);
    let ctx = rheem_platforms::full_context().force_platform("java");
    statements
        .iter()
        .map(|st| {
            let result = catalog
                .execute(&ctx, st.sql)
                .map_err(|e| format!("reference run of `{}` failed: {e}", st.sql))?;
            let rows = result.rows.records();
            check_closed_form(st, rows, tables.orders.len())?;
            Ok(Expected {
                digest: digest(rows, st.ordered),
                rows: rows.len(),
            })
        })
        .collect()
}

/// `Ok(())` when the response matches the reference digest and row count.
pub fn check(st: &Statement, expected: &Expected, rows: &[Record]) -> Result<(), String> {
    if rows.len() != expected.rows {
        return Err(format!(
            "`{}` returned {} rows, reference has {}",
            st.sql,
            rows.len(),
            expected.rows
        ));
    }
    let got = digest(rows, st.ordered);
    if got != expected.digest {
        return Err(format!(
            "`{}` digest {got:016x} differs from reference {:016x}",
            st.sql, expected.digest
        ));
    }
    Ok(())
}

fn column_sum(rows: &[Record], column: usize) -> Result<i64, String> {
    rows.iter().try_fold(0i64, |acc, r| match r.get(column) {
        Ok(Value::Int(v)) => Ok(acc + v),
        other => Err(format!("column {column} is not an Int: {other:?}")),
    })
}

pub fn check_closed_form(st: &Statement, rows: &[Record], n: usize) -> Result<(), String> {
    let n = n as i64;
    let triangle = n * (n - 1) / 2;
    let (count, sum) = match st.closed_form {
        None => return Ok(()),
        Some(ClosedForm::GroupTotals { count, sum }) => {
            (column_sum(rows, count)?, column_sum(rows, sum)?)
        }
        Some(ClosedForm::FullTable { amount }) => (rows.len() as i64, column_sum(rows, amount)?),
    };
    if count != n || sum != triangle {
        return Err(format!(
            "`{}` breaks the generator's closed form: COUNT {count} (want {n}), \
             SUM(amount) {sum} (want {triangle})",
            st.sql
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Tables, FIVE, WIDE, WORKLOADS};

    #[test]
    fn digests_are_stable_and_order_aware() {
        // Pinned values: a change to the wire encoding or to the generator
        // must show up here, not as a silent change of every baseline.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let rows = workload::orders(7, 64);
        assert_eq!(digest(&rows, true), digest(&workload::orders(7, 64), true));
        assert_ne!(digest(&rows, true), digest(&workload::orders(8, 64), true));

        let mut reversed = rows.clone();
        reversed.reverse();
        assert_ne!(digest(&rows, true), digest(&reversed, true));
        assert_eq!(digest(&rows, false), digest(&reversed, false));
        // Slicing the one encoding agrees with encoding row by row.
        let encoded = encode_rows(&rows);
        let slices = row_slices(&encoded).expect("the encoding parses");
        assert_eq!(slices.len(), rows.len());
        assert_eq!(slices[3], &encode_rows(&rows[3..4])[4..]);
        assert_eq!(row_slices(&encoded[..encoded.len() - 1]), None);
        // A multiset, not a set: dropping one of two equal rows must show.
        let twice = vec![rows[0].clone(), rows[0].clone()];
        assert_ne!(digest(&twice, false), digest(&twice[..1], false));
    }

    #[test]
    fn reference_results_satisfy_the_closed_forms() {
        let tables = Tables::generate(&WORKLOADS[0], 3, 0, false);
        for statements in [FIVE, WIDE] {
            let expected = reference(&tables, statements).expect("reference runs");
            assert!(expected.iter().all(|e| e.rows > 0));
        }
        // A wrong answer is caught: drop one group from statement 0.
        let catalog = catalog(&tables);
        let ctx = rheem_platforms::full_context().force_platform("java");
        let rows = catalog.execute(&ctx, FIVE[0].sql).unwrap().rows;
        let rows = rows.records();
        assert!(check_closed_form(&FIVE[0], rows, 1000).is_ok());
        assert!(check_closed_form(&FIVE[0], &rows[1..], 1000).is_err());
    }
}
