//! Every boundary the shipped platforms can cross, priced: for each ordered
//! pair of `full_context()` platforms under the default, the free and a
//! custom movement model, the channel path a route takes and its total
//! price at 0, 1 000 and 200 000 records, through both `route` and the
//! allocation-free `price` the optimizer's edge table reads. The literals
//! are the prices the optimizer has always charged; a change to how a
//! boundary is priced must leave every one of them exactly as it is.

use rheem_core::ChannelKind::{self, File, Memory};
use rheem_core::MovementCostModel;

/// `(producer, consumer, path, [total at 0, 1 000, 200 000 records])`.
type Row = (&'static str, &'static str, &'static [ChannelKind], [f64; 3]);

const RECORDS: [f64; 3] = [0.0, 1_000.0, 200_000.0];

const DEFAULT: &[Row] = &[
    ("java", "java", &[Memory], [1.0, 2.0, 201.0]),
    ("java", "sparklike", &[Memory], [1.0, 2.0, 201.0]),
    ("java", "mapreduce", &[Memory, File], [1.5, 4.5, 601.5]),
    ("java", "relational", &[Memory], [1.0, 2.0, 201.0]),
    ("sparklike", "java", &[Memory], [1.0, 2.0, 201.0]),
    ("sparklike", "sparklike", &[Memory], [1.0, 2.0, 201.0]),
    ("sparklike", "mapreduce", &[Memory, File], [1.5, 4.5, 601.5]),
    ("sparklike", "relational", &[Memory], [1.0, 2.0, 201.0]),
    ("mapreduce", "java", &[File, Memory], [1.5, 4.5, 601.5]),
    ("mapreduce", "sparklike", &[File, Memory], [1.5, 4.5, 601.5]),
    ("mapreduce", "mapreduce", &[File], [1.0, 2.0, 201.0]),
    ("mapreduce", "relational", &[File], [1.0, 2.0, 201.0]),
    ("relational", "java", &[Memory], [1.0, 2.0, 201.0]),
    ("relational", "sparklike", &[Memory], [1.0, 2.0, 201.0]),
    ("relational", "mapreduce", &[File], [1.0, 2.0, 201.0]),
    ("relational", "relational", &[Memory], [1.0, 2.0, 201.0]),
];

/// No conversion exists in a free model: a memory-only producer and a
/// file-only consumer meet on no path and pay the (zero) transport alone.
const FREE: &[Row] = &[
    ("java", "java", &[Memory], [0.0; 3]),
    ("java", "sparklike", &[Memory], [0.0; 3]),
    ("java", "mapreduce", &[], [0.0; 3]),
    ("java", "relational", &[Memory], [0.0; 3]),
    ("sparklike", "java", &[Memory], [0.0; 3]),
    ("sparklike", "sparklike", &[Memory], [0.0; 3]),
    ("sparklike", "mapreduce", &[], [0.0; 3]),
    ("sparklike", "relational", &[Memory], [0.0; 3]),
    ("mapreduce", "java", &[], [0.0; 3]),
    ("mapreduce", "sparklike", &[], [0.0; 3]),
    ("mapreduce", "mapreduce", &[File], [0.0; 3]),
    ("mapreduce", "relational", &[File], [0.0; 3]),
    ("relational", "java", &[Memory], [0.0; 3]),
    ("relational", "sparklike", &[Memory], [0.0; 3]),
    ("relational", "mapreduce", &[File], [0.0; 3]),
    ("relational", "relational", &[Memory], [0.0; 3]),
];

/// `MovementCostModel::new(5.0, 5e-3)`: a dearer transport over the
/// default conversions.
const CUSTOM: &[Row] = &[
    ("java", "java", &[Memory], [5.0, 10.0, 1005.0]),
    ("java", "sparklike", &[Memory], [5.0, 10.0, 1005.0]),
    ("java", "mapreduce", &[Memory, File], [5.5, 12.5, 1405.5]),
    ("java", "relational", &[Memory], [5.0, 10.0, 1005.0]),
    ("sparklike", "java", &[Memory], [5.0, 10.0, 1005.0]),
    ("sparklike", "sparklike", &[Memory], [5.0, 10.0, 1005.0]),
    (
        "sparklike",
        "mapreduce",
        &[Memory, File],
        [5.5, 12.5, 1405.5],
    ),
    ("sparklike", "relational", &[Memory], [5.0, 10.0, 1005.0]),
    ("mapreduce", "java", &[File, Memory], [5.5, 12.5, 1405.5]),
    (
        "mapreduce",
        "sparklike",
        &[File, Memory],
        [5.5, 12.5, 1405.5],
    ),
    ("mapreduce", "mapreduce", &[File], [5.0, 10.0, 1005.0]),
    ("mapreduce", "relational", &[File], [5.0, 10.0, 1005.0]),
    ("relational", "java", &[Memory], [5.0, 10.0, 1005.0]),
    ("relational", "sparklike", &[Memory], [5.0, 10.0, 1005.0]),
    ("relational", "mapreduce", &[File], [5.0, 10.0, 1005.0]),
    ("relational", "relational", &[Memory], [5.0, 10.0, 1005.0]),
];

#[test]
fn every_shipped_route_keeps_its_path_and_price() {
    let ctx = rheem_platforms::full_context();
    let platforms = ctx.platforms().all();
    let platform = |name: &str| {
        platforms
            .iter()
            .find(|p| p.name() == name)
            .unwrap_or_else(|| panic!("{name} is not a full_context() platform"))
    };
    for (model, rows) in [
        (MovementCostModel::default(), DEFAULT),
        (MovementCostModel::free(), FREE),
        (MovementCostModel::new(5.0, 5e-3), CUSTOM),
    ] {
        assert_eq!(rows.len(), platforms.len() * platforms.len());
        for &(from, to, path, totals) in rows {
            let (from, to) = (platform(from), platform(to));
            for (records, total) in RECORDS.into_iter().zip(totals) {
                let (out, into) = (from.clock().channels, to.clock().channels);
                let route = model.route(out, into, records);
                let at = format!("{} -> {} at {records} records", from.name(), to.name());
                assert_eq!(route.path, path, "{at}");
                assert_eq!(route.total_ms(), total, "{at}");
                assert_eq!(model.price(out, into, records), total, "{at}");
            }
        }
    }
}
