//! One wire encoding, two sources: a result's chunk view must leave as
//! exactly the frame its row view encodes to (`Response::Rows{..}.encode()`
//! behind its length prefix is the reference), over generated dirty chunks — NULLs behind validity
//! bitmaps, mixed-type columns, NaN payloads, signed zeros, empty and
//! non-ASCII strings, dictionaries with unused entries, windows with an
//! offset, no rows, no columns — and the decoder must give the rows back.
//! A result larger than a frame is an error its session answers and
//! survives. Decoder cases a hostile or merely large frame raises sit at the
//! end.

use proptest::prelude::*;
use rheem_core::{Chunk, DataType, Dataset, Record, Schema, Value};
use rheem_server::protocol::{write_frame, Response, ResultFrame, ResultPath, WireError};
use rheem_server::{Client, RheemServer, ServerConfig};
use testkit::{dirty_table, Rng};

fn schema(width: usize) -> Schema {
    Schema::new(
        (0..width)
            .map(|c| (format!("c{c}"), DataType::Int))
            .collect(),
    )
}

/// `data` must leave by `path` as the frame of the reference encoding of
/// its rows, and its body must decode to the rows again.
fn assert_encodes_like_its_rows(data: &Dataset, width: usize, path: ResultPath) {
    let schema = schema(width);
    let frame = ResultFrame::new(&schema, data).expect("fits a frame");
    assert_eq!(frame.path(), path);
    let mut bytes = Vec::new();
    frame.write(&mut bytes).expect("written");
    let reference = Response::Rows {
        schema,
        rows: data.records().to_vec(),
    };
    let mut framed = Vec::new();
    write_frame(&mut framed, &reference.encode()).expect("framed");
    assert_eq!(bytes, framed);
    assert_eq!(Response::decode(&bytes[4..]).expect("decodes"), reference);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_chunk_encodes_to_the_bytes_of_its_rows(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (rows, width) = (rng.below(40), rng.below(6));
        let records = dirty_table(&mut rng, rows, width);
        let chunk = Chunk::from_records(&records).expect("rectangular");
        // `from_records` of no rows has no columns either.
        let width = chunk.columns().len();

        // As built.
        let whole = Dataset::from_chunk(chunk.clone());
        assert_encodes_like_its_rows(&whole, width, ResultPath::Columnar);
        // After a filter: gathered rows share the dictionary, most of whose
        // entries may now be unused.
        let kept: Vec<usize> = (0..rows).filter(|_| rng.below(3) == 0).collect();
        let filtered = Dataset::from_chunk(chunk.gather(&kept));
        assert_encodes_like_its_rows(&filtered, width, ResultPath::Columnar);
        // A window with a non-zero offset, as a chunk slice and as a
        // dataset window that slices lazily.
        if rows > 1 {
            let offset = 1 + rng.below(rows - 1);
            let len = rng.below(rows - offset + 1);
            let sliced = Dataset::from_chunk(chunk.slice(offset, len));
            assert_encodes_like_its_rows(&sliced, width, ResultPath::Columnar);
            assert_encodes_like_its_rows(&whole.slice(offset, len), width, ResultPath::Columnar);
        }
        // Row-built results leave by the row walk, and are not converted.
        let row_built = Dataset::new(records);
        assert_encodes_like_its_rows(&row_built, width, ResultPath::Row);
        prop_assert!(!row_built.has_chunk());
    }
}

#[test]
fn rows_without_columns_and_columns_without_rows() {
    let no_columns = Chunk::from_records(&vec![Record::empty(); 3]).expect("rectangular");
    assert_eq!((no_columns.rows(), no_columns.columns().len()), (3, 0));
    assert_encodes_like_its_rows(&Dataset::from_chunk(no_columns), 0, ResultPath::Columnar);
    let records = vec![Record::new(vec![Value::Int(1), Value::str("x")])];
    let no_rows = Chunk::from_records(&records).unwrap().slice(1, 0);
    assert_eq!((no_rows.rows(), no_rows.columns().len()), (0, 2));
    assert_encodes_like_its_rows(&Dataset::from_chunk(no_rows), 2, ResultPath::Columnar);
}

#[test]
fn ragged_rows_fall_back_to_the_row_walk() {
    let ragged = Dataset::new(vec![
        Record::new(vec![Value::Int(1), Value::str("x")]),
        Record::new(vec![Value::Null]),
        Record::empty(),
    ]);
    assert_encodes_like_its_rows(&ragged, 2, ResultPath::Row);
    // Asking for the chunk (there is none) does not change the path.
    assert!(ragged.chunk().is_none());
    assert_encodes_like_its_rows(&ragged, 2, ResultPath::Row);
}

#[test]
fn a_result_larger_than_a_frame_is_an_error_and_the_session_goes_on() {
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "large").expect("connect");
    let table: Vec<Record> = (0..700)
        .map(|i| Record::new(vec![Value::Int(0), Value::Int(i)]))
        .collect();
    for name in ["a", "b"] {
        let schema = Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]);
        client
            .register(name, schema, table.clone())
            .expect("register");
    }
    // One key on both sides: 490 000 rows of four ints, 40 B each on the
    // wire, about 19.6 MB against a 16 MiB frame.
    let refused = client.query("SELECT * FROM a JOIN b ON a.k = b.k");
    match &refused {
        Err(error @ WireError::Server(m)) => {
            assert!(m.contains("490000 rows") && m.contains("MAX_FRAME"), "{m}");
            // The server's message is shown verbatim.
            assert!(error.to_string().contains(m.as_str()), "{error}");
        }
        other => panic!("an oversized result answered {other:?}"),
    }
    // The same client's next query is answered.
    let (_, rows) = client
        .query("SELECT COUNT(*) AS n FROM a")
        .expect("the session answers after the refusal");
    assert_eq!(rows, vec![Record::new(vec![Value::Int(700)])]);
    client.goodbye().expect("goodbye");
    server.shutdown();
}

fn rows_frame(rows: Vec<Record>) -> Vec<u8> {
    Response::Rows {
        schema: schema(1),
        rows,
    }
    .encode()
}

#[test]
fn invalid_utf8_in_a_string_value_is_malformed() {
    let mut bytes = rows_frame(vec![Record::new(vec![Value::str("ab")]); 2]);
    let n = bytes.len();
    // The last value's two bytes: no UTF-8 sequence starts with 0xFF.
    bytes[n - 2..].copy_from_slice(&[0xFF, 0xFE]);
    assert!(matches!(
        Response::decode(&bytes),
        Err(WireError::Malformed(m)) if m.contains("UTF-8")
    ));
}

#[test]
fn a_row_count_the_frame_cannot_hold_is_malformed_not_an_allocation() {
    let bytes = rows_frame(vec![Record::new(vec![Value::Int(1)])]);
    // Opcode, schema of one column `c0` (count, name, dtype), row count.
    let count_at = 1 + 4 + (4 + 2) + 1;
    assert_eq!(bytes[count_at..count_at + 4], 1u32.to_be_bytes());
    let mut hostile = bytes.clone();
    hostile[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    // Sizing from the declared count would ask for ~100 GB and abort.
    assert!(matches!(
        Response::decode(&hostile),
        Err(WireError::Malformed(_))
    ));
    // Likewise a row declaring more values than the frame has bytes.
    let mut hostile = bytes;
    hostile[count_at + 4..count_at + 8].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(
        Response::decode(&hostile),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn more_distinct_strings_than_the_string_table_holds_still_decode() {
    // 4 000 distinct strings, each twice and far apart, so most repeats
    // find their slot taken by another string.
    let rows: Vec<Record> = (0..8_000)
        .map(|i| Record::new(vec![Value::str(format!("value-{}", i % 4_000))]))
        .collect();
    let reference = Response::Rows {
        schema: schema(1),
        rows,
    };
    assert_eq!(Response::decode(&reference.encode()).unwrap(), reference);
}
