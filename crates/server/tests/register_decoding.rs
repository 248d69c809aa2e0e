//! One row grammar, two sinks: a session decodes a `REGISTER` frame straight
//! into column builders ([`Registration::decode`]), everyone else decodes it
//! into rows ([`Request::decode`]). Over generated dirty tables — NULLs in
//! every position, all-NULL columns, NaN payloads, signed zeros, empty and
//! non-ASCII strings, a schema-`Int` column carrying a `Float`, `Bool`
//! columns, no rows, no columns, rows of no width — the column sink must
//! yield the chunk `Chunk::from_records` builds from the row sink's rows:
//! same lane per column, same NULL lanes, same dictionary order, same values
//! bit for bit. A frame without a columnar layout registers rows. And over
//! every truncation and random corruption of a valid frame the two sinks
//! must reach the same verdict, with the same message, without a panic.

use proptest::prelude::*;
use rheem_core::{Chunk, Column, DataType, Record, Schema, Value};
use rheem_server::protocol::{encode_rows, Registration, Request, WireError};
use testkit::{dirty_table, Rng};

/// The `REGISTER` frame a client sends for `rows`; the schema says `Int`
/// throughout, as no decoder reads it.
fn register_frame(width: usize, rows: Vec<Record>) -> Vec<u8> {
    Request::Register {
        name: "t".into(),
        schema: Schema::new(
            (0..width)
                .map(|c| (format!("c{c}"), DataType::Int))
                .collect(),
        ),
        rows,
    }
    .encode()
}

/// Everything a reader of `column` can tell about how it is laid out: which
/// lane it has, the lane's content under NULLs included (floats by their
/// bits), the dictionary in its order, and whether any row is NULL.
fn layout(column: &Column) -> String {
    let lane = if let Some(lane) = column.ints() {
        format!("Int{lane:?}")
    } else if let Some(lane) = column.floats() {
        format!(
            "Float{:?}",
            lane.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        )
    } else if let Some(lane) = column.bools() {
        format!("Bool{lane:?}")
    } else if let Some((dict, codes)) = column.dict_codes() {
        format!("Str{dict:?}{codes:?}")
    } else {
        "Mixed".to_string()
    };
    format!("{lane} no_nulls={}", column.no_nulls())
}

/// The column sink's table for `frame` must be the chunk of the row sink's
/// rows, or those rows when they have no chunk.
fn assert_registers_what_the_rows_convert_to(frame: &[u8]) {
    let Ok(Request::Register { name, schema, rows }) = Request::decode(frame) else {
        panic!("not a valid REGISTER frame");
    };
    let table = Registration::decode(frame)
        .expect("the column sink takes what the row sink takes")
        .expect("a REGISTER frame");
    assert_eq!((&table.name, &table.schema), (&name, &schema));
    assert_eq!(table.data.len(), rows.len());
    match Chunk::from_records(&rows) {
        Some(reference) => {
            assert!(table.data.has_chunk(), "a rectangular frame built rows");
            let chunk = table.data.chunk().expect("has a chunk");
            assert_eq!(
                (chunk.rows(), chunk.width()),
                (reference.rows(), reference.width())
            );
            for (built, expected) in chunk.columns().iter().zip(reference.columns()) {
                assert_eq!(layout(built), layout(expected));
            }
            // Through the wire encoding, so NaN payload bits count.
            assert_eq!(encode_rows(&chunk.to_records()), encode_rows(&rows));
        }
        None => {
            assert!(!table.data.has_chunk(), "a ragged frame built a chunk");
            assert_eq!(encode_rows(table.data.records()), encode_rows(&rows));
        }
    }
}

/// Both decoders must say the same about `frame`: the same table, or the
/// same refusal.
fn assert_one_verdict(frame: &[u8]) {
    match (Request::decode(frame), Registration::decode(frame)) {
        (Ok(Request::Register { .. }), Ok(Some(_))) => {
            assert_registers_what_the_rows_convert_to(frame)
        }
        (Err(WireError::Malformed(rows)), Err(WireError::Malformed(columns))) => {
            assert_eq!(rows, columns)
        }
        // The opcode itself was hit: no longer a REGISTER, whatever else.
        (_, Ok(None)) => assert_ne!(frame.first(), Some(&0x02)),
        (rows, columns) => panic!(
            "the sinks disagree: rows {:?}, columns {:?}",
            rows.map(|_| "decoded"),
            columns.map(|t| t.map(|_| "decoded"))
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn the_column_sink_builds_the_chunk_of_the_row_sinks_rows(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (rows, width) = (rng.below(40), rng.below(6));
        let mut records = dirty_table(&mut rng, rows, width);
        assert_registers_what_the_rows_convert_to(&register_frame(width, records.clone()));
        // Ragged: one row loses a field, or gains one.
        if rows > 1 {
            let mut fields = records[rng.below(rows)].clone().into_fields();
            if fields.pop().is_none() {
                fields.push(Value::Int(1));
            }
            let at = rng.below(rows);
            records[at] = Record::new(fields);
            let frame = register_frame(width, records);
            assert_registers_what_the_rows_convert_to(&frame);
            let table = Registration::decode(&frame).unwrap().unwrap();
            prop_assert!(!table.data.has_chunk());
        }
    }

    #[test]
    fn truncated_and_corrupted_frames_get_one_verdict_and_no_panic(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (rows, width) = (rng.below(12), rng.below(5));
        let records = dirty_table(&mut rng, rows, width);
        // The frame ends in its rows, encoded as `encode_rows` encodes them.
        let rows_at = register_frame(width, vec![]).len() - 4;
        let frame = register_frame(width, records);
        for cut in 0..frame.len() {
            let short = &frame[..cut];
            assert_one_verdict(short);
            // A cut frame is never valid: the decoders demand every byte.
            prop_assert!(Request::decode(short).is_err());
        }
        for _ in 0..64 {
            let mut hit = frame.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(hit.len());
                hit[at] ^= 1 << rng.below(8);
            }
            assert_one_verdict(&hit);
        }
        // Counts the frame cannot hold: of rows, and of a row's values.
        for at in [rows_at, rows_at + 4] {
            if at + 4 <= frame.len() {
                let mut hostile = frame.clone();
                hostile[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
                assert_one_verdict(&hostile);
                prop_assert!(Registration::decode(&hostile).is_err());
            }
        }
    }
}

#[test]
fn tables_without_rows_without_columns_and_without_either() {
    for (width, rows) in [
        (0, vec![]),
        (3, vec![]),
        (0, vec![Record::empty(); 5]),
        (2, vec![Record::new(vec![Value::Null, Value::Null])]),
    ] {
        let count = rows.len();
        let frame = register_frame(width, rows);
        assert_registers_what_the_rows_convert_to(&frame);
        let table = Registration::decode(&frame).unwrap().unwrap();
        assert!(table.data.has_chunk());
        assert_eq!(table.data.len(), count);
    }
}

#[test]
fn more_distinct_strings_than_any_table_of_the_decoder_holds() {
    // 300 and 5 000 distinct strings, each twice and far apart: past the
    // row sink's 256-slot string table either way, and a dictionary whose
    // order is the order of first appearance.
    for distinct in [300, 5_000] {
        let rows: Vec<Record> = (0..2 * distinct)
            .map(|i| {
                Record::new(vec![
                    Value::str(format!("value-{}", (i * 7) % distinct)),
                    Value::Int(i as i64),
                ])
            })
            .collect();
        let frame = register_frame(2, rows);
        assert_registers_what_the_rows_convert_to(&frame);
        let table = Registration::decode(&frame).unwrap().unwrap();
        let (dict, _) = table.data.chunk().unwrap().columns()[0]
            .dict_codes()
            .expect("a dictionary");
        assert_eq!(dict.len(), distinct);
        assert_eq!((&*dict[0], &*dict[1]), ("value-0", "value-7"));
    }
}

#[test]
fn a_frame_wider_than_the_column_sink_takes_registers_rows() {
    // One row of 5 000 NULLs: a column costs far more than a NULL does.
    let frame = register_frame(0, vec![Record::new(vec![Value::Null; 5_000])]);
    let table = Registration::decode(&frame).unwrap().unwrap();
    assert!(!table.data.has_chunk());
    assert_eq!(table.data.records()[0].width(), 5_000);
    let frame = register_frame(0, vec![Record::new(vec![Value::Null; 4_096])]);
    assert_registers_what_the_rows_convert_to(&frame);
}

#[test]
fn invalid_utf8_is_refused_by_both_sinks_wherever_it_sits() {
    let rows = vec![Record::new(vec![Value::str("ab"), Value::Int(1)]); 3];
    let frame = register_frame(2, rows);
    // Each "ab" in turn: the first is new to both sinks' string tables, the
    // later ones repeat a string both have already checked.
    let at: Vec<usize> = (0..frame.len() - 1)
        .filter(|&i| &frame[i..i + 2] == b"ab")
        .collect();
    assert_eq!(at.len(), 3);
    for i in at {
        let mut bad = frame.clone();
        bad[i..i + 2].copy_from_slice(&[0xFF, 0xFE]);
        assert_one_verdict(&bad);
        assert!(matches!(
            Registration::decode(&bad),
            Err(WireError::Malformed(m)) if m.contains("UTF-8")
        ));
    }
}
