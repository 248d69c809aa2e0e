//! One row grammar, one `REGISTER` decoder: a session decodes a frame
//! straight into one column builder per schema column
//! ([`Registration::decode`]), and [`Request::decode`] hands back the rows of
//! the same chunk. Over generated dirty tables — NULLs in every position,
//! all-NULL columns, NaN payloads, signed zeros, empty and non-ASCII
//! strings, a schema-`Int` column carrying a `Float`, `Bool` columns, no
//! rows, no columns, rows of no width — the decoder must yield the chunk
//! `Chunk::from_records` builds from the table's rows: same lane per column,
//! same NULL lanes, same dictionary order, same values bit for bit. A table
//! is exactly as wide as its schema: a frame with a row narrower or wider
//! than the schema, or a schema past 4 096 columns, is refused by both
//! decoders with one message naming the row and both widths. And over every
//! truncation and random corruption of a valid frame the two decoders must
//! reach the same verdict, with the same message, without a panic.
//!
//! A session decodes a `REGISTER` as it arrives, through a window
//! ([`read_incoming`]): the same walk over a stream instead of a slice. Every
//! frame above also goes through that path, delivered in short reads with
//! read-timeout ticks between them, and must give the same table or the same
//! refusal as the slice; a frame the peer hangs up inside is refused as one.

use std::time::Duration;

use proptest::prelude::*;
use rheem_core::{Chunk, Column, DataType, Record, Schema, Value};
use rheem_server::protocol::{
    encode_rows, read_incoming, Incoming, Registration, Request, WireError, WireResult,
};
use testkit::{dirty_table, CutReader, Rng};

/// The `REGISTER` frame a client sends for `rows` under a schema of `width`
/// columns; the schema says `Int` throughout, as no decoder reads the types.
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

/// Everything a decode of a frame says, comparable across decodes: the
/// table's name, schema, lane layouts and values bit for bit — or the
/// refusal's message.
fn verdict(decoded: WireResult<Option<Registration>>) -> String {
    let table = match decoded {
        Ok(Some(table)) => table,
        Ok(None) => return "not a REGISTER".into(),
        Err(WireError::Malformed(m)) => return format!("malformed: {m}"),
        Err(other) => panic!("an in-memory decode answered {other}"),
    };
    let layouts: Vec<String> = table.data.columns().iter().map(layout).collect();
    format!(
        "{} {:?} {layouts:?} {:?}",
        table.name,
        table.schema,
        encode_rows(&table.data.to_records())
    )
}

/// What a session makes of `body` sent as a frame and cut off after `cut`
/// bytes of the stream (prefix included): short reads of 1 to 9 bytes, with
/// read-timeout ticks between them, then EOF.
fn streamed(body: &[u8], cut: usize, seed: u64) -> WireResult<Option<Registration>> {
    let mut stream = (body.len() as u32).to_be_bytes().to_vec();
    stream.extend_from_slice(body);
    let mut peer = CutReader::new(&stream, cut.min(stream.len()), seed);
    match read_incoming(&mut peer, Some(Duration::from_secs(60)))? {
        Incoming::Register { table, .. } => Ok(Some(table)),
        Incoming::Body { body: whole, .. } => {
            assert_eq!(whole, body, "a frame read whole is its body");
            Ok(None)
        }
        Incoming::Eof => {
            assert_eq!(cut, 0, "EOF after bytes");
            Ok(None)
        }
        Incoming::Idle => panic!("idle inside a 60 s timeout"),
    }
}

/// The stream path must agree with the slice: the whole frame gives the
/// slice's verdict, and a frame the peer hangs up inside is refused — with
/// the slice's message when the walk got to the fault first, else as cut.
fn assert_streams_as_it_decodes(body: &[u8], rng: &mut Rng, cuts: usize) {
    let whole = verdict(Registration::decode(body));
    let full = 4 + body.len();
    assert_eq!(verdict(streamed(body, full, rng.next())), whole);
    for _ in 0..cuts {
        let cut = 4 + rng.below(body.len().max(1));
        if cut >= full {
            continue;
        }
        let got = verdict(streamed(body, cut, rng.next()));
        assert!(
            got == "malformed: EOF inside frame body"
                || (got == whole && got.starts_with("malformed")),
            "cut at {cut} of {full}: {got}, whole: {whole}"
        );
    }
}

/// `frame`, made from `rows`, must register the chunk of those rows,
/// exactly as wide as its schema, and decode to those rows as a request.
fn assert_registers_its_rows(frame: &[u8], rows: &[Record]) {
    let table = Registration::decode(frame)
        .expect("a schema-wide frame decodes")
        .expect("a REGISTER frame");
    let chunk = &table.data;
    assert_eq!(
        (chunk.rows(), chunk.columns().len()),
        (rows.len(), table.schema.fields().len())
    );
    // A table with no rows has no lanes to compare.
    if !rows.is_empty() {
        let reference = Chunk::from_records(rows).expect("rows as wide as their schema");
        for (built, expected) in chunk.columns().iter().zip(reference.columns()) {
            assert_eq!(layout(built), layout(expected));
        }
    }
    // Through the wire encoding, so NaN payload bits count.
    assert_eq!(encode_rows(&chunk.to_records()), encode_rows(rows));
    let Ok(Request::Register {
        name,
        schema,
        rows: decoded,
    }) = Request::decode(frame)
    else {
        panic!("not a valid REGISTER frame");
    };
    assert_eq!((&table.name, &table.schema), (&name, &schema));
    assert_eq!(encode_rows(&decoded), encode_rows(rows));
}

/// Both decoders must refuse `frame` with `refusal`, on a slice and on a
/// stream.
fn assert_refused(frame: &[u8], refusal: &str, rng: &mut Rng) {
    let message = |decoded: WireResult<_>| match decoded {
        Err(WireError::Malformed(m)) => m,
        Ok(_) => panic!("decoded a frame that should be refused with `{refusal}`"),
        Err(other) => panic!("an in-memory decode answered {other}"),
    };
    assert_eq!(message(Registration::decode(frame).map(|_| ())), refusal);
    assert_eq!(message(Request::decode(frame).map(|_| ())), refusal);
    assert_streams_as_it_decodes(frame, rng, 3);
}

/// Both decoders must say the same about `frame`: the same table, or the
/// same refusal.
fn assert_one_verdict(frame: &[u8]) {
    match (Request::decode(frame), Registration::decode(frame)) {
        (Ok(Request::Register { name, schema, rows }), Ok(Some(table))) => {
            assert_eq!((name, schema), (table.name, table.schema));
            assert_eq!(encode_rows(&rows), encode_rows(&table.data.to_records()));
        }
        (Err(WireError::Malformed(rows)), Err(WireError::Malformed(columns))) => {
            assert_eq!(rows, columns)
        }
        // The opcode itself was hit: no longer a REGISTER, whatever else.
        (_, Ok(None)) => assert_ne!(frame.first(), Some(&0x02)),
        (rows, columns) => panic!(
            "the decoders disagree: request {:?}, registration {:?}",
            rows.map(|_| "decoded"),
            columns.map(|t| t.map(|_| "decoded"))
        ),
    }
}

/// The refusal of row `row`, `width` values wide, under `columns` columns.
fn not_schema_wide(row: usize, width: usize, columns: usize) -> String {
    format!("REGISTER row {row} has {width} values under a schema of {columns} columns")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn the_decoder_builds_the_chunk_of_the_rows(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (rows, width) = (rng.below(40), rng.below(6));
        let mut records = dirty_table(&mut rng, rows, width);
        let frame = register_frame(width, records.clone());
        assert_registers_its_rows(&frame, &records);
        assert_streams_as_it_decodes(&frame, &mut rng, 8);
        if rows > 0 {
            // Rectangular, but narrower or wider than the schema: refused
            // at the first row.
            assert_refused(
                &register_frame(width + 1, records.clone()),
                &not_schema_wide(0, width, width + 1),
                &mut rng,
            );
            if width > 0 {
                assert_refused(
                    &register_frame(width - 1, records.clone()),
                    &not_schema_wide(0, width, width - 1),
                    &mut rng,
                );
            }
        }
        // Ragged: one row loses a field, or gains one, and is refused.
        if rows > 1 {
            let mut fields = records[rng.below(rows)].fields().to_vec();
            if fields.pop().is_none() {
                fields.push(Value::Int(1));
            }
            let (at, short) = (rng.below(rows), fields.len());
            records[at] = Record::new(fields);
            let frame = register_frame(width, records);
            assert_refused(&frame, &not_schema_wide(at, short, width), &mut rng);
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
            // Sent as a frame of its own, it streams to the same verdict.
            let streamed = verdict(streamed(short, 4 + cut, rng.next()));
            prop_assert_eq!(streamed, verdict(Registration::decode(short)));
        }
        for _ in 0..64 {
            let mut hit = frame.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(hit.len());
                hit[at] ^= 1 << rng.below(8);
            }
            assert_one_verdict(&hit);
            assert_streams_as_it_decodes(&hit, &mut rng, 1);
        }
        // Counts the frame cannot hold: of rows, and of a row's values.
        for at in [rows_at, rows_at + 4] {
            if at + 4 <= frame.len() {
                let mut hostile = frame.clone();
                hostile[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
                assert_one_verdict(&hostile);
                assert_streams_as_it_decodes(&hostile, &mut rng, 1);
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
        let frame = register_frame(width, rows.clone());
        assert_registers_its_rows(&frame, &rows);
        let table = Registration::decode(&frame).unwrap().unwrap();
        assert_eq!(table.data.columns().len(), width);
        assert_eq!(table.data.rows(), rows.len());
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
        let frame = register_frame(2, rows.clone());
        assert_registers_its_rows(&frame, &rows);
        let table = Registration::decode(&frame).unwrap().unwrap();
        let (dict, _) = table.data.columns()[0].dict_codes().expect("a dictionary");
        assert_eq!(dict.len(), distinct);
        assert_eq!((&*dict[0], &*dict[1]), ("value-0", "value-7"));
    }
}

#[test]
fn a_schema_of_more_than_4096_columns_is_refused() {
    let nulls = |width: usize| vec![Record::new(vec![Value::Null; width])];
    let mut rng = Rng(4_097);
    assert_refused(
        &register_frame(4_097, nulls(4_097)),
        "REGISTER schema of 4097 columns exceeds the 4096 a table may have",
        &mut rng,
    );
    assert_registers_its_rows(&register_frame(4_096, nulls(4_096)), &nulls(4_096));
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

/// Frames past the session's 64 KiB window, and the shapes that stop its
/// walk: a row narrower than the schema at row 0, 1 or n − 1, a schema too
/// wide for a table, a string across a window boundary and strings longer
/// than a window.
#[test]
fn frames_past_the_window_stream_to_what_the_slice_decodes() {
    let mut rng = Rng(20_161_017);
    let row = |i: usize, width: usize| {
        Record::new(
            (0..width)
                .map(|c| match c % 4 {
                    0 => Value::str(["east", "north", "south"][i % 3]),
                    1 => Value::Int(i as i64),
                    2 => Value::Float(i as f64 * 0.25),
                    _ => Value::Int((i * 7 % 1000) as i64),
                })
                .collect(),
        )
    };
    let mut tables = Vec::new();
    for n in [5, 4_000] {
        for broken in [0, 1, n - 1] {
            let rows: Vec<Record> = (0..n)
                .map(|i| row(i, if i == broken { 3 } else { 4 }))
                .collect();
            assert_refused(
                &register_frame(4, rows),
                &not_schema_wide(broken, 3, 4),
                &mut rng,
            );
        }
        tables.push((4, (0..n).map(|i| row(i, 4)).collect::<Vec<_>>()));
    }
    // 1 000-byte strings, one row each: the first window boundary falls
    // inside one of them (byte 65 536 after the opcode is inside row 64's).
    let long = |len: usize, i: usize| Value::str(format!("{}{i}", "0".repeat(len)));
    tables.push((
        1,
        (0..200)
            .map(|i| Record::new(vec![long(1_000, i)]))
            .collect(),
    ));
    // Strings longer than the window, between short rows.
    tables.push((
        2,
        (0..6)
            .map(|i| {
                Record::new(vec![
                    long([3, 100_000, 9, 200_000, 1, 70_000][i], i),
                    Value::Int(1),
                ])
            })
            .collect(),
    ));
    let mut frames = Vec::new();
    for (width, rows) in &tables {
        let frame = register_frame(*width, rows.clone());
        assert_registers_its_rows(&frame, rows);
        assert_streams_as_it_decodes(&frame, &mut rng, 3);
        frames.push(frame);
    }
    // 4 097 columns: refused before the first row.
    assert_refused(
        &register_frame(4_097, (0..3).map(|i| row(i, 4_097)).collect()),
        "REGISTER schema of 4097 columns exceeds the 4096 a table may have",
        &mut rng,
    );
    // The straddling string, checked where it sits.
    let straddler = &frames[frames.len() - 2];
    let after_opcode = 65_536 + 1;
    assert!(straddler[after_opcode - 100..after_opcode + 100]
        .iter()
        .all(|b| b.is_ascii_digit()));
}
