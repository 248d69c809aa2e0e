//! Every frame but `REGISTER` (which `register_decoding.rs` covers), fuzzed
//! the same way: a valid frame of each kind is cut at every byte, has every
//! single bit flipped, and has `u32::MAX` written over every 4-byte window —
//! a superset of its length and count slots. Both decoders must answer each
//! input with a value or a typed `WireError::Malformed`, never a panic, and
//! the bytes a decode asks the allocator for (which bound its peak) must stay
//! within a small multiple of the input's length.

use rheem_core::{DataType, Record, Schema, Value};
use rheem_server::protocol::{Request, Response, WireError, WireResult};
use testkit::{counted_during, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn frames() -> Vec<Vec<u8>> {
    let requests = [
        Request::Hello {
            tenant: "alpha".into(),
        },
        Request::Query {
            sql: "SELECT region, SUM(amount) FROM orders GROUP BY region".into(),
            deadline_ms: None,
        },
        Request::Query {
            sql: "SELECT 1".into(),
            deadline_ms: Some(1_500),
        },
        Request::Stats,
        Request::Cancel { job: 7 },
        Request::Goodbye,
    ];
    let responses = [
        Response::Ok,
        Response::Err {
            message: "over quota: żółć".into(),
        },
        Response::Rows {
            schema: Schema::new(vec![
                ("region", DataType::Str),
                ("n", DataType::Int),
                ("x", DataType::Float),
            ]),
            rows: vec![
                Record::new(vec![Value::str("east"), Value::Int(3), Value::Float(0.5)]),
                Record::new(vec![Value::str("east"), Value::Null, Value::Bool(true)]),
                Record::new(vec![Value::str(""), Value::Int(-1), Value::Null]),
            ],
        },
        Response::Rows {
            schema: Schema::new(Vec::<(String, DataType)>::new()),
            rows: vec![],
        },
        Response::Stats {
            text: "counter executor.jobs_completed 3\n".into(),
        },
    ];
    let mut frames: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    frames.extend(responses.iter().map(Response::encode));
    frames
}

/// Every cut, every single-bit flip and every `u32::MAX` window of `frame`.
fn hostile(frame: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..frame.len()).map(|cut| frame[..cut].to_vec()).collect();
    for bit in 0..8 * frame.len() {
        let mut hit = frame.to_vec();
        hit[bit / 8] ^= 1 << (bit % 8);
        out.push(hit);
    }
    for at in 0..frame.len().saturating_sub(3) {
        let mut hit = frame.to_vec();
        hit[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        out.push(hit);
    }
    out
}

/// `decode` takes `input` without a panic, answers with a value or a typed
/// refusal, and asks for at most a small multiple of its length.
fn assert_decodes_in_bounds<T>(input: &[u8], decode: impl FnOnce(&[u8]) -> WireResult<T>) {
    let ((_, requested), verdict) = counted_during(|| decode(input).map(drop));
    assert!(
        matches!(verdict, Ok(()) | Err(WireError::Malformed(_))),
        "{verdict:?} for {input:?}"
    );
    // A one-byte NULL decodes to a 24-byte value; 4 KiB is the row
    // decoder's string table.
    assert!(
        requested <= 32 * input.len() + 4096,
        "{requested} bytes requested for a {}-byte frame {input:?}",
        input.len()
    );
}

#[test]
fn hostile_frames_get_a_typed_verdict_within_bounded_allocation() {
    for frame in frames() {
        // The untouched frame decodes in one direction.
        assert!(Request::decode(&frame).is_ok() || Response::decode(&frame).is_ok());
        for input in hostile(&frame) {
            assert_decodes_in_bounds(&input, Request::decode);
            assert_decodes_in_bounds(&input, Response::decode);
        }
    }
}

#[test]
fn every_cut_of_a_frame_is_refused() {
    for frame in frames() {
        for cut in 0..frame.len() {
            let short = &frame[..cut];
            assert!(Request::decode(short).is_err() && Response::decode(short).is_err());
        }
    }
}
