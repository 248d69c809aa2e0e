//! No statement can end the server. Every pass over an expression recurses
//! once per level of it, so a statement deep enough — 3 000 nested
//! parentheses in a 6 KB frame, a chain of 10 000 `+` terms, 10 000 `NOT`s
//! — would overflow the session thread's stack and abort the process,
//! ending every tenant's session with it. The parser refuses an expression
//! deeper than `MAX_EXPR_DEPTH` with a typed error; the session that sent it
//! goes on, and so does every other. A statement exactly at the limit plans
//! and runs (in a debug build too, where frames are largest).

use rheem_core::query::parser::MAX_EXPR_DEPTH;
use rheem_core::{DataType, Record, Schema, Value};
use rheem_server::protocol::WireError;
use rheem_server::{Client, RheemServer, ServerConfig};

const COUNT: &str = "SELECT COUNT(*) AS n FROM t";

fn register_t(client: &mut Client) {
    let schema = Schema::new(vec![("a", DataType::Int)]);
    let rows = (0..4).map(|a| Record::new(vec![Value::Int(a)])).collect();
    client.register("t", schema, rows).unwrap();
}

/// `a` inside `parens` pairs of parentheses: `parens + 1` levels deep.
fn nested_parens(parens: usize) -> String {
    format!(
        "SELECT {}a{} AS v FROM t",
        "(".repeat(parens),
        ")".repeat(parens)
    )
}

/// `a + a + … + a` over `terms` terms: `terms` levels deep (left-deep).
fn plus_chain(terms: usize) -> String {
    format!("SELECT {} AS v FROM t", vec!["a"; terms].join(" + "))
}

/// `nots` `NOT`s over `a = 1`: `nots + 2` levels deep.
fn not_chain(nots: usize) -> String {
    format!(
        "SELECT COUNT(*) AS n FROM t WHERE {}a = 1",
        "NOT ".repeat(nots)
    )
}

fn count(client: &mut Client) -> Vec<Record> {
    client.query(COUNT).unwrap().1
}

fn refused(client: &mut Client, sql: &str) -> String {
    match client.query(sql) {
        Err(WireError::Server(message)) => message,
        other => panic!("a statement past the limit answered {other:?}"),
    }
}

#[test]
fn a_statement_past_the_depth_limit_is_refused_and_both_tenants_go_on() {
    let mut server = RheemServer::start(ServerConfig::default()).unwrap();
    let mut deep = Client::connect(server.addr(), "deep").unwrap();
    let mut other = Client::connect(server.addr(), "other").unwrap();
    register_t(&mut deep);
    register_t(&mut other);
    let n = vec![Record::new(vec![Value::Int(4)])];

    let statements = [
        ("3 000 nested parentheses", nested_parens(3_000)),
        ("10 000 `+` terms", plus_chain(10_000)),
        ("10 000 NOTs", not_chain(10_000)),
    ];
    assert!(statements[0].1.len() > 6_000);
    let limit = MAX_EXPR_DEPTH.to_string();
    for (shape, sql) in &statements {
        let message = refused(&mut deep, sql);
        assert!(message.contains("query error: "), "{shape}: {message}");
        assert!(message.contains(&limit), "{shape}: {message}");
        assert_eq!(count(&mut deep), n, "{shape}");
        assert_eq!(count(&mut other), n, "{shape}");
    }

    deep.goodbye().unwrap();
    other.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn a_statement_exactly_at_the_depth_limit_plans_and_runs() {
    let mut server = RheemServer::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr(), "deep").unwrap();
    register_t(&mut client);
    let ints = |values: &[i64]| -> Vec<Record> {
        values
            .iter()
            .map(|&v| Record::new(vec![Value::Int(v)]))
            .collect()
    };
    let depth = MAX_EXPR_DEPTH;
    // The NOTs over `a = 1` cancel when there is an even number of them.
    let not_answer = if (depth - 2).is_multiple_of(2) { 1 } else { 3 };
    let at_limit = [
        (nested_parens(depth - 1), ints(&[0, 1, 2, 3])),
        (
            plus_chain(depth),
            ints(&[0, 1, 2, 3].map(|a| a * depth as i64)),
        ),
        (not_chain(depth - 2), ints(&[not_answer])),
    ];
    for (sql, rows) in &at_limit {
        assert_eq!(client.query(sql).unwrap().1, *rows);
    }
    // One level more is refused, in each shape.
    for sql in [
        nested_parens(depth),
        plus_chain(depth + 1),
        not_chain(depth - 1),
    ] {
        assert!(refused(&mut client, &sql).contains(&depth.to_string()));
    }
    client.goodbye().unwrap();
    server.shutdown();
}
