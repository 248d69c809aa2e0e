//! Workloads: the generated tables, the fixed statement lists, and why each
//! workload exists. `--seed` is the only input besides the statement lists;
//! the server only ever sees the generated tables.

use rheem_core::{DataType, Record, Schema, Value};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20160315;
/// A second seed no number in this repository was tuned on; a claim must
/// also hold here (choosing-metrics §6.3).
pub const HELD_OUT_SEED: u64 = 77003;

pub const REGIONS: [&str; 5] = ["east", "north", "south", "west", "centre"];
pub const SEGMENTS: [&str; 4] = ["consumer", "corporate", "public", "smb"];
/// Rows of `customers`; `orders.cust` is drawn from `0..CUSTOMERS`, so the
/// join matches every order exactly once.
pub const CUSTOMERS: usize = 1000;

// Field positions in `orders`.
pub const ORDERS_PRICE: usize = 2;
pub const ORDERS_CUST: usize = 3;

/// splitmix64: a tiny seeded generator, so the benchmark needs no crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

pub fn orders_schema() -> Schema {
    Schema::new(vec![
        ("region", DataType::Str),
        ("amount", DataType::Int),
        ("price", DataType::Float),
        ("cust", DataType::Int),
    ])
}

pub fn customers_schema() -> Schema {
    Schema::new(vec![("id", DataType::Int), ("seg", DataType::Str)])
}

/// `orders`: `amount` is the row index (unique, so every ORDER BY on it is
/// tie-free and `SUM(amount)` has the closed form n(n-1)/2); `price` is a
/// multiple of 0.25 below 1000, so float sums are exact in any order and
/// results compare bytewise across platforms and thread counts.
pub fn orders(seed: u64, rows: usize) -> Vec<Record> {
    let mut rng = Rng::new(seed);
    let regions: Vec<Value> = REGIONS.iter().map(Value::str).collect();
    (0..rows)
        .map(|i| {
            Record::new(vec![
                regions[rng.below(REGIONS.len() as u64) as usize].clone(),
                Value::Int(i as i64),
                Value::Float(rng.below(4000) as f64 * 0.25),
                Value::Int(rng.below(CUSTOMERS as u64) as i64),
            ])
        })
        .collect()
}

pub fn customers(seed: u64) -> Vec<Record> {
    let mut rng = Rng::new(seed ^ 0xc0ffee);
    let segments: Vec<Value> = SEGMENTS.iter().map(Value::str).collect();
    (0..CUSTOMERS)
        .map(|id| {
            Record::new(vec![
                Value::Int(id as i64),
                segments[rng.below(SEGMENTS.len() as u64) as usize].clone(),
            ])
        })
        .collect()
}

/// A closed form of the generator a statement's result must satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClosedForm {
    /// Column `count` sums to n and column `sum` sums to n(n-1)/2 over the
    /// result rows (`COUNT(*)` and `SUM(amount)` per group).
    GroupTotals { count: usize, sum: usize },
    /// The result has n rows and column `amount` sums to n(n-1)/2.
    FullTable { amount: usize },
}

/// The kernels the replay times. Their arguments always come from the plans
/// of [`FIVE`]; a statement lists the kernels taken from it, so their spans
/// hang under that statement where the workload runs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Filter,
    HashGroup,
    HashJoin,
    Sort,
}

impl Kernel {
    /// In discriminant order, so `kernel as usize` indexes per-kernel arrays.
    pub const ALL: [Kernel; 4] = [
        Kernel::Filter,
        Kernel::HashGroup,
        Kernel::HashJoin,
        Kernel::Sort,
    ];

    /// The function's name in `rheem_core::kernels`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Filter => "filter",
            Kernel::HashGroup => "hash_group",
            Kernel::HashJoin => "hash_join",
            Kernel::Sort => "sort",
        }
    }
}

pub struct Statement {
    pub sql: &'static str,
    /// Row order is part of the answer (ORDER BY on a tie-free key).
    pub ordered: bool,
    pub closed_form: Option<ClosedForm>,
    /// Kernels whose replay arguments are taken from this statement's plan.
    pub kernels: &'static [Kernel],
}

/// The five repeated statements of `point-1k`, `scan-200k` and
/// `tenants-2x100k`; results are at most 25 rows (group-by `cust` has 1000
/// groups before its LIMIT).
pub const FIVE: &[Statement] = &[
    Statement {
        sql: "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM orders \
              GROUP BY region ORDER BY region",
        ordered: true,
        closed_form: Some(ClosedForm::GroupTotals { count: 2, sum: 1 }),
        kernels: &[],
    },
    Statement {
        sql: "SELECT cust, SUM(price) AS spend FROM orders GROUP BY cust ORDER BY cust LIMIT 10",
        ordered: true,
        closed_form: None,
        kernels: &[Kernel::HashGroup],
    },
    Statement {
        sql: "SELECT AVG(price) AS avg_price, COUNT(*) AS n FROM orders WHERE price < 500",
        ordered: true,
        closed_form: None,
        kernels: &[],
    },
    Statement {
        sql: "SELECT seg, COUNT(*) AS n, SUM(amount) AS total FROM orders \
              JOIN customers ON orders.cust = customers.id GROUP BY seg ORDER BY seg",
        ordered: true,
        closed_form: Some(ClosedForm::GroupTotals { count: 1, sum: 2 }),
        kernels: &[Kernel::HashJoin],
    },
    Statement {
        sql: "SELECT region, amount, price FROM orders WHERE price > 900 \
              ORDER BY amount LIMIT 25",
        ordered: true,
        closed_form: None,
        kernels: &[Kernel::Filter, Kernel::Sort],
    },
];

/// The two statements of `wide-100k`: ~100 % of the table comes back.
pub const WIDE: &[Statement] = &[
    Statement {
        sql: "SELECT region, amount, price FROM orders WHERE price > -1",
        ordered: false,
        closed_form: Some(ClosedForm::FullTable { amount: 1 }),
        kernels: &[],
    },
    Statement {
        sql: "SELECT amount, cust FROM orders",
        ordered: false,
        closed_form: Some(ClosedForm::FullTable { amount: 0 }),
        kernels: &[],
    },
];

pub struct Workload {
    pub name: &'static str,
    /// One sentence on why the workload exists (mirrored in BENCHMARK.json).
    pub why: &'static str,
    /// Concurrent clients, each its own tenant, connection and table.
    pub clients: usize,
    pub rows: usize,
    pub statements: &'static [Statement],
}

/// Rows of the "large" tables under `--quick`.
pub const QUICK_ROWS: usize = 10_000;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "point-1k",
        why: "1 client, 1000 rows: engine work is under 1 ms, so latency is transport, session \
              loop, admission, wave gate and the plan-cache-hit path; kernels do almost nothing",
        clients: 1,
        rows: 1_000,
        statements: FIVE,
    },
    Workload {
        name: "scan-200k",
        why: "1 client, 200000 rows (largest round REGISTER under MAX_FRAME), results of 25 rows \
              or fewer: executor, platforms and kernels dominate and protocol does little",
        clients: 1,
        rows: 200_000,
        statements: FIVE,
    },
    Workload {
        name: "wide-100k",
        why: "1 client, 100000 rows, two statements returning the whole table: per-byte result \
              copy, encode, write and decode cost instead of per-frame cost",
        clients: 1,
        rows: 100_000,
        statements: WIDE,
    },
    Workload {
        name: "tenants-2x100k",
        why: "2 clients as two tenants with a 100000-row table each, run concurrently: same \
              engine as scan-200k but wave slots, workers and shared locks are contended",
        clients: 2,
        rows: 100_000,
        statements: FIVE,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn rows(&self, quick: bool) -> usize {
        if quick {
            self.rows.min(QUICK_ROWS)
        } else {
            self.rows
        }
    }

    pub fn tenant(&self, client: usize) -> String {
        format!("tenant-{client}")
    }

    /// Each client's `orders` is generated from its own stream of the seed.
    pub fn orders_seed(&self, seed: u64, client: usize) -> u64 {
        seed.wrapping_add(client as u64 * 0x1000_0000)
    }
}

/// The tables one client registers.
pub struct Tables {
    pub orders: Vec<Record>,
    pub customers: Vec<Record>,
}

impl Tables {
    pub fn generate(workload: &Workload, seed: u64, client: usize, quick: bool) -> Self {
        Tables {
            orders: orders(workload.orders_seed(seed, client), workload.rows(quick)),
            customers: customers(seed),
        }
    }
}
