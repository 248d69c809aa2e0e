//! Dirty tax-record generation — the BigDansing evaluation workload.
//!
//! BigDansing's experiments (paper §5, Figure 3) detect violations of data
//! quality rules on a synthetic TAX dataset. This generator reproduces the
//! two rules the paper's storyline needs:
//!
//! * **φ_FD** (functional dependency `zip → state`, an equality rule):
//!   detected by `Scope → Block(zip) → Iterate → Detect` — a fraction of
//!   records get a *wrong state* for their zip code;
//! * **φ_INEQ** (denial constraint "no one earns more but pays a lower tax
//!   rate": ¬(t1.salary > t2.salary ∧ t1.tax_rate < t2.tax_rate)): the
//!   clean distribution makes tax rate monotone in salary; a fraction of
//!   records get an *understated rate*, each producing many violating
//!   pairs.
//!
//! Record layout (see [`columns`]):
//! `[id(Int), name(Str), city(Str), state(Str), zip(Int), salary(Float), tax_rate(Float)]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rheem_core::{rec, Record, Value};

/// Column indices of the tax-record layout.
pub mod columns {
    /// Unique record id.
    pub const ID: usize = 0;
    /// Person name.
    pub const NAME: usize = 1;
    /// City name.
    pub const CITY: usize = 2;
    /// Two-letter state code.
    pub const STATE: usize = 3;
    /// Zip code.
    pub const ZIP: usize = 4;
    /// Annual salary.
    pub const SALARY: usize = 5;
    /// Tax rate in percent.
    pub const TAX_RATE: usize = 6;
}

const STATES: [&str; 10] = ["AZ", "CA", "IL", "MA", "NM", "NY", "OH", "TX", "UT", "WA"];
const CITIES: [&str; 10] = [
    "Phoenix", "Anaheim", "Chicago", "Boston", "Roswell", "Ithaca", "Columbus", "Austin", "Provo",
    "Seattle",
];

/// Configuration of the dirty tax-record generator.
#[derive(Clone, Debug)]
pub struct TaxConfig {
    /// Number of records.
    pub rows: usize,
    /// Number of distinct zip codes (blocking keys for the FD rule).
    pub zips: usize,
    /// Fraction of records with a wrong state for their zip (FD errors).
    pub fd_error_rate: f64,
    /// Fraction of records with an understated tax rate (inequality errors).
    pub ineq_error_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TaxConfig {
    /// Defaults: 2% errors of each kind, rows/50 zips (≥1).
    pub fn new(rows: usize) -> Self {
        TaxConfig {
            rows,
            zips: (rows / 50).max(1),
            fd_error_rate: 0.02,
            ineq_error_rate: 0.02,
            seed: 7,
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override both error rates.
    pub fn with_error_rates(mut self, fd: f64, ineq: f64) -> Self {
        self.fd_error_rate = fd;
        self.ineq_error_rate = ineq;
        self
    }
}

/// Ground-truth error counts injected by [`generate`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectedErrors {
    /// Records whose state contradicts their zip's canonical state.
    pub fd_dirty_records: usize,
    /// Records whose tax rate was understated.
    pub ineq_dirty_records: usize,
}

/// Generate dirty tax records plus the injected-error ground truth.
///
/// Clean invariants: every zip maps to one canonical state, and
/// `tax_rate = 10 + salary / 20_000` (strictly monotone in salary), so a
/// clean dataset has zero violations of either rule.
pub fn generate(config: &TaxConfig) -> (Vec<Record>, InjectedErrors) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zips = config.zips.max(1);
    // Canonical state per zip.
    let zip_state: Vec<usize> = (0..zips).map(|_| rng.gen_range(0..STATES.len())).collect();

    // One value per state and city, cloned into the rows: they share ten
    // strings of each instead of holding two allocations apiece.
    let states: Vec<Value> = STATES.iter().copied().map(Value::str).collect();
    let cities: Vec<Value> = CITIES.iter().copied().map(Value::str).collect();

    let mut records = Vec::with_capacity(config.rows);
    let mut injected = InjectedErrors::default();
    for id in 0..config.rows {
        let zip_idx = rng.gen_range(0..zips);
        let mut state_idx = zip_state[zip_idx];
        if rng.gen_bool(config.fd_error_rate.clamp(0.0, 1.0)) {
            state_idx = (state_idx + 1 + rng.gen_range(0..STATES.len() - 1)) % STATES.len();
            injected.fd_dirty_records += 1;
        }
        let salary = rng.gen_range(20_000.0..200_000.0f64).round();
        let mut tax_rate = 10.0 + salary / 20_000.0;
        if rng.gen_bool(config.ineq_error_rate.clamp(0.0, 1.0)) {
            // Understate drastically: below the minimum clean rate, so every
            // record with a smaller salary witnesses a violation.
            tax_rate = rng.gen_range(0.0..5.0);
            injected.ineq_dirty_records += 1;
        }
        let name = format!("p{:06}", rng.gen_range(0..config.rows * 10));
        records.push(rec![
            id as i64,
            name,
            cities[state_idx].clone(),
            states[state_idx].clone(),
            (10_000 + zip_idx) as i64,
            salary,
            (tax_rate * 100.0).round() / 100.0
        ]);
    }
    (records, injected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_and_shaped() {
        let cfg = TaxConfig::new(500);
        let (a, ia) = generate(&cfg);
        let (b, ib) = generate(&cfg);
        assert_eq!(a, b);
        assert_eq!(ia, ib);
        assert_eq!(a.len(), 500);
        assert_eq!(a[0].width(), 7);
    }

    #[test]
    fn clean_data_has_no_violations() {
        let cfg = TaxConfig::new(300).with_error_rates(0.0, 0.0);
        let (records, injected) = generate(&cfg);
        assert_eq!(injected, InjectedErrors::default());
        // FD zip -> state holds.
        let mut zip_states: HashMap<i64, &str> = HashMap::new();
        for r in &records {
            let zip = r.int(columns::ZIP).unwrap();
            let state = r.str(columns::STATE).unwrap();
            let prev = zip_states.insert(zip, state);
            if let Some(prev) = prev {
                assert_eq!(prev, state, "FD violated in clean data");
            }
        }
        // Monotone tax rate.
        let mut by_salary: Vec<(f64, f64)> = records
            .iter()
            .map(|r| {
                (
                    r.float(columns::SALARY).unwrap(),
                    r.float(columns::TAX_RATE).unwrap(),
                )
            })
            .collect();
        by_salary.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in by_salary.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-9, "tax rate not monotone");
        }
    }

    #[test]
    fn dirty_data_reports_injected_counts() {
        let cfg = TaxConfig::new(1000).with_error_rates(0.05, 0.05);
        let (records, injected) = generate(&cfg);
        assert!(injected.fd_dirty_records > 10);
        assert!(injected.ineq_dirty_records > 10);
        assert_eq!(records.len(), 1000);
    }

    #[test]
    fn rows_share_one_string_per_city_and_state() {
        let (records, _) = generate(&TaxConfig::new(200));
        let text = |r: &Record, c: usize| match &r.fields()[c] {
            Value::Str(s) => s.clone(),
            other => panic!("expected a string, got {other:?}"),
        };
        for c in [columns::CITY, columns::STATE] {
            for pair in records.windows(2) {
                let (a, b) = (text(&pair[0], c), text(&pair[1], c));
                assert_eq!(rheem_core::Text::ptr_eq(&a, &b), a == b);
            }
        }
    }

    #[test]
    fn zip_count_is_respected() {
        let mut cfg = TaxConfig::new(200);
        cfg.zips = 4;
        let (records, _) = generate(&cfg);
        let distinct: std::collections::HashSet<i64> = records
            .iter()
            .map(|r| r.int(columns::ZIP).unwrap())
            .collect();
        assert!(distinct.len() <= 4);
    }
}
