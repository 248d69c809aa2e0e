//! Relational and sensor workload generators for the multi-platform
//! pipeline examples (the paper's §1 Oil & Gas scenario).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rheem_core::{rec, Record, Value};

/// Customers table: `[customer_id(Int), name(Str), region(Str)]`.
pub fn customers(n: usize, regions: usize, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    // The rows share one string per region.
    let names: Vec<Value> = (0..regions.max(1))
        .map(|r| Value::from(format!("region_{r}")))
        .collect();
    (0..n as i64)
        .map(|id| {
            let region = rng.gen_range(0..names.len());
            rec![id, format!("customer_{id}"), names[region].clone()]
        })
        .collect()
}

/// Orders table: `[order_id(Int), customer_id(Int), amount(Float)]`.
pub fn orders(n: usize, customers: usize, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as i64)
        .map(|id| {
            let cust = rng.gen_range(0..customers.max(1)) as i64;
            let amount = (rng.gen_range(1.0..5_000.0f64) * 100.0).round() / 100.0;
            rec![id, cust, amount]
        })
        .collect()
}

/// Downhole sensor readings for the Oil & Gas pipeline:
/// `[timestamp(Int), sensor_id(Int), pressure(Float)]`.
///
/// Clean readings follow a per-sensor baseline with small noise; a fraction
/// are corrupted to extreme values (transmission glitches the cleaning
/// stage must drop).
pub fn sensor_readings(n: usize, sensors: usize, corrupt_rate: f64, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sensors = sensors.max(1);
    let baselines: Vec<f64> = (0..sensors).map(|_| rng.gen_range(80.0..120.0)).collect();
    (0..n as i64)
        .map(|t| {
            let sensor = rng.gen_range(0..sensors);
            let pressure: f64 = if rng.gen_bool(corrupt_rate.clamp(0.0, 1.0)) {
                // Glitch: impossible reading.
                if rng.gen_bool(0.5) {
                    -1.0
                } else {
                    9_999.0
                }
            } else {
                baselines[sensor] + rng.gen_range(-5.0..5.0)
            };
            rec![t, sensor as i64, (pressure * 10.0).round() / 10.0]
        })
        .collect()
}

/// Whether a sensor reading is physically plausible (the cleaning rule the
/// examples use).
pub fn plausible_pressure(p: f64) -> bool {
    (0.0..1_000.0).contains(&p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_deterministic_and_linked() {
        let c = customers(100, 5, 1);
        let o = orders(500, 100, 2);
        assert_eq!(c.len(), 100);
        assert_eq!(o.len(), 500);
        assert_eq!(customers(100, 5, 1), c);
        // Every order points at a valid customer.
        for r in &o {
            let cust = r.int(1).unwrap();
            assert!((0..100).contains(&cust));
        }
    }

    #[test]
    fn sensor_corruption_rate_is_roughly_respected() {
        let readings = sensor_readings(10_000, 8, 0.1, 3);
        let corrupt = readings
            .iter()
            .filter(|r| !plausible_pressure(r.float(2).unwrap()))
            .count();
        assert!((700..1300).contains(&corrupt), "got {corrupt}");
    }

    #[test]
    fn clean_sensors_are_all_plausible() {
        let readings = sensor_readings(1000, 4, 0.0, 3);
        assert!(readings
            .iter()
            .all(|r| plausible_pressure(r.float(2).unwrap())));
    }
}
