//! Linear model representation shared by the ML trainers.
//!
//! A trained model is `w ∈ R^d` plus a bias; in plans it travels as a
//! single data quantum `[w_0, ..., w_{d-1}, b]` (all `Float`), which is the
//! loop state of the training plans.

use rheem_core::{Dataset, Record, Result, RheemError, Value};

/// A linear model `x ↦ w·x + b`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearModel {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Bias term.
    pub bias: f64,
}

impl LinearModel {
    /// The zero model of dimension `dims`.
    pub(crate) fn zeros(dims: usize) -> Self {
        LinearModel {
            weights: vec![0.0; dims],
            bias: 0.0,
        }
    }

    /// Dimensionality.
    pub(crate) fn dims(&self) -> usize {
        self.weights.len()
    }

    /// Raw score `w·x + b` for a feature slice.
    pub(crate) fn score(&self, x: &[f64]) -> f64 {
        self.weights
            .iter()
            .zip(x)
            .map(|(w, xi)| w * xi)
            .sum::<f64>()
            + self.bias
    }

    /// Raw score for a LIBSVM-layout record `[label, x_1, ..., x_d]`.
    fn score_record(&self, r: &Record) -> Result<f64> {
        if r.width() != self.dims() + 1 {
            return Err(RheemError::Type {
                expected: format!("record of width {}", self.dims() + 1),
                found: format!("record of width {}", r.width()),
            });
        }
        let mut s = self.bias;
        for (i, w) in self.weights.iter().enumerate() {
            s += w * r.float(i + 1)?;
        }
        Ok(s)
    }

    /// Classification accuracy (sign agreement) on LIBSVM-layout records.
    pub fn accuracy(&self, data: &[Record]) -> Result<f64> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for r in data {
            let label = r.float(0)?;
            let pred = if self.score_record(r)? >= 0.0 {
                1.0
            } else {
                -1.0
            };
            if pred == label {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len() as f64)
    }

    /// Mean squared error of `w·x + b` against the label field (regression).
    pub fn mse(&self, data: &[Record]) -> Result<f64> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        for r in data {
            let err = self.score_record(r)? - r.float(0)?;
            total += err * err;
        }
        Ok(total / data.len() as f64)
    }

    /// Encode as the loop-state record `[w..., b]`.
    pub(crate) fn to_record(&self) -> Record {
        let mut fields: Vec<Value> = self.weights.iter().copied().map(Value::Float).collect();
        fields.push(Value::Float(self.bias));
        Record::new(fields)
    }

    /// Decode from the loop-state record.
    pub(crate) fn from_record(r: &Record) -> Result<Self> {
        if r.width() == 0 {
            return Err(RheemError::Type {
                expected: "non-empty model record".into(),
                found: "empty record".into(),
            });
        }
        let mut weights = Vec::with_capacity(r.width() - 1);
        for i in 0..r.width() - 1 {
            weights.push(r.float(i)?);
        }
        Ok(LinearModel {
            weights,
            bias: r.float(r.width() - 1)?,
        })
    }

    /// Decode from a single-record training output.
    pub(crate) fn from_dataset(d: &Dataset) -> Result<Self> {
        match d.records() {
            [r] => LinearModel::from_record(r),
            other => Err(RheemError::Type {
                expected: "a single model record".into(),
                found: format!("{} records", other.len()),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::rec;

    #[test]
    fn record_round_trip() {
        let m = LinearModel {
            weights: vec![0.5, -1.5],
            bias: 2.0,
        };
        let back = LinearModel::from_record(&m.to_record()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn scoring_and_accuracy() {
        let m = LinearModel {
            weights: vec![1.0, 0.0],
            bias: -0.5,
        };
        assert_eq!(m.score(&[2.0, 7.0]), 1.5);
        let data = vec![
            rec![1.0f64, 1.0f64, 0.0f64],  // score 0.5 -> +1 correct
            rec![-1.0f64, 0.0f64, 9.0f64], // score -0.5 -> -1 correct
            rec![1.0f64, 0.0f64, 0.0f64],  // score -0.5 -> -1 wrong
        ];
        assert!((m.accuracy(&data).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let m = LinearModel::zeros(3);
        assert!(m.score_record(&rec![1.0f64, 2.0f64]).is_err());
    }

    #[test]
    fn mse_on_perfect_fit_is_zero() {
        let m = LinearModel {
            weights: vec![2.0],
            bias: 1.0,
        };
        let data = vec![rec![5.0f64, 2.0f64], rec![1.0f64, 0.0f64]];
        assert!(m.mse(&data).unwrap() < 1e-24);
    }

    #[test]
    fn from_dataset_requires_single_record() {
        let m = LinearModel::zeros(1);
        let ok = Dataset::new(vec![m.to_record()]);
        assert_eq!(LinearModel::from_dataset(&ok).unwrap(), m);
        let bad = Dataset::new(vec![m.to_record(), m.to_record()]);
        assert!(LinearModel::from_dataset(&bad).is_err());
    }
}
