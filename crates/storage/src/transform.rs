//! Cartilage-style data transformation plans (§6).
//!
//! "Cartilage introduces the notion of data transformation plans, analogous
//! to logical query plans, that specify a sequence of data transformations
//! that should be applied to raw data as it is uploaded into a storage
//! system." A [`TransformationPlan`] is exactly that: an ordered list of
//! [`TransformStep`]s applied between the raw input and the stored layout.

use rheem_core::udf::{FilterUdf, KeyUdf, MapUdf};
use rheem_core::{kernels, Dataset, Record, Result, RheemError, Value};

use crate::codec;

/// One step of a transformation plan.
#[derive(Clone)]
pub enum TransformStep {
    /// Parse raw single-string-field records as CSV lines.
    ParseCsv,
    /// Keep only the given columns, in order.
    Project(Vec<usize>),
    /// Drop rows failing the predicate (e.g. corrupt sensor readings).
    FilterRows(FilterUdf),
    /// Cluster the stored layout by a column.
    SortBy {
        /// Column to sort on.
        column: usize,
        /// Sort direction.
        descending: bool,
    },
    /// Prepend a dense `Int` row id column.
    AddRowIds,
    /// Compute a derived column layout (arbitrary re-mapping).
    Derive(MapUdf),
    /// Deduplicate rows.
    Dedup,
}

impl TransformStep {
    fn name(&self) -> String {
        match self {
            TransformStep::ParseCsv => "ParseCsv".into(),
            TransformStep::Project(cols) => format!("Project({cols:?})"),
            TransformStep::FilterRows(f) => format!("FilterRows({})", f.name),
            TransformStep::SortBy { column, descending } => {
                format!("SortBy(col{column}, desc={descending})")
            }
            TransformStep::AddRowIds => "AddRowIds".into(),
            TransformStep::Derive(m) => format!("Derive({})", m.name),
            TransformStep::Dedup => "Dedup".into(),
        }
    }
}

/// A named sequence of transformation steps.
#[derive(Clone)]
pub struct TransformationPlan {
    name: String,
    steps: Vec<TransformStep>,
}

impl TransformationPlan {
    /// An empty plan with a name; chain steps with [`TransformationPlan::then`].
    pub fn named(name: impl Into<String>) -> Self {
        TransformationPlan {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Append a step.
    pub fn then(mut self, step: TransformStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Apply all steps to a dataset.
    pub fn apply(&self, data: Dataset) -> Result<Dataset> {
        let mut records = data.into_records();
        for step in &self.steps {
            records = match step {
                TransformStep::ParseCsv => {
                    let mut out = Vec::with_capacity(records.len());
                    for r in &records {
                        if r.width() != 1 {
                            return Err(RheemError::Storage(format!(
                                "ParseCsv expects single-field raw records, got width {}",
                                r.width()
                            )));
                        }
                        let line = r.str(0)?;
                        out.extend(codec::from_csv(line)?);
                    }
                    out
                }
                TransformStep::Project(cols) => kernels::project(&records, cols)?,
                TransformStep::FilterRows(f) => kernels::filter(&records, f),
                TransformStep::SortBy { column, descending } => {
                    let col = *column;
                    kernels::sort(&records, &KeyUdf::field(col), *descending)
                }
                TransformStep::AddRowIds => records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let mut fields = vec![Value::Int(i as i64)];
                        fields.extend_from_slice(r.fields());
                        Record::new(fields)
                    })
                    .collect(),
                TransformStep::Derive(m) => kernels::map(&records, m),
                TransformStep::Dedup => kernels::distinct(&records),
            };
        }
        Ok(Dataset::new(records))
    }
}

/// Renders `name: [step -> step ...]`.
impl std::fmt::Debug for TransformationPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let steps: Vec<String> = self.steps.iter().map(|s| s.name()).collect();
        write!(f, "{}: [{}]", self.name, steps.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::rec;

    #[test]
    fn empty_plan_is_a_no_op() {
        let data = Dataset::new(vec![rec![1i64, "a"]]);
        let out = TransformationPlan::named("raw")
            .apply(data.clone())
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn csv_ingestion_pipeline() {
        // Raw lines -> parse -> drop corrupt -> project -> sort.
        let raw = Dataset::new(vec![rec!["3,c,30"], rec!["1,a,10"], rec!["2,b,oops"]]);
        let plan = TransformationPlan::named("ingest")
            .then(TransformStep::ParseCsv)
            .then(TransformStep::FilterRows(FilterUdf::new("numeric", |r| {
                r.int(2).is_ok()
            })))
            .then(TransformStep::Project(vec![0, 2]))
            .then(TransformStep::SortBy {
                column: 0,
                descending: false,
            });
        let out = plan.apply(raw).unwrap();
        assert_eq!(out.records(), &[rec![1i64, 10i64], rec![3i64, 30i64]]);
        assert!(format!("{plan:?}").starts_with("ingest: [ParseCsv -> FilterRows(numeric)"));
    }

    #[test]
    fn row_ids_and_dedup() {
        let data = Dataset::new(vec![rec!["x"], rec!["x"], rec!["y"]]);
        let plan = TransformationPlan::named("p")
            .then(TransformStep::Dedup)
            .then(TransformStep::AddRowIds);
        let out = plan.apply(data).unwrap();
        assert_eq!(out.records(), &[rec![0i64, "x"], rec![1i64, "y"]]);
    }

    #[test]
    fn parse_csv_rejects_multi_field_input() {
        let data = Dataset::new(vec![rec!["a", "b"]]);
        let plan = TransformationPlan::named("p").then(TransformStep::ParseCsv);
        assert!(plan.apply(data).is_err());
    }

    #[test]
    fn derive_step_reshapes_rows() {
        let data = Dataset::new(vec![rec![2i64, 3i64]]);
        let plan = TransformationPlan::named("p")
            .then(TransformStep::Derive(MapUdf::new("sum", |r| {
                rec![r.int(0).unwrap() + r.int(1).unwrap()]
            })));
        assert_eq!(plan.apply(data).unwrap().records(), &[rec![5i64]]);
    }
}
