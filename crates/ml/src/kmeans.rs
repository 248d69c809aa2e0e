//! K-means clustering, built through the **logical layer** — the paper's
//! running example made executable.
//!
//! §3.2: "an application for K-means clustering might only expose the
//! `GetCentroid` (for getting the closest centroid of a data point) and
//! `SetCentroids` (for computing the new centroids) logical operators ...
//! the developer provides a `GroupBy` enhancer operator between
//! GetCentroid and SetCentroid." That is exactly the structure below:
//! named logical operators (`ComputeDistances`, `GetCentroid`,
//! `SetCentroids`) compose a logical loop body, `SetCentroids` groups with
//! `HashGroupBy` (Example 2's choice point, taken in
//! [`LogicalPlan::lower`]), and the whole thing lowers to a physical plan.
//!
//! Layouts: points `[pid(Int), x_0..x_{d-1}]`; centroids (the loop state)
//! `[cid(Int), c_0..c_{d-1}]`.

use rheem_core::logical::{LogicalPayload, LogicalPlan, LogicalPlanBuilder};
use rheem_core::udf::{GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf, ReduceUdf};
use rheem_core::{Dataset, JobResult, NodeId, Record, Result, RheemContext, RheemError, Value};

/// Computes, for every (point, centroid) pair, the squared distance.
/// Input: `[pid, x..., cid, c...]`; output: `[pid, cid, dist, x...]`.
fn compute_distances(dims: usize) -> LogicalPayload {
    LogicalPayload::Map(MapUdf::new("distance", move |r: &Record| {
        let take = |i: usize| r.float(i).expect("pair layout");
        let pid = r.int(0).expect("pid");
        let cid = r.int(dims + 1).expect("cid");
        let dist: f64 = (0..dims)
            .map(|i| {
                let d = take(1 + i) - take(dims + 2 + i);
                d * d
            })
            .sum();
        let mut fields = vec![Value::Int(pid), Value::Int(cid), Value::Float(dist)];
        fields.extend((0..dims).map(|i| Value::Float(take(1 + i))));
        Record::new(fields)
    }))
}

/// Keeps, per point, the nearest centroid (the paper's `GetCentroid`).
fn get_centroid() -> LogicalPayload {
    LogicalPayload::Reduce {
        key: KeyUdf::field(0),
        reduce: ReduceUdf::new("min-dist", |a: Record, b: &Record| {
            let (da, db) = (a.float(2).expect("dist"), b.float(2).expect("dist"));
            if db < da {
                b.clone()
            } else {
                a
            }
        }),
    }
}

/// Recomputes centroids as the mean of their assigned points (the paper's
/// `SetCentroids`, fused with its `GroupBy` enhancer).
fn set_centroids(dims: usize) -> LogicalPayload {
    LogicalPayload::Group {
        key: KeyUdf::new("cid", |r: &Record| r.get(1).expect("cid field").clone()),
        group: GroupMapUdf::new("mean", move |cid: &Value, members: &[Record]| {
            let n = members.len().max(1) as f64;
            let mut mean = vec![0.0f64; dims];
            for m in members {
                for (i, acc) in mean.iter_mut().enumerate() {
                    *acc += m.float(3 + i).expect("point coords");
                }
            }
            let mut fields = vec![cid.clone()];
            fields.extend(mean.into_iter().map(|s| Value::Float(s / n)));
            vec![Record::new(fields)]
        }),
    }
}

/// A trained clustering: centroid coordinates by centroid id.
#[derive(Clone, Debug, PartialEq)]
pub struct Clustering {
    /// `(cid, coordinates)` pairs, sorted by cid.
    pub centroids: Vec<(i64, Vec<f64>)>,
}

impl Clustering {
    /// Decode from the training output dataset.
    pub(crate) fn from_dataset(d: &Dataset, dims: usize) -> Result<Self> {
        let mut centroids = Vec::with_capacity(d.len());
        for r in d.iter() {
            if r.width() != dims + 1 {
                return Err(RheemError::Type {
                    expected: format!("centroid of width {}", dims + 1),
                    found: format!("width {}", r.width()),
                });
            }
            let cid = r.int(0)?;
            let coords: Result<Vec<f64>> = (0..dims).map(|i| r.float(1 + i)).collect();
            centroids.push((cid, coords?));
        }
        centroids.sort_by_key(|(cid, _)| *cid);
        Ok(Clustering { centroids })
    }
}

/// K-means trainer (logical-layer construction).
#[derive(Clone, Debug)]
pub struct KMeansTrainer {
    /// Number of clusters.
    pub k: usize,
    /// Point dimensionality.
    pub dims: usize,
    /// Lloyd iterations.
    pub iterations: u64,
}

impl KMeansTrainer {
    /// A `k`-cluster trainer over `dims`-dimensional points, 20 iterations.
    pub fn new(k: usize, dims: usize) -> Self {
        KMeansTrainer {
            k,
            dims,
            iterations: 20,
        }
    }

    /// Override the iteration count.
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Build the logical training plan. `points` are `[x_0..x_{d-1}]`
    /// records; returns the plan and the sink position (logical node ids
    /// map 1:1 onto physical node ids during lowering).
    pub(crate) fn build_logical_plan(&self, points: &[Record]) -> Result<(LogicalPlan, NodeId)> {
        if points.len() < self.k {
            return Err(RheemError::InvalidPlan(format!(
                "k-means needs at least k={} points, got {}",
                self.k,
                points.len()
            )));
        }
        // Attach point ids; seed centroids with evenly spaced points
        // (deterministic "Initialize", the paper's Example 1 operator (i)).
        let with_ids: Vec<Record> = points
            .iter()
            .enumerate()
            .map(|(pid, p)| {
                let mut fields = vec![Value::Int(pid as i64)];
                fields.extend_from_slice(p.fields());
                Record::new(fields)
            })
            .collect();
        let stride = points.len() / self.k;
        let centroids: Vec<Record> = (0..self.k)
            .map(|c| {
                let mut fields = vec![Value::Int(c as i64)];
                fields.extend_from_slice(points[c * stride].fields());
                Record::new(fields)
            })
            .collect();

        // Loop body, in logical operators.
        let mut body = LogicalPlanBuilder::new();
        let state = body.add("centroids", LogicalPayload::LoopInput, vec![]);
        let pts = body.source("points", with_ids);
        let pairs = body.add("pair", LogicalPayload::CrossProduct, vec![pts, state]);
        let dists = body.add(
            "ComputeDistances",
            compute_distances(self.dims),
            vec![pairs],
        );
        let assigned = body.add("GetCentroid", get_centroid(), vec![dists]);
        body.add("SetCentroids", set_centroids(self.dims), vec![assigned]);
        let body = body.build()?;

        // Outer plan.
        let mut b = LogicalPlanBuilder::new();
        let init = b.source("initial-centroids", centroids);
        let looped = b.add(
            "Lloyd",
            LogicalPayload::Loop {
                body,
                condition: LoopCondUdf::fixed_iterations(self.iterations),
                max_iterations: self.iterations,
            },
            vec![init],
        );
        let sink = b.collect(looped);
        Ok((b.build()?, NodeId(sink.0)))
    }

    /// Train on the given context.
    pub fn train(&self, ctx: &RheemContext, points: &[Record]) -> Result<(Clustering, JobResult)> {
        let (plan, sink) = self.build_logical_plan(points)?;
        let result = ctx.execute_logical(&plan)?;
        let clustering = Clustering::from_dataset(&result.outputs[&sink], self.dims)?;
        Ok((clustering, result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl Clustering {
        /// Index (into `centroids`) of the nearest centroid.
        fn assign(&self, x: &[f64]) -> usize {
            let mut best = (0usize, f64::INFINITY);
            for (i, (_, c)) in self.centroids.iter().enumerate() {
                let d: f64 = c.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < best.1 {
                    best = (i, d);
                }
            }
            best.0
        }
    }

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rheem_core::{rec, PlanCache, PlanCacheConfig};
    use rheem_platforms::JavaPlatform;

    fn ctx() -> RheemContext {
        RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
    }

    /// Three well-separated 2-D blobs.
    fn blobs(per_cluster: usize, seed: u64) -> Vec<Record> {
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 8.0)];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for &(cx, cy) in &centers {
            for _ in 0..per_cluster {
                out.push(rec![
                    cx + rng.gen_range(-1.0..1.0),
                    cy + rng.gen_range(-1.0..1.0)
                ]);
            }
        }
        out
    }

    #[test]
    fn kmeans_finds_well_separated_blobs() {
        let points = blobs(40, 2);
        let trainer = KMeansTrainer::new(3, 2).with_iterations(15);
        let (clustering, result) = trainer.train(&ctx(), &points).unwrap();
        assert_eq!(clustering.centroids.len(), 3);
        // Each centroid should be within 1.5 of some true center.
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 8.0)];
        for (_, c) in &clustering.centroids {
            let best = centers
                .iter()
                .map(|(x, y)| ((c[0] - x).powi(2) + (c[1] - y).powi(2)).sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(best < 1.5, "centroid {c:?} far from every true center");
        }
        assert_eq!(result.stats.platforms_used(), vec!["java"]);
    }

    #[test]
    fn assignment_is_consistent_with_blob_membership() {
        let points = blobs(30, 5);
        let trainer = KMeansTrainer::new(3, 2).with_iterations(15);
        let (clustering, _) = trainer.train(&ctx(), &points).unwrap();
        // Points from the same blob map to the same centroid.
        for blob in 0..3 {
            let base = blob * 30;
            let first = clustering.assign(&[
                points[base].float(0).unwrap(),
                points[base].float(1).unwrap(),
            ]);
            for p in &points[base..base + 30] {
                let a = clustering.assign(&[p.float(0).unwrap(), p.float(1).unwrap()]);
                assert_eq!(a, first);
            }
        }
    }

    #[test]
    fn one_logical_plan_lowers_to_one_fingerprint_and_hits_the_plan_cache() {
        let trainer = KMeansTrainer::new(2, 2);
        let (logical, _) = trainer.build_logical_plan(&blobs(10, 1)).unwrap();
        let fingerprint = || logical.lower().unwrap().fingerprint().hash;
        assert_eq!(fingerprint(), fingerprint());

        let cache = Arc::new(PlanCache::new(PlanCacheConfig::default()));
        let ctx = ctx().with_plan_cache(cache.clone());
        ctx.optimize_logical(&logical).unwrap();
        ctx.optimize_logical(&logical).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn too_few_points_is_an_error() {
        let trainer = KMeansTrainer::new(5, 2);
        assert!(trainer.build_logical_plan(&blobs(1, 1)[..3]).is_err());
    }
}
