//! End-to-end application runs spanning crates: the ML, cleaning, and
//! graph applications each execute on multiple platforms and must produce
//! equivalent results — the cross-application face of platform
//! independence.

use std::sync::Arc;

use rheem::prelude::*;
use rheem::rec;
use rheem_cleaning::{detect, repair_fd, DenialConstraint, DetectionStrategy};
use rheem_datagen::libsvm::{generate, LibsvmConfig};
use rheem_datagen::tax::{columns, TaxConfig};
use rheem_graph::{ConnectedComponents, PageRank};
use rheem_ml::{KMeansTrainer, SvmTrainer};

fn java() -> RheemContext {
    RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
}

fn spark() -> RheemContext {
    RheemContext::new().with_platform(Arc::new(
        SparkLikePlatform::new(4).with_overheads(OverheadConfig::none()),
    ))
}

fn mapreduce() -> RheemContext {
    RheemContext::new().with_platform(Arc::new(
        MapReduceLikePlatform::new(4)
            .with_overheads(OverheadConfig::none())
            .with_spill_dir(std::env::temp_dir().join(format!("rheem_e2e_{}", std::process::id()))),
    ))
}

#[test]
fn svm_model_is_identical_across_all_three_engines() {
    let data = generate(&LibsvmConfig::new(300, 6));
    let trainer = SvmTrainer::new(6).with_iterations(25);
    let (m_java, _) = trainer.train(&java(), data.clone()).unwrap();
    let (m_spark, _) = trainer.train(&spark(), data.clone()).unwrap();
    let (m_mr, _) = trainer.train(&mapreduce(), data.clone()).unwrap();
    for (a, b) in m_java.weights.iter().zip(&m_spark.weights) {
        assert!((a - b).abs() < 1e-9);
    }
    for (a, b) in m_java.weights.iter().zip(&m_mr.weights) {
        // The MapReduce engine round-trips floats through disk with a
        // loss-free codec, so even this must agree to high precision.
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
    assert!(m_java.accuracy(&data).unwrap() > 0.9);
}

#[test]
fn cleaning_detection_and_repair_agree_across_engines() {
    let (data, _) = rheem_datagen::tax::generate(&TaxConfig::new(1_500).with_seed(5));
    let rule =
        DenialConstraint::functional_dependency("fd", columns::ID, columns::ZIP, columns::STATE);
    let (v_java, _) = detect(
        &java(),
        data.clone(),
        &rule,
        DetectionStrategy::OperatorPipeline,
    )
    .unwrap();
    let (v_spark, _) = detect(
        &spark(),
        data.clone(),
        &rule,
        DetectionStrategy::OperatorPipeline,
    )
    .unwrap();
    assert_eq!(v_java, v_spark);
    assert!(!v_java.is_empty());

    // Repair once, re-detect everywhere: zero violations.
    let repaired = repair_fd(&data, &rule).unwrap();
    for ctx in [java(), spark(), mapreduce()] {
        let (v, _) = detect(
            &ctx,
            repaired.clone(),
            &rule,
            DetectionStrategy::OperatorPipeline,
        )
        .unwrap();
        assert!(v.is_empty());
    }
}

#[test]
fn iejoin_detection_runs_on_all_engines() {
    let (data, _) = rheem_datagen::tax::generate(
        &TaxConfig::new(2_000)
            .with_seed(9)
            .with_error_rates(0.0, 0.005),
    );
    let rule =
        DenialConstraint::inequality("ineq", columns::ID, columns::SALARY, columns::TAX_RATE);
    let (v_java, _) = detect(&java(), data.clone(), &rule, DetectionStrategy::IeJoin).unwrap();
    let (v_spark, _) = detect(&spark(), data.clone(), &rule, DetectionStrategy::IeJoin).unwrap();
    let (v_mr, _) = detect(&mapreduce(), data, &rule, DetectionStrategy::IeJoin).unwrap();
    assert_eq!(v_java, v_spark);
    assert_eq!(v_java, v_mr);
    assert!(!v_java.is_empty());
}

#[test]
fn pagerank_ranks_agree_across_engines() {
    let edges = rheem_datagen::preferential_attachment(300, 2, 4);
    let pr = PageRank::default().with_iterations(10);
    let (r_java, _) = pr.run(&java(), edges.clone()).unwrap();
    let (r_spark, _) = pr.run(&spark(), edges).unwrap();
    assert_eq!(r_java.len(), r_spark.len());
    for ((n1, v1), (n2, v2)) in r_java.iter().zip(&r_spark) {
        assert_eq!(n1, n2);
        assert!((v1 - v2).abs() < 1e-9);
    }
}

#[test]
fn connected_components_agree_across_engines() {
    let edges = rheem_datagen::disjoint_cycles(3, 8);
    let cc = ConnectedComponents::default().with_iterations(10);
    let (l_java, _) = cc.run(&java(), edges.clone()).unwrap();
    let (l_spark, _) = cc.run(&spark(), edges).unwrap();
    assert_eq!(l_java, l_spark);
}

#[test]
fn kmeans_through_logical_layer_runs_on_spark() {
    let mut points = Vec::new();
    for (cx, cy) in [(0.0, 0.0), (20.0, 20.0)] {
        for i in 0..30 {
            let d = i as f64 * 0.01;
            points.push(rec![cx + d, cy - d]);
        }
    }
    let trainer = KMeansTrainer::new(2, 2).with_iterations(8);
    let (c_java, _) = trainer.train(&java(), &points).unwrap();
    let (c_spark, _) = trainer.train(&spark(), &points).unwrap();
    assert_eq!(c_java.centroids.len(), 2);
    for ((id1, a), (id2, b)) in c_java.centroids.iter().zip(&c_spark.centroids) {
        assert_eq!(id1, id2);
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}

#[test]
fn optimizer_routes_whole_applications_sensibly() {
    // With all platforms registered, training on tiny data must pick the
    // single-process engine (Figure 2's small-data side).
    let ctx = rheem_platforms::test_context();
    let data = generate(&LibsvmConfig::new(200, 4));
    let trainer = SvmTrainer::new(4).with_iterations(10);
    let (plan, _) = trainer.build_plan(data).unwrap();
    let exec = ctx.optimize(plan).unwrap();
    let loop_node = exec
        .physical
        .nodes()
        .iter()
        .find(|nd| matches!(nd.op, rheem_core::PhysicalOp::Loop { .. }))
        .unwrap();
    assert_eq!(
        exec.assignments[loop_node.id.0],
        "java",
        "tiny iterative job belongs on the single-process engine:\n{}",
        exec.explain()
    );
}
