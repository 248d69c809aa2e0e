//! BigDansing in action (paper §5): declare data quality rules, detect
//! violations under several physical strategies, and repair.
//!
//! Run with: `cargo run --example data_cleaning --release`

use std::sync::Arc;

use rheem::prelude::*;
use rheem_cleaning::{
    count_violations, detect, gen_fixes, not_null, range_check, repair_fd, DenialConstraint,
    DetectionStrategy,
};
use rheem_datagen::tax::{columns, generate, TaxConfig};

fn main() -> Result<(), RheemError> {
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(SparkLikePlatform::new(8)));

    // A dirty tax dataset (the BigDansing evaluation workload).
    let (data, injected) = generate(
        &TaxConfig::new(20_000)
            .with_seed(7)
            .with_error_rates(0.01, 0.0005),
    );
    println!(
        "generated {} tax records with {} FD-dirty and {} inequality-dirty records\n",
        data.len(),
        injected.fd_dirty_records,
        injected.ineq_dirty_records
    );

    // Rule 1: the FD zip → state.
    let fd = DenialConstraint::functional_dependency(
        "zip-determines-state",
        columns::ID,
        columns::ZIP,
        columns::STATE,
    );
    // Rule 2: nobody earns more yet pays a lower rate.
    let ineq = DenialConstraint::inequality(
        "higher-salary-higher-rate",
        columns::ID,
        columns::SALARY,
        columns::TAX_RATE,
    );

    // Detection under different physical strategies. Granularity matters
    // on the *distributed* engine (Figure 3 left), so pin these runs there.
    let spark_ctx = RheemContext::new().with_platform(Arc::new(SparkLikePlatform::new(8)));
    println!("rule: {} (on the Spark-like engine)", fd.name);
    for strategy in [
        DetectionStrategy::OperatorPipeline,
        DetectionStrategy::SingleUdf,
    ] {
        let (violations, result) = detect(&spark_ctx, data.clone(), &fd, strategy)?;
        println!(
            "  {strategy:?}: {} violations, simulated {:.1} ms",
            violations.len(),
            result.stats.total_simulated_ms(),
        );
    }

    println!("rule: {}", ineq.name);
    for strategy in [DetectionStrategy::IeJoin, DetectionStrategy::CrossProduct] {
        let (violations, result) = detect(&ctx, data.clone(), &ineq, strategy)?;
        println!(
            "  {strategy:?}: {} violations, simulated {:.1} ms",
            violations.len(),
            result.stats.total_simulated_ms(),
        );
    }

    // GenFix + repair: majority-vote equivalence-class repair for the FD.
    let (violations, _) = detect(&ctx, data.clone(), &fd, DetectionStrategy::OperatorPipeline)?;
    let fixes = gen_fixes(&data, &fd, &violations)?;
    println!(
        "\nGenFix proposed {} candidate fixes for {} violations",
        fixes.len(),
        violations.len()
    );
    let repaired = repair_fd(&data, &fd)?;
    let remaining = count_violations(&ctx, repaired, &fd, DetectionStrategy::OperatorPipeline)?;
    println!("after equivalence-class repair: {remaining} violations remain");

    // Unary (single-tuple) rules complete the rule set: domain checks need
    // no pairing at all.
    println!(
        "
unary rules:"
    );
    let (below, above) = range_check("plausible-salary", columns::ID, columns::SALARY, 1.0, 1e7);
    for rule in [
        not_null("state-present", columns::ID, columns::STATE),
        below,
        above,
    ] {
        let (violations, _) = rule.detect(&ctx, data.clone())?;
        println!("  {}: {} violations", rule.name, violations.len());
    }

    Ok(())
}
