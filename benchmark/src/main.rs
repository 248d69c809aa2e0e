//! SQL-over-the-socket benchmark for `rheem-server` (see README.md).
//!
//! ```text
//! rheem-benchmark [--seed N] [--seconds S] [--runs K] [--quick] [--out DIR]
//!     every workload, each run in a fresh child process (a re-exec of this
//!     program), an untraced run per `--runs` and one traced run; prints
//!     every metric and writes DIR/results.json
//! rheem-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//!     one run of one workload in this process; the last line of stdout is
//!     the result as one JSON object
//! rheem-benchmark --compare A.json B.json
//!     both medians, their ratio, the bound and ok / worse / unresolved per
//!     (metric, workload); exits non-zero on `worse`
//! ```

mod compare;
mod json;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod verify;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::{obj, Json};
use metrics::{END_TO_END, PER_LAYER};
use run::{RunOptions, RunResult};
use workload::{Workload, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise; the same
/// number as `run_seconds` in BENCHMARK.json.
const RUN_SECONDS: u64 = 20;
const QUICK_SECONDS: u64 = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workload::DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        // Relative to the working directory: run from the repository root.
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = Some(number(value()?)?.max(1)),
            "--trace" => args.trace = number(value()?)? != 0,
            "--runs" => args.runs = number(value()?)?.max(1) as usize,
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn options(&self, seed: u64) -> RunOptions {
        let default = if self.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS
        };
        RunOptions {
            seed,
            window: Duration::from_secs(self.seconds.unwrap_or(default)),
            quick: self.quick,
        }
    }
}

fn trace_file(out: &Path, workload: &Workload) -> PathBuf {
    out.join(format!("trace-{}.jsonl", workload.name))
}

/// One run in this process.
fn run_here(workload: &'static Workload, args: &Args) -> Result<RunResult, String> {
    let options = args.options(args.seed);
    if args.trace {
        run::traced(workload, &options, &trace_file(&args.out, workload))
    } else {
        run::untraced(workload, &options)
    }
}

/// One run in a fresh child process; its report is passed through. A child
/// that answered wrongly exits non-zero, which ends the whole run.
fn run_child(workload: &Workload, args: &Args, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.options(seed).window.as_secs().to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(format!(
            "{}: the run failed ({})",
            workload.name, output.status
        ));
    }
    json::parse(last).map_err(|e| format!("{}: unreadable result line: {e}", workload.name))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload: `--runs` untraced children (run `r` on seed + r) and one
/// traced child. Writes `results.json`.
fn run_all(args: &Args) -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "rheem-benchmark: {} workloads, {} untraced run(s) + 1 traced run each, seed {} \
         (held-out seed: {}), {cpus} cpus{}\n",
        WORKLOADS.len(),
        args.runs,
        args.seed,
        workload::HELD_OUT_SEED,
        if args.quick {
            ", QUICK (not comparable)"
        } else {
            ""
        }
    );
    let mut workloads = std::collections::BTreeMap::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for r in 0..args.runs {
            runs.push(run_child(workload, args, args.seed + r as u64, false)?);
        }
        let traced = run_child(workload, args, args.seed, true)?;
        let counts = |key: &str| {
            Json::Arr(
                runs.iter()
                    .map(|r| r.get(key).cloned().unwrap_or(Json::Null))
                    .collect(),
            )
        };
        let mut end_to_end = std::collections::BTreeMap::new();
        for metric in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, metric.name))
                .collect();
            end_to_end.insert(
                metric.name.to_string(),
                obj([
                    ("unit", Json::str(metric.unit)),
                    ("better", Json::str(metric.better.as_str())),
                    ("bound", Json::Num(metric.bound)),
                    ("median", Json::Num(stats::median(&values))),
                    (
                        "spread",
                        stats::spread(&values).map_or(Json::Null, Json::Num),
                    ),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            );
        }
        let per_layer = PER_LAYER
            .iter()
            .map(|m| {
                let value = metric_value(&traced, m.name).map_or(Json::Null, Json::Num);
                let entry = obj([
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("value", value),
                    ("moves", Json::str(m.moves)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        workloads.insert(
            workload.name.to_string(),
            obj([
                ("why", Json::str(workload.why)),
                ("clients", Json::Num(workload.clients as f64)),
                ("rows", Json::Num(workload.rows(args.quick) as f64)),
                ("attempted", counts("attempted")),
                ("failed", counts("failed")),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        );
    }

    println!("summary (median of {} run(s) per workload):", args.runs);
    print!("{:<16}", "workload");
    for metric in END_TO_END {
        print!("{:>24}", format!("{} [{}]", metric.name, metric.unit));
    }
    println!();
    for workload in WORKLOADS {
        print!("{:<16}", workload.name);
        for metric in END_TO_END {
            let median = workloads[workload.name]
                .get("end_to_end")
                .and_then(|e| e.get(metric.name))
                .and_then(|m| m.get("median"))
                .and_then(Json::as_f64);
            print!(
                "{:>24}",
                median.map_or("n/a".to_string(), |m| format!("{m:.3}"))
            );
        }
        println!();
    }

    let results = obj([
        ("benchmark", Json::str("rheem-benchmark")),
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Num(args.seed as f64)),
        ("runs", Json::Num(args.runs as f64)),
        (
            "seconds",
            Json::Num(args.options(args.seed).window.as_secs_f64()),
        ),
        ("cpus", Json::Num(cpus as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = args.out.join("results.json");
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, results.pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return compare::compare(a, b);
        }
        let Some(name) = &args.workload else {
            return run_all(&args).map(|()| true);
        };
        let workload = workload::find(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{name}`; the workloads are {}",
                names.join(", ")
            )
        })?;
        let result = run_here(workload, &args)?;
        print!("{}", result.report);
        println!("{}", result.result_line());
        Ok(result.correct)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("rheem-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json is what the driver reads; the tables in `metrics.rs`
    /// and `workload.rs` are what the program uses. They must not drift.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("run from benchmark/");
        let file = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let list = |key: &str| file.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text_of =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(per_layer, expected);
    }

    /// A short traced run computes every metric `PER_LAYER` lists (it panics
    /// on one it does not) and its spans add up.
    #[test]
    fn traced_smoke_run_emits_every_per_layer_metric() {
        let workload = workload::find("point-1k").unwrap();
        let options = RunOptions {
            seed: workload::HELD_OUT_SEED,
            window: Duration::from_secs(3),
            quick: true,
        };
        // Next to the test binary: nothing is written outside the build directory.
        let file = std::env::current_exe()
            .unwrap()
            .with_extension("trace.jsonl");
        let result = run::traced(workload, &options, &file).expect("the traced run completes");
        let spans = std::fs::read_to_string(&file).expect("the trace file was written");
        std::fs::remove_file(&file).ok();
        assert!(result.correct, "{}", result.report);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(
            result.metrics.iter().all(|m| m.2.is_some()),
            "{}",
            result.report
        );
        for name in [
            "wire.query",
            "wire.setup",
            "protocol.transport",
            "executor.execute",
            "replay.offpath",
        ] {
            assert!(
                spans.contains(&format!("\"name\":\"{name}\"")),
                "no {name} span"
            );
        }
        assert!(spans.lines().all(|line| json::parse(line).is_ok()));
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap()
                .2
                .unwrap()
        };
        let sum = value("trace.layer_sum_ms") + value("server.session_self_ms");
        assert!((sum - value("trace.wire_p50_ms")).abs() < 1e-6);
    }

    /// A 1-second smoke run of `point-1k` through the real socket.
    #[test]
    fn one_second_smoke_run_of_point_1k() {
        let workload = workload::find("point-1k").unwrap();
        let options = RunOptions {
            seed: workload::DEFAULT_SEED,
            window: Duration::from_secs(1),
            quick: true,
        };
        let result = run::untraced(workload, &options).expect("the smoke run completes");
        assert!(result.correct, "{}", result.report);
        assert!(result.attempted >= 1 && result.failed == 0);
        let value = |name: &str| result.metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert!(value("query_p50_ms").unwrap() > 0.0);
        assert!(value("throughput_qps").unwrap() > 0.0);
        assert!(value("setup_s").unwrap() > 0.0);
        // One second cannot hold 200 queries at ~88 ms each: p95 is refused.
        assert_eq!(value("query_p95_ms"), None);
        let line = json::parse(&result.result_line()).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
}
