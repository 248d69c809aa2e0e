#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
#
# Runs formatting, lints (warnings are errors), a release build, and the
# full test suite. Any failure fails the gate.
set -euo pipefail
cd "$(dirname "$0")"

# The committed BENCH_*.json are full-run numbers; nothing this gate runs
# (quick benches write under target/bench-quick/) may touch them. Checked
# again at the end.
bench_sums=$(sha256sum BENCH_*.json)

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# One operator table: `kernels::execute` is the only place an operator
# becomes a kernel call. The engines hold plumbing only (no kernel call, no
# `PhysicalOp` variant named), and the interpreter calls no kernel but the
# table.
echo "==> one operator table: no kernel dispatch outside kernels::execute"
nontest() { sed '/^#\[cfg(test)\]/,$d' "$1"; }
for f in crates/platforms/src/sparklike.rs crates/platforms/src/mapreduce.rs; do
  if nontest "$f" | grep -nE 'kernels::|PhysicalOp::'; then
    echo "$f names a kernel or a PhysicalOp variant"; exit 1
  fi
done
if nontest crates/core/src/interpreter.rs \
    | grep -nE '(parallel|chunked|kernels)::[a-z_]+\(' | grep -v 'kernels::execute('; then
  echo "crates/core/src/interpreter.rs calls a kernel directly"; exit 1
fi

# One enumerator: `optimizer::enumerate` is the only way a plan is
# enumerated; no strategy switch, wall-clock budget or movement flag comes
# back.
echo "==> one enumerator: no strategy option, no second entry point"
if grep -rnE 'EnumerationStrategy|with_enumeration_v2|enumerate_with_config|max_enumeration_ms|consider_movement_costs' \
    crates src tests examples; then
  echo "a deleted enumeration option or entry point is named again"; exit 1
fi

# One fusion pass, one declarative fold, one way to price a kernel: the
# closure-composing map/filter fusion, the per-field reduce spec, the
# declared kernel-thread speedup and the `observe-json` feature stay deleted.
echo "==> closed forks: no second fusion, reduce spec, declared speedup or observe feature"
if grep -rnE 'FieldReduce|ReduceUdf::from_spec|fn fuse_maps|fn fuse_filters|\bkernel_threads\b|observe-json' \
    crates src tests examples; then
  echo "a deleted fork is named again"; exit 1
fi

# A job's settings are stated once: the context is the only owner (no
# `Executor` builder, no schedule mode, no second width), the thread budget
# is one number with no environment override, a platform's channels are asked
# of the platform, and fault injection is a pure function of (atom, attempt).
echo "==> one spelling per setting: no executor builder, mode, env override or channel table"
if grep -rnE 'ScheduleMode|max_parallel_atoms|RHEEM_KERNEL_THREADS|ExecutorConfig|Executor::new|channelized|declare_channels|set_per_record|fail_next|RHEEM_WORKERS' \
    crates src tests examples; then
  echo "a deleted setting, builder or injection mode is named again"; exit 1
fi

# One owner per operator choice: `LogicalPlan::lower` maps logical to
# physical operators, `Platform::supports` + `kernels::execute` map physical
# to execution operators; no hint table, triple store or batch driver comes
# back.
echo "==> one owner per operator choice: no mapping registry, triple store or batch driver"
if grep -rnE 'MappingRegistry|TripleStore|MicroBatchDriver|micro_batches|SimpleLogicalOperator|load_spec|dump_spec|optimizer::application|rheem_core::(mapping|triples|streaming)' \
    crates src tests examples; then
  echo "a deleted operator-mapping mechanism is named again"; exit 1
fi

# One record per job: the `ExecutionStats` a job returns is what monitoring
# renders (`explain_observed`), what the replay tests compare
# (`testkit::work`) and what `Observability` folds its counters from, once
# when the job ends; no span tree, trace sink, operator-kind tag, progress
# callback or mirrored breaker gauge comes back.
echo "==> one record per job: no trace spans, sinks, operator-kind tag or progress callbacks"
if grep -rnE 'TraceSink|RingBufferSink|JsonLinesSink|SpanRecord|SpanKind|canonical_tree|with_sink|JobTrace|OpKind|ProgressListener|with_progress_listener|on_atom_start|on_atom_retry|on_job_complete|mirror_to|breaker_open\b' \
    crates src tests examples; then
  echo "a deleted trace, classification or progress-callback name is named again"; exit 1
fi

# Storage keeps what its callers use: reads and writes by id (l-store), the
# placement catalog (p-store), `MemStore` and `SimHdfsStore` behind `Store`
# (x-store), the hot buffer, Cartilage plans and the native codec. No storage
# optimizer, request/atom model, store kind, local-FS or relational store
# comes back.
echo "==> storage census: no storage optimizer, request model or extra stores"
if grep -rnE 'AccessPattern|CostTable|StorageDecision|StorageRequest|StorageAtom|submit_all|StoreKind|LocalFsStore|RelationalStore|with_observed_hot_buffer|to_csv' \
    crates src tests examples; then
  echo "a deleted storage name is named again"; exit 1
fi

# The algebra and the apps keep what something builds: no physical
# operator, logical payload, layout, kernel or app module that only its own
# tests built or called comes back.
echo "==> algebra census: no unbuilt operator, payload, layout or app module"
if grep -rnE 'PhysicalOp::(Distinct|Sample|ZipWithId|SortMergeJoin)|LogicalPayload::(FlatMap|Project|GlobalReduce|ThetaJoin|Union|Distinct|Custom|Count|StorageSink)\b|NarrowWithOffset|ByRecord|partition_by_record|sort_merge_join|zip_with_id|ShortestPaths|LogRegTrainer|cross_validate|train_test_split|build_scoring_plan|detect_all|apply_fixes|erdos_renyi' \
    crates src tests examples; then
  echo "a deleted operator, payload, layout or app name is named again"; exit 1
fi

# Per-query paths resolve no metric by name: a registry lookup takes its
# mutex, so handles are resolved once (per service, per tenant, or when an
# optimizer's metrics are attached) and a served query touches atomics only.
echo "==> per-query paths name no metric"
for spec in 'crates/server/src/service.rs:pub fn submit_handle<:pub fn cancel_job(' \
    'crates/core/src/optimizer/mod.rs:pub fn optimize(:pub fn replanner('; do
  IFS=: read -r file from to <<< "$spec"
  if awk -v from="$from" -v to="$to" 'index($0, from) { on = 1 } index($0, to) { on = 0 } on' "$file" \
      | grep -nE '\.(counter|gauge|histogram)\('; then
    echo "$file resolves a metric by name between '$from' and '$to'"; exit 1
  fi
done

echo "==> cargo build --release"
cargo build --release

# Examples are compiled by clippy above; these five take under a second each
# in release, so they also run and their inline assertions execute.
echo "==> run the sub-second examples (release)"
for ex in quickstart sql_analytics graph_analytics lambda_architecture oil_gas_pipeline; do
  cargo run -q --release --example "$ex" > /dev/null
done

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo test --workspace --release"
cargo test --workspace -q --release

# Seeded fault-injection stress pass: the vendored proptest stub derives
# each case's RNG from the test name + case index, so elevating the case
# count explores more injected outages while staying fully reproducible.
echo "==> fault-injection stress pass (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q --release --test fault_tolerance

# The committed kernel-ablation numbers must carry the columnar join and
# hash-aggregate entries, the served filter and join shapes, and the
# timer-resolution honesty flag (sub-resolution timings are flagged, never
# reported as inflated speedups).
echo "==> BENCH_kernels.json schema check"
for key in '"bench": "ablation_kernels"' '"timer_resolution_ms"' \
    '"below_timer_resolution"' '"kernel":"hash_join"' '"kernel":"hash_group"' \
    '"kernel":"hash_aggregate_int_key"' '"kernel":"hash_aggregate_dict_key"' \
    '"kernel":"hash_aggregate_global"' '"kernel":"filter_selective"' \
    '"kernel":"filter_all_pass"' '"kernel":"hash_join_dense_key"'; do
  grep -qF "$key" BENCH_kernels.json \
    || { echo "BENCH_kernels.json missing $key"; exit 1; }
done

# Enumeration oracle smoke: the enumerator must match the exhaustive
# optimum on every sampled plan (seeded vendored proptest — reproducible),
# including under random calibration tables and config variations.
echo "==> enumeration vs exhaustive oracle (PROPTEST_CASES=32)"
PROPTEST_CASES=32 cargo test -q --release --test enumeration

# Enumeration ablation, quick mode: asserts inline that the enumerator
# equals the oracle on the small sweep and on the served path's join plan,
# and that the 120-op plan stays on the lattice path within the default
# budget; then sanity-check the schema of what it emitted and of the
# committed full run.
echo "==> ablation_enumeration (ENUM_BENCH_QUICK=1) + schema check"
ENUM_BENCH_QUICK=1 cargo bench -q -p rheem-bench --bench ablation_enumeration
for f in target/bench-quick/BENCH_enumeration.json BENCH_enumeration.json; do
  for key in '"bench": "ablation_enumeration"' '"entries"' '"costs_match":true' \
      '"shape":"large"' '"within_budget":true' '"shape":"sql_join"' \
      '"cold_optimize_us"'; do
    grep -qF "$key" "$f" || { echo "$f missing $key"; exit 1; }
  done
done

# Server smoke: start a real server, run two concurrent tenant sessions
# over live sockets (registration, queries, stats, goodbye), and verify a
# clean shutdown — the release-mode run of the dedicated integration test.
echo "==> server smoke (2 concurrent sessions + clean shutdown)"
cargo test -q --release -p rheem-server --test server_smoke

# Data path in and out of a session: it encodes a response from the sink's
# chunk and decodes a REGISTER into the chunk the catalog holds, so server.rs
# must not ask a dataset for its rows nor hand the catalog decoded rows (the
# row walks for chunk-less results and ragged frames live in protocol.rs,
# next to the one value encoding and the one row grammar). Both directions
# are held to the row form byte for byte over generated dirty tables — chunk
# vs rows on the way out, column sink vs row sink (and their verdicts on
# truncated and corrupted frames) on the way in — every other frame gets a
# typed verdict within bounded allocation however it is cut or corrupted, and
# the footprint of a registered table is counted with a counting allocator.
# Release mode.
echo "==> session data path: no rows in server.rs + codec equivalence + footprint"
if nontest crates/server/src/server.rs \
    | grep -nE 'into_records\(|\.records\(\)|catalog\.register\('; then
  echo "crates/server/src/server.rs materializes a row view or registers rows"; exit 1
fi
cargo test -q --release -p rheem-server --test result_encoding
cargo test -q --release -p rheem-server --test register_decoding
cargo test -q --release -p rheem-server --test frame_decoding
cargo test -q --release -p rheem-server --test register_footprint

# What the server owes a client at the socket: TCP_NODELAY on every accepted
# stream (a response never waits out the peer's delayed ACK), a session's
# stream clone released when the session ends, and the session's own clock
# (server.request_us + server.stage.*_us) accounting for every request.
# Nothing here pins the client's two writes per request — that half goes as
# soon as the harness allows (ROADMAP item 1).
echo "==> transport: NODELAY on accept, stream clone released, stage clocks"
# (`> /dev/null`, not `-q`: under pipefail a grep that stops at its first
# match fails the pipeline when `sed` is cut off mid-write.)
nontest crates/server/src/server.rs | grep -F 'set_nodelay(true)' > /dev/null \
  || { echo "crates/server/src/server.rs no longer sets TCP_NODELAY on accepted streams"; exit 1; }
if nontest crates/server/src/server.rs | grep -nE 'session_streams[^;]*\.push\('; then
  echo "session_streams is pushed to again: a stream clone needs a slot its session releases"; exit 1
fi
nontest crates/server/src/server.rs | grep -E 'session_streams\.lock\(\)\.remove\(' > /dev/null \
  || { echo "nothing releases a session's stream clone from session_streams"; exit 1; }
cargo test -q --release -p rheem-server --test transport

# Cancellation/panic chaos smoke: seeded random plans, cancel points, and
# panicking UDFs against the shared job service (thread budgets 1 and 4 via
# the proptest strategy; the vendored proptest stub seeds each case from
# the test name, so the sweep is reproducible), plus the deterministic
# mid-morsel cancel, deadline-shed, idle-eviction, and bounded-shutdown
# integration tests.
echo "==> cancellation/panic chaos smoke (PROPTEST_CASES=16)"
PROPTEST_CASES=16 cargo test -q --release -p rheem-server --test cancellation

# Server load generator, quick mode: closed-loop multi-tenant run that
# asserts fair-share wave interleaving, a nonzero plan-cache hit rate,
# byte-identical cached outputs, and post-cancel-storm serviceability
# inline; then sanity-check the emitted BENCH_server.json schema.
echo "==> ablation_server (SERVER_BENCH_QUICK=1) + schema check"
SERVER_BENCH_QUICK=1 cargo bench -q -p rheem-bench --bench ablation_server
for key in '"bench": "ablation_server"' '"tenants": 2' '"throughput_rps"' \
    '"p50"' '"p99"' '"per_tenant"' '"server_request_us_p50_le"' '"server_side_us"' \
    '"stage_sums"' '"grant_switches"' '"hit_rate"' \
    '"cancel_storm"' '"shed_deadline"' '"outputs_match": true'; do
  grep -qF "$key" target/bench-quick/BENCH_server.json \
    || { echo "target/bench-quick/BENCH_server.json missing $key"; exit 1; }
done

# The end-to-end benchmark is a package of its own (benchmark/Cargo.toml)
# compiled against this workspace's public API: its tests include a 3 s
# traced smoke run that takes its kernel arguments out of the SQL plans, so
# this is what holds the plan shapes and signatures it relies on in place.
echo "==> benchmark package tests (plan shapes + public API it compiles against)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> committed BENCH_*.json untouched by this run"
if [ "$bench_sums" != "$(sha256sum BENCH_*.json)" ]; then
  echo "a committed BENCH_*.json changed during the gate:"
  git status --short -- 'BENCH_*.json'
  exit 1
fi

echo "OK: all tier-1 checks passed"
