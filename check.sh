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

# One runner per experiment: a `*_table` binary prints each table
# EXPERIMENTS.md shows, `benchmark/` is the one server load generator, and
# the two benches left time themselves; no stub bench harness or second load
# generator comes back. (Bracketed so that this file does not match itself.)
echo "==> one runner per experiment: no bench-harness stub or second load generator"
if grep -rnE 'crit[e]rion|ablation_s[e]rver|BENCH_s[e]rver|SERVER_BENCH_Q[U]ICK' \
    crates tests examples vendor Cargo.toml check.sh; then
  echo "a deleted bench harness or load generator is named again"; exit 1
fi

# One enumerator: `optimizer::enumerate` is the only way a plan is
# enumerated; no strategy switch, wall-clock budget or movement flag comes
# back.
echo "==> one enumerator: no strategy option, no second entry point"
if grep -rnE 'EnumerationStrategy|with_enumeration_v2|enumerate_with_config|max_enumeration_ms|consider_movement_costs' \
    crates src tests examples; then
  echo "a deleted enumeration option or entry point is named again"; exit 1
fi

# One fusion pass, one declarative fold, one way to price a kernel, one
# shape of a registered table, one comparison semantics: the
# closure-composing map/filter fusion, the per-field reduce spec, the
# declared kernel-thread speedup, the `observe-json` feature, the REGISTER
# row fallback's path counters, and the expression IR's total-order
# comparisons and non-SQL division stay deleted.
echo "==> closed forks: no second fusion, reduce spec, declared speedup, observe feature, row-registered table or comparison family"
if grep -rnE 'FieldReduce|ReduceUdf::from_spec|fn fuse_maps|fn fuse_filters|\bkernel_threads\b|observe-json|server\.register\.path|BinOp::(Eq|Ne|Lt|Le|Gt|Ge|Div)\b' \
    crates src tests examples; then
  echo "a deleted fork is named again"; exit 1
fi

# One way to price an operator: a platform states its clock, and the
# optimizer applies it to the one kernel-rate table every engine's observed
# sequential kernel work fits; no per-platform cost prior, (operator,
# platform) EMA, unread cardinality fold, unpriced channel-ingest charge,
# task-size knob or per-engine-kind rate key comes back.
echo "==> one way to price an operator: no cost-model priors, EMA or unpriced charges"
if grep -rnE 'LinearCostModel|RelationalCostModel|PlatformCostModel|calibrated_op_cost|DEFAULT_ALPHA|with_alpha|card_factor|channel_ingest_ms|min_records_per_task|with_cost_model' \
    crates src tests examples; then
  echo "a deleted pricing mechanism is named again"; exit 1
fi
# One rate per kernel: every engine records sequential work, so the rate
# table, the clocks and the calibration run key no rate by engine kind; no
# code line of theirs names `partitioned` (comments may; the hash engine's
# radix-partition flag in kernels/hash.rs is another matter).
if grep -rnw 'partitioned' crates/core/src/observe crates/core/src/cost.rs crates/bench/src \
    | grep -vE '^[^:]+:[0-9]+:\s*//'; then
  echo "a rate is keyed by engine kind again"; exit 1
fi
# One string type: a value's string, a dictionary entry, a key lane and a
# decoded wire or storage string are all `Text` (one 8-byte pointer, so a
# `Value` is 16 bytes and an entry and the values read from it share one
# allocation); no fat `Arc` of `str` comes back beside it.
if grep -rnE 'Arc<\s*str\s*>' \
    crates/core/src/data crates/core/src/kernels crates/server/src/protocol.rs crates/storage/src; then
  echo "a second string type is back in values, dictionaries, kernels, the wire or storage"; exit 1
fi

# One work clock: a kernel's work — an interpreted node, a morsel worker's
# share, a partitioned task — and an engine's simulated time are read on
# `observe::WorkClock` (wall time less run-queue wait); no wall-clock
# `Instant` times a kernel or an atom, and no summed or overlap-capped
# morsel time comes back.
echo "==> one work clock: kernel work is read on the WorkClock only"
if grep -rn 'Instant::now' crates/core/src/kernels.rs crates/core/src/kernels \
    crates/core/src/interpreter.rs crates/platforms/src/partition.rs \
    crates/platforms/src/runner.rs \
    || grep -rnE 'ran_ns|overlap_ms' crates; then
  echo "kernel work is timed off the work clock again"; exit 1
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

# A platform states itself once: its clock carries the channels it reads
# and writes, a boundary is priced from one fixed conversion table without
# allocating, and re-planning runs on the optimizer's own models; no
# processing-profile enum, channel accessor, general conversion graph or
# re-planner holding copies of those models comes back.
echo "==> a platform states itself once: no profile enum, conversion graph or replanner"
if grep -rnE 'ProcessingProfile|ChannelConversionGraph|cheapest_path|Replanner|fn replanner|fn profile\(|fn channels\(' \
    crates src tests examples; then
  echo "a deleted platform statement, conversion graph or replanner is named again"; exit 1
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
# tests built or called comes back. The apps are the paper's (SVM,
# BigDansing and §1's regression): no graph app, k-means or logical loop.
echo "==> algebra census: no unbuilt operator, payload, layout or app module"
if grep -rnE 'PhysicalOp::(Distinct|Sample|ZipWithId|SortMergeJoin|CountSink)|LogicalPayload::(FlatMap|Project|GlobalReduce|ThetaJoin|Union|Distinct|Custom|Count|StorageSink|Loop|LoopInput|CrossProduct|Reduce)\b|rheem[_-]graph|KMeansTrainer|PageRank|ConnectedComponents|triangle_count|preferential_attachment|disjoint_cycles|read_count|NarrowWithOffset|ByRecord|partition_by_record|sort_merge_join|zip_with_id|ShortestPaths|LogRegTrainer|cross_validate|train_test_split|build_scoring_plan|detect_all|apply_fixes|erdos_renyi|register_storage|TableSource|LogicalPayload::StorageSource|PhysicalOp::StorageSink|write_storage|wave_slots' \
    crates src tests examples Cargo.toml Cargo.lock; then
  echo "a deleted operator, payload, layout or app name is named again"; exit 1
fi

# Each crate states its public surface: every module is private and its
# `lib.rs` re-exports what other crates use, so `dead_code` (clippy above)
# reaches every item. The public modules are the ones the standalone
# `benchmark` package names by path, and the modules that keep apart two
# items of the same name (`fig2`/`fig3::render`, `libsvm`/`tax::generate`,
# and `tax::columns`' index constants).
echo "==> stated surfaces: no public module but the listed ones"
if grep -rnE '^\s*pub mod ' crates/*/src | grep -vE '^(crates/core/src/lib\.rs:[0-9]+:pub mod (kernels|logical|query|udf);|crates/core/src/kernels\.rs:[0-9]+:pub mod (chunked|parallel);|crates/core/src/query/mod\.rs:[0-9]+:pub mod parser;|crates/server/src/lib\.rs:[0-9]+:pub mod protocol;|crates/datagen/src/lib\.rs:[0-9]+:pub mod (libsvm|tax);|crates/datagen/src/tax\.rs:[0-9]+:pub mod columns \{|crates/bench/src/lib\.rs:[0-9]+:pub mod (fig2|fig3);)$'; then
  echo "a module above is public but not on the list; make it private and re-export what other crates use"; exit 1
fi

# Per-query paths resolve no metric by name: a registry lookup takes its
# mutex, so handles are resolved once (per service, per tenant, or when an
# optimizer's metrics are attached) and a served query touches atomics only.
echo "==> per-query paths name no metric"
for spec in 'crates/server/src/service.rs:pub fn submit_handle<:pub fn cancel_job(' \
    'crates/core/src/optimizer/mod.rs:pub fn optimize(:fn optimize_logical('; do
  IFS=: read -r file from to <<< "$spec"
  if awk -v from="$from" -v to="$to" 'index($0, from) { on = 1 } index($0, to) { on = 0 } on' "$file" \
      | grep -nE '\.(counter|gauge|histogram)\('; then
    echo "$file resolves a metric by name between '$from' and '$to'"; exit 1
  fi
done

# The system is described once: DESIGN.md as it stands, in at most
# 40 000 B and with no per-change history (that is CHANGES.md's), README.md
# in at most 12 000 B, pointing to it; and every `DESIGN.md §N` reference
# names one of its `## N.` headings.
echo "==> docs: sizes, no change history in DESIGN.md, section references resolve"
design_bytes=$(wc -c < DESIGN.md)
readme_bytes=$(wc -c < README.md)
if [ "$design_bytes" -gt 40000 ] || [ "$readme_bytes" -gt 12000 ]; then
  echo "DESIGN.md is $design_bytes B (at most 40000), README.md $readme_bytes B (at most 12000)"; exit 1
fi
if grep -nE 'PR [0-9]+' DESIGN.md; then
  echo "DESIGN.md names a change; history belongs in CHANGES.md"; exit 1
fi
unresolved=0
while IFS= read -r ref; do
  if ! grep -qE "^## ${ref##*§}\. " DESIGN.md; then
    echo "$ref: DESIGN.md has no section ${ref##*§}"; unresolved=1
  fi
done < <(grep -rnoE 'DESIGN\.md`? §[0-9]+' crates src tests examples README.md EXPERIMENTS.md .claude)
[ "$unresolved" = 0 ] || exit 1
# Each CHANGES.md entry of the newest change (a line that begins
# `- **PR <n>` for the largest <n>) is at most 1 500 B; tables and detail go
# on lines of their own.
newest=$(grep -oE '^- \*\*PR [0-9]+' CHANGES.md | grep -oE '[0-9]+$' | sort -n | tail -1)
if grep -E "^- \*\*PR ${newest}([^0-9]|$)" CHANGES.md \
    | LC_ALL=C awk 'length($0) > 1500 { print length($0) " B: " substr($0, 1, 72); long = 1 } END { exit !long }'; then
  echo "a CHANGES.md entry of PR $newest is over 1500 B"; exit 1
fi

echo "==> cargo build --release"
cargo build --release

# Examples are compiled by clippy above; these four take under a second each
# in release, so they also run and their inline assertions execute.
echo "==> run the sub-second examples (release)"
for ex in quickstart sql_analytics lambda_architecture oil_gas_pipeline; do
  cargo run -q --release --example "$ex" > /dev/null
done

echo "==> cargo test --workspace"
cargo test --workspace -q

# The release pass also holds the optimizer's choice against forced runs
# (tests/platform_choice.rs, ignored in debug: the seeded kernel rates
# describe release-built kernels).
echo "==> cargo test --workspace --release"
cargo test --workspace -q --release

# Seeded fault-injection stress pass: the vendored proptest stub derives
# each case's RNG from the test name + case index, so elevating the case
# count explores more injected outages while staying fully reproducible.
echo "==> fault-injection stress pass (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q --release --test fault_tolerance

# The same for the SQL oracle: more generated statements over dirty tables,
# each also run over a copy of its table with unread columns ahead of the
# read ones, which moves every lane a scan binds.
echo "==> SQL oracle stress pass (PROPTEST_CASES=256)"
PROPTEST_CASES=256 cargo test -q --release --test sql_lowering

# The same for the chunk join's twin: generated probe and build windows
# whose join shares the probe side and key lane or gathers them (unique and
# repeated keys, every row matched or a first miss at row 0, mid or last,
# empty sides, typed and generic key lanes).
echo "==> join twin stress pass (PROPTEST_CASES=256)"
PROPTEST_CASES=256 cargo test -q --release --test columnar_kernels prop_join_twin

# The same for REGISTER decoding: generated dirty tables, truncations,
# corruptions and tables not as wide as their schema, from a slice and from a
# stream.
echo "==> REGISTER decoding stress pass (PROPTEST_CASES=256)"
PROPTEST_CASES=256 cargo test -q --release -p rheem-server --test register_decoding

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
# row walk for chunk-less results lives in protocol.rs, next to the one value
# encoding and the one row grammar). Both directions are held to the row
# form byte for byte over generated dirty tables — chunk vs rows on the way
# out, the REGISTER decoder's chunk vs the table's rows on the way in, from a
# slice and from a stream (with one verdict on truncated, corrupted, cut-off
# and misshapen frames) — every other frame gets a typed verdict within
# bounded allocation however it is cut or corrupted, a result larger than a
# frame is an error its session survives, and the footprint of a registered
# table, of one in flight and of 2 000 requests is counted with a counting
# allocator.
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
# On the client's side, a REGISTER leaves as one write stream, so a table
# upload never waits out the server's delayed ACK (transport.rs's real-Client
# twin of the one-write test). Still open: every other request, QUERY among
# them, is two writes with Nagle on — that goes as soon as the harness allows
# (ROADMAP item 1).
echo "==> transport: NODELAY on accept, one-write REGISTER, stream clone released, stage clocks"
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

# Every ablation has one runner: `ablation_table` prints A–F and the
# scheduling, re-planning and failover reports, each from the same `run_*`
# function the bench crate's unit tests assert on; this runs it end to end.
echo "==> ablation_table --quick"
cargo run -q --release -p rheem-bench --bin ablation_table -- --quick > /dev/null

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
