#!/usr/bin/env sh
# Offline CI gate: the workspace must build, test, and regenerate a
# representative experiment with no registry access and no external
# crates. Run from the repository root.
set -eu

# The tree must be rustfmt-clean. perfbench/ is a cargo workspace of its
# own, so `--all` does not reach it.
cargo fmt --all -- --check

# One warnings-as-errors build over every package and target (library,
# binaries, tests, benches, examples): the tree must be warning-clean,
# not just compile.
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets
# The examples drive memfs, the VM and the machine through the public
# API; the build above only compiles them, so run them. Together they
# take ~0.5 s on a 2-core x86-64 host (sizing_advisor, ~6 s, stays
# build-only). The same RUSTFLAGS reuse the build above.
for example in quickstart pda_organizer notebook_build battery_failure; do
    RUSTFLAGS="-D warnings" cargo run --release --offline --quiet --example "$example" >/dev/null
done
# Clippy's default lints over the same packages and targets, also as
# errors: a finding is fixed in code, not allowed.
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo test -q --offline --workspace

# Rustdoc must be warning-clean too: every intra-doc link resolves and no
# public doc links a private item, so a doc left pointing at a deleted or
# renamed item fails here. Paper citations are written `\[8\]` so rustdoc
# does not read them as links.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# The replay benchmark is a cargo workspace of its own, so the step
# above never builds it; its tests compile it against the crates' public
# API, and a signature change in memfs or core fails here rather than
# only when the benchmark next runs.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Invariant linter: per-file rules plus the interprocedural passes —
# workspace call graph, transitive hot-path allocation (H2), unit-suffix
# consistency (U2), and energy attribution (E1) (see DESIGN.md §8). The
# only way to accept a finding is an inline `// lint: allow(RULE): <why>`
# directive, and a directive that names an unknown rule, lacks a reason,
# or no longer suppresses anything is itself a diagnostic (A1), so this
# step fails the moment the tree and its allows drift apart. The linter
# is part of the edit loop, so its runtime is budgeted: a full workspace
# pass must finish inside 5 seconds (including cargo dispatch overhead).
# The warnings build above used other RUSTFLAGS, so cargo recompiles the
# linter; that happens here, outside the budget.
cargo build --release --offline -p ssmc-lint
LINT_START=$(date +%s%N)
cargo run --release --offline -p ssmc-lint -- --workspace
LINT_END=$(date +%s%N)
LINT_MS=$(( (LINT_END - LINT_START) / 1000000 ))
if [ "$LINT_MS" -gt 5000 ]; then
    echo "ssmc-lint workspace pass took ${LINT_MS}ms (budget 5000ms)" >&2
    exit 1
fi
cargo test -q --offline -p ssmc-lint

cargo run --release --offline -p ssmc-bench --bin experiments -- f2

# Bench smoke: the macrobenchmark harness must run end to end (short
# windows, no baselines asserted) — with the no-op recorder, so this is
# also the disabled-cost path of the observability layer.
cargo bench -p ssmc-bench --bench simulator --offline -- --smoke

# Allocation sentinel: a steady-state replay window must perform zero
# heap allocations per op (the dynamic half of the lint's H1 rule),
# and a full million-op compiled stream must replay from disk with flat
# memory — the streaming half decodes 1M records and asserts zero
# allocation events past the warmup window. Both windows now run with
# the timeline sampler live (and assert rows were taken inside the
# window), so this is also the sampler's zero-allocation proof. Full
# mode on purpose: on a 2-core x86-64 host the in-memory window takes
# 0.6 s and the million-op stream, compiled and replayed record by
# record with ~170k timeline rows sampled, about 13 s.
cargo bench -p ssmc-bench --bench simulator --offline -- --alloc-guard

# Throughput regression gate: re-measure every workload against the
# checked-in BENCH_throughput.json and fail any row more than 15% below
# its host-normalized floor (recorded value scaled by the run-wide
# median measured/recorded ratio, so the sag this script itself induces
# — the machine is 15-25% slower here than at rest — cancels out), or
# if the workload sets diverge in either direction. Absolute path:
# cargo runs the bench with CWD at the package root, not the workspace
# root.
cargo bench -p ssmc-bench --bench simulator --offline -- --check "$PWD/BENCH_throughput.json"

# Namespace scale proof: a million-entry directory survives create,
# stat, unlink and re-create churn, and a 10-level-deep tree resolves,
# lists and unlinks. Ignored by default (release-only by design — a
# debug million-file loop is pointlessly slow).
cargo test --release --offline --test scale_namespace -- --ignored

# Observability smoke: a traced replay must produce a decodable artifact
# and trace-dump must render it. Uses a temp path — trace artifacts
# never land in results/.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    --trace-out "$TRACE_TMP/trace.json" --trace-ops 2000
cargo run --release --offline -p ssmc-bench --bin trace-dump -- \
    "$TRACE_TMP/trace.json"

# Timeline determinism + drift gate: regenerating the fixed-seed F2
# timeline must reproduce the checked-in golden byte for byte (the
# time-resolved analog of the results/ guard below), obs-diff must
# report it clean (exit 0), and a run with an injected regression (a
# shorter trace, so every cumulative metric lands low) must make
# obs-diff exit non-zero. timeline-dump must render the artifact.
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    --timeline-out "$TRACE_TMP/f2.tl" --trace-ops 2000 --sample-interval 1000
cmp "$TRACE_TMP/f2.tl" goldens/f2_timeline.tl
cargo run --release --offline -p ssmc-bench --bin obs-diff -- \
    "$TRACE_TMP/f2.tl" goldens/f2_timeline.tl
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    --timeline-out "$TRACE_TMP/f2_short.tl" --trace-ops 1500 --sample-interval 1000
if cargo run --release --offline -p ssmc-bench --bin obs-diff -- \
    "$TRACE_TMP/f2_short.tl" goldens/f2_timeline.tl >/dev/null 2>&1; then
    echo "obs-diff failed to flag an injected regression" >&2
    exit 1
fi
cargo run --release --offline -p ssmc-bench --bin timeline-dump -- \
    "$TRACE_TMP/f2.tl" >/dev/null

# Crash-torture smoke: power-cut injection at every flash program/erase
# boundary of a 2k-op BSD window, both torn-write modes, recovery
# differentially checked against the durability model. Exhaustive by
# design (~20k cut+recover cycles, about 46 s at 4 threads on a 2-core
# x86-64 host with the carry-less CRC kernel); any violation exits
# non-zero with the offending cut index printed.
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    crash-torture --ops 2000 --tear both --threads 4
# Sharding determinism: the same sweep, restricted to a small window,
# must emit byte-identical JSON at 1 and 4 threads.
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    crash-torture --ops 300 --tear both --threads 1 --json "$TRACE_TMP/tort1.json"
cargo run --release --offline -p ssmc-bench --bin experiments -- \
    crash-torture --ops 300 --tear both --threads 4 --json "$TRACE_TMP/tort4.json"
cmp "$TRACE_TMP/tort1.json" "$TRACE_TMP/tort4.json"
# Injected-bug canary: with the feature-gated recovery fault compiled in
# (torn slots pass CRC validation), the same harness must *catch* it —
# a clean exit here means the sweep has gone blind.
if cargo run --release --offline -p ssmc-bench --features fault-canary \
    --bin experiments -- crash-torture --ops 300 --tear both --threads 4 \
    >/dev/null 2>&1; then
    echo "crash-torture failed to flag the injected recovery fault" >&2
    exit 1
fi

# Behaviour guard: regenerating every experiment must leave results/
# untouched — refactors of the hot path may not move a single byte of
# simulated output.
cargo run --release --offline -p ssmc-bench --bin experiments -- --json results all
git diff --exit-code results/
