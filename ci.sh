#!/usr/bin/env bash
# CI for the sbmlcompose workspace. Fully offline: the three external
# crates (rand/proptest/criterion) are vendored under vendor/.
#
#   ./ci.sh          build + test + doc gate + perf gates (chain, fig8, values)
#   ./ci.sh quick    build + test only
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== test =="
cargo test -q

echo "== COW differential harness (clone oracle vs zero-copy engine) =="
# tests/cow_differential.rs replays every scenario through both engines —
# the eager clone-on-adopt reference and the copy-on-write candidate —
# and asserts bit-identity. Run under the default build and again with
# the fault-injection hooks compiled in, so the proof holds for the
# exact binary the fault suite exercises.
cargo test -q --test cow_differential
cargo test -q --features fault-injection --test cow_differential

echo "== fault-injection suite (deterministic injected faults) =="
cargo test -q --features fault-injection --test fault_isolation

echo "== wire-protocol suite (frame codec + live daemon round-trips) =="
cargo test -q --test serve_protocol

echo "== cluster suite (shard daemons + coordinator, loopback TCP) =="
# In-process daemons on ephemeral ports: the coordinator must be
# bit-identical to a single-process daemon at shard counts 1/2/4 across
# all three semantics levels and under randomized UPSERT/REMOVE
# interleavings; a killed shard degrades reads (exit 4, shard named)
# and fails writes loudly.
cargo test -q --release --test cluster
cargo test -q --release --test cluster_e2e

echo "== incremental ≡ rebuild property suite (sharded MatchIndex) =="
# Random insert/remove interleavings replayed against a fresh build of
# the surviving corpus, across shard counts and every semantics level —
# an incrementally mutated index must answer bit-identically to one
# built from scratch, or UPSERT/REMOVE silently corrupt the daemon.
cargo test -q -p sbml-match --test properties

echo "== panic audit (fan-out modules) =="
# Containment boundaries (catch_unwind) only help if the code inside them
# is not sprinkled with *new* input-reachable unwrap/expect/panic sites.
# Ceilings are the audited counts (tests included); raising one requires
# justifying the new site in review.
panic_audit() {
    local file="$1" ceiling="$2"
    local count
    count=$(grep -c '\.unwrap()\|\.expect(\|panic!(' "$file" || true)
    echo "  ${file}: ${count} (ceiling: ${ceiling})"
    if (( count > ceiling )); then
        echo "FAIL: ${file} gained unaudited unwrap/expect/panic sites (${count} > ${ceiling})" >&2
        exit 1
    fi
}
# batch.rs: the stripe-result expect and the two worker-join expects
# (ceiling lowered 6 -> 3 to the audited count).
panic_audit crates/sbml-compose/src/batch.rs 3
# session.rs: one audited invariant expect (the shared accumulator's
# base) plus test fixtures; 14 -> 12 when the session pool and the
# pipelined merge rung were deleted.
panic_audit crates/sbml-compose/src/session.rs 12
# The pool itself (spawn + chunking expects, two injected-panic test
# sites) and prepared.rs (test fixtures only; 17 -> 9 when the parallel
# incoming-key build was deleted).
panic_audit crates/sbml-compose/src/pool.rs 4
panic_audit crates/sbml-compose/src/prepared.rs 9
panic_audit crates/sbml-match/src/index.rs 0
panic_audit crates/sbml-match/src/vf2.rs 3
# The SBML read path parses every daemon request payload: the byte-level
# tokenizer, the borrowing DOM and the MathML binding have no sites
# outside their tests (tests/sbml_hostile.rs feeds them hostile input).
panic_audit crates/sbml-xml/src/tokenizer.rs 11
panic_audit crates/sbml-xml/src/dom.rs 14
panic_audit crates/sbml-math/src/parser.rs 8

if [[ "${1:-}" != "quick" ]]; then
    echo "== end-to-end benchmark smoke test (perfbench/smoke_test.py) =="
    # Every BENCHMARK.json workload at tiny size, untraced and traced: the
    # compose and serving output checks must pass, every named metric must
    # be printed with its unit, and sabotaged expectations must trip.
    python3 perfbench/smoke_test.py

    echo "== docs (cargo doc --no-deps, warnings are errors) =="
    # Broken intra-doc links or malformed rustdoc fail the build.
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

    echo "== chain-scaling benchmark (writes BENCH_chain.json) =="
    cargo run --release -p compose-bench --bin chain_scaling

    # Perf gate: the session engine must stay >= 2x faster than the seed
    # pairwise fold on the length-128 chain.
    speedup=$(grep -o '"speedup_at_length_128": [0-9.]*' BENCH_chain.json | grep -o '[0-9.]*$')
    echo "length-128 speedup: ${speedup}x (gate: >= 2.0)"
    awk -v s="$speedup" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' || {
        echo "FAIL: chain-scaling speedup regressed below 2x" >&2
        exit 1
    }

    echo "== fig8 all-pairs benchmark (writes BENCH_fig8.json) =="
    cargo run --release -p compose-bench --bin all_pairs

    # Perf gate: prepared-and-shared model analysis must keep the
    # 187-model all-pairs workload >= 2x faster than per-pair recompute.
    speedup=$(grep -o '"speedup_prepared_reuse": [0-9.]*' BENCH_fig8.json | grep -o '[0-9.]*$')
    echo "all-pairs prepared-reuse speedup: ${speedup}x (gate: >= 2.0)"
    awk -v s="$speedup" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' || {
        echo "FAIL: fig8 all-pairs prepared-reuse speedup regressed below 2x" >&2
        exit 1
    }

    # Perf gate: copy-on-write base adoption must keep the per-pair fixed
    # cost (tiny duplicate-only push vs growing bases) >= 1.5x cheaper
    # than eager clone-on-adopt.
    speedup=$(grep -o '"speedup_fixed_cost": [0-9.]*' BENCH_fig8.json | grep -o '[0-9.]*$')
    echo "fig8 fixed-cost speedup (COW adoption): ${speedup}x (gate: >= 1.5)"
    awk -v s="$speedup" 'BEGIN { exit (s >= 1.5) ? 0 : 1 }' || {
        echo "FAIL: COW fixed-cost speedup regressed below 1.5x" >&2
        exit 1
    }

    echo "== long-chain values benchmark (writes BENCH_values.json) =="
    cargo run --release -p compose-bench --bin long_chain_values

    # Perf gate: over the recorded accumulators of the length-128
    # value-heavy chain, IncrementalValues::seed + one absorb per push must
    # stay >= 2x faster than one initial_values::collect per push (the
    # bench asserts snapshot() == collect after every push first).
    speedup=$(grep -o '"speedup_incremental_values_at_length_128": [0-9.]*' BENCH_values.json | grep -o '[0-9.]*$')
    echo "length-128 incremental-values speedup: ${speedup}x (gate: >= 2.0)"
    awk -v s="$speedup" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' || {
        echo "FAIL: long-chain incremental-values speedup regressed below 2x" >&2
        exit 1
    }

    echo "== corpus match benchmark (writes BENCH_match.json) =="
    cargo run --release -p compose-bench --bin corpus_match

    # Perf gate: posting-list candidate generation must stay >= 5x faster
    # than the naive per-model VF2 scan over the 187-model fig8 corpus
    # (the bench also asserts indexed hit sets == naive hit sets for
    # every query under every semantics level before timing anything).
    speedup=$(grep -o '"speedup_candidate_generation": [0-9.]*' BENCH_match.json | grep -o '[0-9.]*$')
    echo "corpus-match candidate-generation speedup: ${speedup}x (gate: >= 5.0)"
    awk -v s="$speedup" 'BEGIN { exit (s >= 5.0) ? 0 : 1 }' || {
        echo "FAIL: corpus-match candidate generation regressed below 5x" >&2
        exit 1
    }

    echo "== pipeline conflict benchmark (writes BENCH_pipeline.json) =="
    cargo run --release -p compose-bench --bin pipeline_conflict

    # Perf gate: on every formula the conflict corpus's pair mappings
    # touch, renaming the cached canonical pattern (Pattern::rename_mapped)
    # must stay >= 1.5x faster than re-canonicalising it
    # (Pattern::of_mapped); the bench asserts both are byte-identical
    # first. BENCH_pipeline.json records the host parallelism.
    speedup=$(grep -o '"speedup_incremental_rename": [0-9.]*' BENCH_pipeline.json | grep -o '[0-9.]*$')
    echo "conflict-corpus incremental-rename speedup: ${speedup}x (gate: >= 1.5)"
    awk -v s="$speedup" 'BEGIN { exit (s >= 1.5) ? 0 : 1 }' || {
        echo "FAIL: incremental-rename vs full re-key speedup regressed below 1.5x" >&2
        exit 1
    }

    echo "== snapshot load benchmark (writes BENCH_serve.json) =="
    cargo run --release -p compose-bench --bin serve_snapshot

    # Perf gate: loading a prepared-corpus snapshot (decode only — no
    # re-canonicalisation, no re-analysis, lazy graphs/refs) must stay
    # >= 10x faster than rebuilding the corpus from SBML XML. The bench
    # asserts posting-list stats and a 23-query battery are identical
    # between the loaded and rebuilt corpus before timing anything.
    speedup=$(grep -o '"speedup_snapshot_load": [0-9.]*' BENCH_serve.json | grep -o '[0-9.]*$')
    echo "snapshot-load speedup: ${speedup}x (gate: >= 10.0)"
    awk -v s="$speedup" 'BEGIN { exit (s >= 10.0) ? 0 : 1 }' || {
        echo "FAIL: snapshot-load speedup regressed below 10x" >&2
        exit 1
    }

    echo "== 10k-model scale benchmark (writes BENCH_scale.json) =="
    cargo run --release -p compose-bench --bin index_scale

    # Perf gate: absorbing a 100-model batch through MatchIndex::insert
    # must stay >= 10x cheaper than rebuilding the 10k-model index from
    # scratch — the whole point of the daemon's in-place UPSERT path.
    # (The bench asserts bit-identical answers across shard counts
    # 1/2/4/8 before timing anything.)
    speedup=$(grep -o '"speedup_incremental_append": [0-9.]*' BENCH_scale.json | grep -o '[0-9.]*$')
    echo "incremental-append speedup: ${speedup}x (gate: >= 10.0)"
    awk -v s="$speedup" 'BEGIN { exit (s >= 10.0) ? 0 : 1 }' || {
        echo "FAIL: incremental append fell below 10x cheaper than a full rebuild" >&2
        exit 1
    }

    # Perf gate: scatter-gather query latency must stay flat-to-sublinear
    # in the shard count — 8 shards may cost at most 1.5x a single shard
    # on the same 10k corpus, or partitioning overhead has eaten the
    # parallelism sharding exists to provide.
    ratio=$(grep -o '"latency_ratio_shards_8_vs_1": [0-9.]*' BENCH_scale.json | grep -o '[0-9.]*$')
    echo "8-shard vs 1-shard latency ratio: ${ratio} (gate: <= 1.5)"
    awk -v r="$ratio" 'BEGIN { exit (r <= 1.5) ? 0 : 1 }' || {
        echo "FAIL: scatter-gather latency grew superlinearly with shard count" >&2
        exit 1
    }

    echo "== cluster scatter-gather benchmark (writes BENCH_cluster.json) =="
    cargo run --release -p compose-bench --bin cluster_scatter

    # Perf gate: a MATCH through the coordinator fronting 4 shard
    # daemons may cost at most 1.5x the same request through a 1-shard
    # cluster over the 10k corpus — the scatter fans out concurrently,
    # so the fan-out must not eat the partitioning. (The bench asserts
    # both widths answer byte-identically to a single-process daemon
    # before timing anything.)
    ratio=$(grep -o '"latency_ratio_cluster_4_vs_1": [0-9.]*' BENCH_cluster.json | grep -o '[0-9.]*$')
    echo "4-shard vs 1-shard cluster MATCH latency ratio: ${ratio} (gate: <= 1.5)"
    awk -v r="$ratio" 'BEGIN { exit (r <= 1.5) ? 0 : 1 }' || {
        echo "FAIL: coordinator scatter-gather latency grew superlinearly with shard count" >&2
        exit 1
    }

    # Perf gate: absorbing a 100-model batch as coordinator-routed
    # UPSERT frames must stay >= 10x cheaper than re-preparing and
    # rebuilding the 10k index from source models.
    speedup=$(grep -o '"speedup_cluster_upsert": [0-9.]*' BENCH_cluster.json | grep -o '[0-9.]*$')
    echo "coordinator UPSERT speedup: ${speedup}x (gate: >= 10.0)"
    awk -v s="$speedup" 'BEGIN { exit (s >= 10.0) ? 0 : 1 }' || {
        echo "FAIL: coordinator UPSERT fell below 10x cheaper than a rebuild" >&2
        exit 1
    }

    echo "== guard overhead benchmark (writes BENCH_robust.json) =="
    cargo run --release -p compose-bench --bin robust_overhead

    # Perf gate: fault containment + budget metering on the fast path
    # (push_guarded with an unlimited meter vs plain push) must cost
    # <= 5%. The value can be negative (noise); the grep is sign-tolerant.
    overhead=$(grep -o '"guard_overhead_pct": *[-0-9.]*' BENCH_robust.json | grep -o '[-0-9.]*$')
    echo "guard overhead: ${overhead}% (gate: <= 5.0)"
    awk -v o="$overhead" 'BEGIN { exit (o <= 5.0) ? 0 : 1 }' || {
        echo "FAIL: guard overhead exceeded 5%" >&2
        exit 1
    }
fi

echo "CI OK"
