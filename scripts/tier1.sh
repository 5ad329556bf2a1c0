#!/usr/bin/env sh
# Tier-1 gate: everything a PR must keep green.
#   fmt --check -> build (release) -> full test suite -> clippy with
#   warnings denied over every target (tests, benches and examples
#   too) -> rustdoc with warnings denied (a doc link to a deleted or
#   private item fails here) -> the course kernels' own suites ->
#   end-to-end smokes
set -eu
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Course-kernel tier: the emulator's unit tests (the block cache, fuel
# and cycle pins, the 32-bit flags against `bits::arith`), its golden
# machine-state corpus and fuel sweep, the Life engines' differential and
# parallel-vs-serial tests, and the autograder's, which the root suite
# reaches only through the golden response bodies. Then E10's cycle
# table (7, 5, 5002 and 13005 cycles), the cost model's lesson; the rest
# of the `bench` lib suite stays out for its wall-clock flake.
cargo test -q -p asm -p life -p cs31
cargo test -q -p bench --lib e10_
# The emulator's suite again with the optimizer on: the golden corpus,
# the fuel sweep and the block tests, built the way `Machine::run` ships.
cargo test -q --release -p asm

# E13 smoke: the class pipeline end to end — the reproduce runner (the
# pool's class order against a class-blind run of the same stream)
# plus the live server under class-aware admission and the class-
# ordered pool (serve_demo asserts its per-class ledgers balance after
# drain).
cargo run --release -q -p bench --bin reproduce -- e13 > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 16 48 > /dev/null

# E14 smoke: the class-ordered pool over real loopback sockets (the
# NetServer's reactor front end; ledgers, backpressure frames), plus
# the TCP demo (server + loadgen burst; asserts ledgers balance after
# the stop-accept -> drain -> FIN shutdown).
cargo run --release -q -p bench --bin reproduce -- e14 > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 4 24 net > /dev/null

# Observability: obs unit tests and the histogram/exact-quantile
# property suite, then the E15 smoke (bounded histogram memory and
# quantile error) and the stats demo (Op::Stats over the wire; asserts
# the ledger it carries balances: admitted == completed + shed per
# class, and pool.claims plus the inline hits equal the admissions).
cargo test -q -p obs
cargo run --release -q -p bench --bin reproduce -- e15 > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 4 24 stats > /dev/null

# Pool tier: the serve suite (the pool's claim-order, stealing,
# parking and drain unit tests, the adversarial fault-plan tests, the
# par parity, exactly-once and no-starvation proptests, the cache's
# compute-once and eviction tests).
cargo test -q -p serve

# Router tier: the router unit/property/e2e suites, the E16 smoke
# (1-vs-3 backend scaling + mid-run backend kill, ledger-balanced),
# and the router demo (2 real backend processes behind the proxy;
# asserts zero unanswered requests, an exact router ledger, and
# fleet-wide admitted == completed + shed from the merged snapshot).
cargo test -q -p router
cargo run --release -q -p bench --bin reproduce -- e16 > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 4 24 router 2 > /dev/null

# Reactor tier (E18): the net suite (the reactor's unit tests, the
# FrameAssembler property suite, and the E2E ledger/drain tests over
# the one connection engine every server and router runs on), then the
# E18 smoke (the connection sweep plus the 1000-idle-connection soak;
# the bounded-threads assertion itself is a `bench` lib test).
cargo test -q -p net
cargo run --release -q -p bench --bin reproduce -- e18 > /dev/null

# Control-plane tier (E20): the ctl crate's membership state machine,
# the router's churn E2E + interleaving proptests (already inside
# `cargo test -p router` above, run here for the ctl crate's own
# units), the E20 smoke (join raises throughput, drain strands
# nobody, epoch advances exactly twice — all assert!ed inside the
# experiment), and a piped join-then-drain session through the live
# demo (real backend processes; the loop asserts zero unanswered and
# an exact router ledger at quit).
cargo test -q -p ctl
cargo run --release -q -p bench --bin reproduce -- e20 > /dev/null
printf 'view\njoin 0\ndrain 0\nload\nquit\n' | \
    cargo run --release -q -p bench --bin serve_demo -- 4 24 router 2 --ctl tier1 > /dev/null

# Benchmark tier: perfbench's own tests, then short runs of all three
# workloads against the shipped defaults, so the benchmark's correctness
# gate (every answer OK with the body its request must produce, hits
# OK_CACHED and byte-identical at every level, balanced ledgers) checks
# the code that ships, the course compute path included. The hit
# workloads run 1 s. compute_mix runs 3 s: it takes one p99 over its
# whole timed phase and fails a run with fewer than ten samples beyond
# it. At the 5,050-6,370 interactive answers a second that ten 20 s runs
# measured on the 2-vCPU reference host, 3 s leaves at least 150 beyond
# its interactive p99, and still about 50 at a third of the slowest.
cargo test -q --release --manifest-path perfbench/Cargo.toml
for workload in hit_direct hit_routed; do
    cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done
cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
    --workload compute_mix --seed 1 --seconds 3 --trace 0 > /dev/null

echo "tier1: all green"
