#!/usr/bin/env sh
# Tier-1 gate: everything a PR must keep green.
#   fmt --check -> build (release) -> full test suite -> clippy with
#   warnings denied -> end-to-end smokes
set -eu
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test -q
cargo clippy --workspace -- -D warnings

# E13 smoke: the priority pipeline end to end — reproduce runner plus
# the live server under class-aware admission (serve_demo asserts its
# per-class ledgers balance after drain).
cargo run --release -q -p bench --bin reproduce -- e13 > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 16 48 priority > /dev/null

# E14 smoke: the same comparison over real loopback sockets, plus the
# TCP demo (server + loadgen burst; asserts ledgers balance after the
# stop-accept -> drain -> FIN shutdown).
cargo run --release -q -p bench --bin reproduce -- e14 > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 4 24 net > /dev/null

# Observability: obs unit tests and the histogram/exact-quantile
# property suite, then the E15 smoke (instrumentation overhead +
# bounded histogram memory) and the stats demo (Op::Stats over the
# wire; asserts the registry mirrors agree with the bespoke ledgers).
cargo test -q -p obs
cargo run --release -q -p bench --bin reproduce -- e15 > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 4 24 stats > /dev/null

# Pool tier: the serve suite (scheduler unit tests, the adversarial
# fault-plan tests, the scheduler parity and no-starvation proptests,
# the cache's compute-once and eviction tests). scripts/tsan.sh adds
# the sanitizer pass over ctl::swap when nightly exists.
cargo test -q -p serve

# Router tier: the router unit/property/e2e suites, the E16 smoke
# (1-vs-3 backend scaling + mid-run backend kill, ledger-balanced),
# and the router demo (2 real backend processes behind the proxy;
# asserts zero unanswered requests, an exact router ledger, and
# fleet-wide admitted == completed + shed from the merged snapshot).
cargo test -q -p router
cargo run --release -q -p bench --bin reproduce -- e16 > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 4 24 router 2 > /dev/null

# Reactor tier (E18): the net suite (reactor unit tests, the
# FrameAssembler property suite, the E2E ledger/drain tests under
# both Io engines — the 10x-connections-at-bounded-threads soak
# assertion itself runs in the bench tests above), the E18 smoke
# (the blocking-vs-readiness connection sweep plus the
# 1000-idle-connection soak), and both demos with their socket
# front ends on the epoll reactor (same ledger-balance and
# zero-unanswered assertions as the blocking modes above).
cargo test -q -p net
cargo run --release -q -p bench --bin reproduce -- e18 > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 4 24 net-epoll > /dev/null
cargo run --release -q -p bench --bin serve_demo -- 4 24 router-epoll 2 > /dev/null

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

# Benchmark tier: perfbench's own tests, then one-second runs of the
# two hit workloads against the shipped defaults, so the benchmark's
# correctness gate (every hit OK_CACHED, byte-identical bodies at every
# level, balanced ledgers) checks the code that ships. compute_mix is
# left out: its p99 needs ten samples beyond it, which 1 s cannot give.
cargo test -q --release --manifest-path perfbench/Cargo.toml
for workload in hit_direct hit_routed; do
    cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done

echo "tier1: all green"
