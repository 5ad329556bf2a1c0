#!/usr/bin/env sh
# ThreadSanitizer gate for the repo's one hand-written atomic-pointer
# publication: ctl::swap::ViewCell, the membership view the router's
# hot path loads without a lock.
#
# Runs the ctl crate's swap:: unit tests under TSan — readers racing a
# stream of publishes, old views outliving later swaps. ViewCell::load
# is an Acquire pointer load plus a refcount bump on an Arc the cell
# retains; a publish that made the pointer visible before its retainer
# was in place would be loud here and silent (usually) in a normal run.
#
# Scope and caveats:
# * Needs a nightly toolchain (-Zsanitizer is unstable). Skips cleanly
#   — exit 0 with a notice — when nightly is unavailable.
# * std ships precompiled without instrumentation and this image has
#   no rust-src to -Zbuild-std it, so -Cunsafe-allow-abi-mismatch
#   links the uninstrumented std in. Consequence: synchronization
#   *inside* std (Mutex critical sections, Arc refcount fences, the
#   libtest harness) is invisible to TSan. scripts/tsan.supp tolerates
#   the known reports of that kind; the cell's own pointer store and
#   load are compiled into the instrumented crate, so a race between
#   them still reports.
set -eu
cd "$(dirname "$0")/.."

if ! rustup run nightly rustc --version >/dev/null 2>&1; then
    echo "tsan: nightly toolchain not installed; skipping (rustup toolchain install nightly)"
    exit 0
fi

# A separate target dir keeps instrumented artifacts from poisoning the
# normal build cache.
export RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer ${RUSTFLAGS:-}"
export CARGO_TARGET_DIR="target/tsan"
export TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp ${TSAN_OPTIONS:-}"

rustup run nightly cargo test \
    --target x86_64-unknown-linux-gnu \
    -p ctl --lib swap::

echo "tsan: ctl::swap suite clean"
