#!/usr/bin/env sh
# Placement sweep for the emulator's hot loop.
#
# Writes a throwaway harness crate into target/emu_placement/ that links
# `asm` after a function of N `nop` bytes, builds it with N = 0, 16, 32
# and 48, reads from `nm` where `asm::emu::Machine::run` then starts
# within its 64-byte line, and times each build in 5 interleaved rounds
# (pinned to one CPU when `taskset` exists): ns per simulated step of
# `spin: jmp spin` at 200k and at 2M fuel, which are equal when no pass
# is folded away. Each figure is the median over rounds of each round's
# median, with the rounds' range after it. Output is timing, so no test
# runs this script; run it after a change to `asm::emu`, and whenever a
# `compute_mix` verdict moves with no kernel change.
#
#   scripts/emu_placement.sh
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
dir="$root/target/emu_placement"
rounds=5
pads="0 16 32 48"
mkdir -p "$dir/src" "$dir/bin"

cat > "$dir/Cargo.toml" <<EOF
[package]
name = "emu_placement"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
asm = { path = "$root/crates/asm" }

[profile.release]
opt-level = 3
EOF

for pad in $pads; do
    cat > "$dir/src/main.rs" <<EOF
use asm::{Machine, MachineError};
use std::hint::black_box;
use std::time::Instant;

/// $pad bytes of \`nop\`, linked ahead of the emulator's code.
#[no_mangle]
#[inline(never)]
pub extern "C" fn emu_placement_pad() {
    // SAFETY: the fill is only \`nop\`s, which touch no state.
    unsafe { std::arch::asm!(".fill $pad, 1, 0x90", options(nomem, nostack, preserves_flags)) }
}

/// ns per simulated step of \`spin: jmp spin\` run to \`fuel\`: the
/// median of \`reps\` runs.
fn per_step(fuel: u64, reps: usize) -> f64 {
    let prog = asm::assemble("main:\n    movl \$7, %ebx\nspin:\n    jmp spin\n").expect("assembles");
    let mut m = Machine::new();
    let mut t: Vec<u128> = (0..reps)
        .map(|_| {
            m.load(&prog).expect("loads");
            let s = Instant::now();
            assert_eq!(m.run(black_box(fuel)), Err(MachineError::OutOfFuel));
            s.elapsed().as_nanos()
        })
        .collect();
    t.sort_unstable();
    t[reps / 2] as f64 / fuel as f64
}

fn main() {
    emu_placement_pad();
    println!("{:.3} {:.3}", per_step(200_000, 31), per_step(2_000_000, 11));
}
EOF
    cargo build --release --quiet --offline --manifest-path "$dir/Cargo.toml" \
        --target-dir "$dir/target"
    cp "$dir/target/release/emu_placement" "$dir/bin/pad$pad"
done

pin=""
if command -v taskset > /dev/null 2>&1; then
    pin="taskset -c 0"
fi
: > "$dir/times.txt"
round=1
while [ "$round" -le "$rounds" ]; do
    for pad in $pads; do
        echo "$pad $($pin "$dir/bin/pad$pad")" >> "$dir/times.txt"
    done
    round=$((round + 1))
done

echo "pad  run_addr            line_off  jmp_200k_ns         jmp_2M_ns"
for pad in $pads; do
    addr=$(nm -C "$dir/bin/pad$pad" | awk '$3 == "asm::emu::Machine::run" { print $1 }')
    off=$(( 0x$addr % 64 ))
    awk -v pad="$pad" -v addr="$addr" -v off="$off" '
        $1 == pad { n++; for (c = 2; c <= 3; c++) v[c, n] = $c }
        END {
            printf "%-4s %-19s %-9s", pad, "0x" addr, off
            for (c = 2; c <= 3; c++) {
                for (i = 1; i <= n; i++) s[i] = v[c, i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
                med = (n % 2) ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
                printf " %-19s", sprintf("%.3g (%.3g-%.3g)", med, s[1], s[n])
            }
            printf "\n"
        }' "$dir/times.txt"
done
