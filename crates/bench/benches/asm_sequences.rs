//! E10 — equivalent assembly sequences under the emulator cost model,
//! and the emulator's host time per simulated step.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn cycles_of(src: &str) -> u64 {
    let prog = asm::assemble(src).expect("assembles");
    let mut m = asm::Machine::new();
    m.load(&prog).expect("loads");
    m.run(10_000_000).expect("halts");
    m.cycles
}

const REG_LOOP: &str = r#"
    movl $0, %eax
    movl $1000, %ecx
    t: addl $1, %eax
       subl $1, %ecx
       cmpl $0, %ecx
       jne t
    hlt
"#;

const MEM_LOOP: &str = r#"
    movl $0, %eax
    movl $1000, 0x2000
    t: addl $1, %eax
       movl 0x2000, %ecx
       subl $1, %ecx
       movl %ecx, 0x2000
       cmpl $0, %ecx
       jne t
    hlt
"#;

/// A submission that never halts: the autograder's timeout path.
const SPIN: &str = "main:\n    movl $7, %ebx\n    movl $1, %edx\nspin:\n    jmp spin\n";

/// A submission that never halts but does work: the spin loop with a
/// body, one `addl` per `jmp`.
const COUNTING_SPIN: &str =
    "main:\n    movl $7, %ebx\n    movl $1, %edx\nspin:\n    addl $1, %eax\n    jmp spin\n";

/// A sum-array submission that forgot its increment: `%edi` stays 0, so
/// the loop adds the first element forever, reading memory and setting
/// flags at every pass.
const FORGOTTEN_INCREMENT: &str = r#"
    main:
        movl $0, %eax
        movl $0, %edi
    loop:
        addl (%esi,%edi,4), %eax
        cmpl %ecx, %edi
        jne loop
        hlt
"#;

/// A 14-instruction loop that never halts: a store, a load, and a call
/// whose frame reads its argument (push, call, leave, ret), then imul.
const MEMORY_CALL_LOOP: &str = r#"
    main:
        movl $0x3000, %esi
        movl $1, %eax
    top:
        movl %eax, (%esi)
        movl 4(%esi), %ebx
        pushl %eax
        call f
        addl $4, %esp
        imull $3, %eax
        andl $0xffff, %eax
        jmp top
    f:
        pushl %ebp
        movl %esp, %ebp
        movl 8(%ebp), %ecx
        addl %ecx, %eax
        leave
        ret
"#;

/// The autograder's fuel per rubric case, and the rubric's case count.
const FUEL: u64 = 200_000;
const CASES: u64 = 4;

fn bench(c: &mut Criterion) {
    println!("{}", bench::e10_asm_sequences());

    let mut g = c.benchmark_group("asm_sequences");
    g.bench_function("register_loop_1000", |b| b.iter(|| cycles_of(REG_LOOP)));
    g.bench_function("memory_loop_1000", |b| b.iter(|| cycles_of(MEM_LOOP)));
    g.bench_function("assemble_only", |b| {
        b.iter(|| asm::assemble(MEM_LOOP).expect("assembles").bytes.len())
    });
    g.finish();

    // Each iteration runs 4 x 200k simulated steps, so 1e9 over the
    // throughput is the host time per step in ns.
    let mut g = c.benchmark_group("asm_steps");
    g.throughput(Throughput::Elements(CASES * FUEL));
    let rubric = cs31::autograde::sum_array_rubric();
    assert_eq!(rubric.len() as u64, CASES);
    g.bench_function("grade_timeout_4x200k", |b| {
        b.iter(|| cs31::autograde::grade(SPIN, &rubric, FUEL).earned)
    });
    g.bench_function("counting_spin_4x200k", |b| {
        b.iter(|| cs31::autograde::grade(COUNTING_SPIN, &rubric, FUEL).earned)
    });
    g.bench_function("forgotten_increment_4x200k", |b| {
        b.iter(|| cs31::autograde::grade(FORGOTTEN_INCREMENT, &rubric, FUEL).earned)
    });
    let prog = asm::assemble(MEMORY_CALL_LOOP).expect("assembles");
    g.bench_function("memory_call_loop_4x200k", |b| {
        b.iter(|| {
            (0..CASES)
                .map(|_| {
                    let mut m = asm::Machine::new();
                    m.load(&prog).expect("loads");
                    assert_eq!(m.run(FUEL), Err(asm::MachineError::OutOfFuel));
                    m.cycles
                })
                .sum::<u64>()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
