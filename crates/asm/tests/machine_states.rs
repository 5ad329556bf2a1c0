//! The emulator's golden machine-state corpus.
//!
//! A few hundred programs: directed ones for the edge cases the course
//! traces by hand (every branch condition on edge values, shift counts 0,
//! 1 and 31 and a count from a register, `imul` overflow, `idiv`/`imod`
//! by zero and `i32::MIN / -1`, stack frames, a store into the running
//! program, an `eip` below the program or past its end, segfaults), and
//! seeded random ones that mix every operation, operand kind and
//! addressing form. Each program's final state (its result, registers,
//! `eip`, flags, `executed`, `cycles`, output and a hash of memory) is
//! pinned in `golden/machine_states.txt`, so a change to how the machine
//! runs an instruction cannot change what it computes. Each program also
//! runs once through `Machine::step`, which must reach the same state as
//! `Machine::run`, and at every small fuel, where `run` with that fuel
//! must stop in the state as many calls of `step` reach: fuel can run out
//! inside any block.
//!
//! On a mismatch the whole rendered corpus is written to
//! `machine_states.txt` under Cargo's integration-test temporary
//! directory, to diff against the golden file.

use asm::emu::MEM_SIZE;
use asm::parser::CODE_BASE;
use asm::{assemble, Cond, Machine, MachineError, Operand, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write;

/// Steps each program may run.
const FUEL: u64 = 2_000;
/// Seeded random programs in the corpus.
const RANDOM_PROGRAMS: u64 = 240;
/// The 32-bit edge values every flag formula turns on.
const EDGES: [u32; 5] = [0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF];

/// The registers random arithmetic reads and writes; `%esi` (the data
/// base), `%edi` (a small index), `%esp` and `%ebp` are only read, so
/// most memory operands stay inside the data area at 0x3000.
const DATA: [&str; 4] = ["%eax", "%ebx", "%ecx", "%edx"];
const ALL: [&str; 8] = [
    "%eax", "%ecx", "%edx", "%ebx", "%esp", "%ebp", "%esi", "%edi",
];

/// FNV-1a over `bytes`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Source that needs addresses from itself: a label's (labels are only
/// control-flow operands) or the end of the program. Every label-free
/// operand has a fixed width, so assembling with placeholders gives them.
fn with_labels(src: impl Fn(&dyn Fn(&str) -> u32, u32) -> String) -> String {
    let probe = assemble(&src(&|_| 0, 0)).expect("assembles");
    let end = CODE_BASE + probe.bytes.len() as u32;
    src(&|label| probe.symbols[label], end)
}

/// A value drawn mostly from the edges, sometimes small, sometimes any.
fn value(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..4) {
        0 | 1 => i64::from(EDGES[rng.gen_range(0..EDGES.len())]),
        2 => rng.gen_range(-40i64..40),
        _ => i64::from(rng.gen::<u32>()),
    }
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A memory operand in one of the addressing forms, inside the data
/// area while `%esi` and `%edi` hold their set-up values.
fn mem(rng: &mut StdRng) -> String {
    let disp = 4 * rng.gen_range(-2i32..12) + i32::from(rng.gen_bool(0.1));
    let scale = [1, 2, 4, 8][rng.gen_range(0..4usize)];
    match rng.gen_range(0..6) {
        0 => format!("{:#x}", 0x3000 + 4 * rng.gen_range(0..16)),
        1 => "(%esi)".to_string(),
        2 => format!("{disp}(%esi)"),
        3 => format!("(%esi,%edi,{scale})"),
        4 => format!("{disp}(%esi,%edi,{scale})"),
        _ => format!("{:#x}(,%edi,{scale})", 0x3000 + disp),
    }
}

/// A source operand: a register, an immediate or memory.
fn src(rng: &mut StdRng) -> String {
    match rng.gen_range(0..3) {
        0 => pick(rng, &ALL).to_string(),
        1 => format!("${}", value(rng)),
        _ => mem(rng),
    }
}

/// A destination operand: a data register or memory.
fn dst(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.7) {
        pick(rng, &DATA).to_string()
    } else {
        mem(rng)
    }
}

/// One random instruction or short sequence. `labels` and `funcs`
/// name the jump and call targets the program defines; a leaf (a
/// function body) gets neither.
fn fragment(rng: &mut StdRng, out: &mut String, labels: usize, funcs: usize) {
    let line = match rng.gen_range(0..100) {
        0..=34 => {
            let op = pick(
                rng,
                &[
                    "movl", "addl", "subl", "andl", "orl", "xorl", "imull", "cmpl", "testl",
                ],
            );
            format!("{op} {}, {}", src(rng), dst(rng))
        }
        35..=44 => {
            let op = pick(rng, &["shll", "shrl", "sarl"]);
            let count = match rng.gen_range(0..5) {
                0 => "$0".to_string(),
                1 => "$1".to_string(),
                2 => "$31".to_string(),
                3 => "%ecx".to_string(),
                _ => format!("${}", rng.gen_range(0..40)),
            };
            format!("{op} {count}, {}", dst(rng))
        }
        45..=54 => {
            let op = pick(rng, &["incl", "decl", "negl", "notl"]);
            format!("{op} {}", dst(rng))
        }
        55..=59 => format!("leal {}, {}", mem(rng), pick(rng, &DATA)),
        60..=63 => {
            let op = pick(rng, &["idivl", "imodl"]);
            let divisor = if rng.gen_bool(0.8) {
                format!(
                    "${}",
                    rng.gen_range(1i32..9) * if rng.gen() { 1 } else { -1 }
                )
            } else {
                src(rng)
            };
            format!("{op} {divisor}, {}", dst(rng))
        }
        64..=68 => format!("pushl {}", src(rng)),
        69..=73 => format!("popl {}", dst(rng)),
        74..=77 => format!("outl {}", src(rng)),
        78..=88 if labels > 0 => {
            let cond = Cond::all()[rng.gen_range(0..12usize)];
            let test = pick(rng, &["cmpl", "testl", "subl", "addl"]);
            format!(
                "{test} {}, {}\n    j{} L{}",
                src(rng),
                pick(rng, &DATA),
                cond.suffix(),
                rng.gen_range(0..labels)
            )
        }
        89..=90 if labels > 0 => format!("jmp L{}", rng.gen_range(0..labels)),
        91..=94 if funcs > 0 => format!(
            "pushl {}\n    call F{}\n    popl {}",
            src(rng),
            rng.gen_range(0..funcs),
            pick(rng, &DATA)
        ),
        95..=96 => "incl %edi\n    andl $15, %edi".to_string(),
        _ => "nop".to_string(),
    };
    writeln!(out, "    {line}").unwrap();
}

/// A seeded random program: register and data set-up, a body of random
/// fragments with labels among them, `hlt`, then leaf functions that
/// build a frame, read their argument and return.
fn random_program(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = String::from("main:\n");
    for r in DATA {
        writeln!(s, "    movl ${}, {r}", value(&mut rng)).unwrap();
    }
    s.push_str("    movl $0x3000, %esi\n");
    writeln!(s, "    movl ${}, %edi", rng.gen_range(0..16)).unwrap();
    for i in 0..rng.gen_range(0..6) {
        writeln!(s, "    movl ${}, {:#x}", value(&mut rng), 0x3000 + 4 * i).unwrap();
    }
    let body = rng.gen_range(6..28);
    let labels = rng.gen_range(0..4);
    let funcs = rng.gen_range(0..3);
    let at: Vec<usize> = (0..labels).map(|_| rng.gen_range(0..=body)).collect();
    for i in 0..=body {
        for (k, _) in at.iter().enumerate().filter(|&(_, &p)| p == i) {
            writeln!(s, "L{k}:").unwrap();
        }
        if i < body {
            fragment(&mut rng, &mut s, labels, funcs);
        }
    }
    s.push_str("    hlt\n");
    for f in 0..funcs {
        writeln!(s, "F{f}:\n    pushl %ebp\n    movl %esp, %ebp").unwrap();
        for _ in 0..rng.gen_range(0..4) {
            fragment(&mut rng, &mut s, 0, 0);
        }
        s.push_str("    movl 8(%ebp), %edx\n    leave\n    ret\n");
    }
    s
}

/// The directed programs, each named for what it pins.
fn directed_programs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut add = |name: String, src: String| out.push((name, src));

    // Flags of each arithmetic op on every pair of edge values, with CF
    // set beforehand so inc/dec must keep it; the run stops right after.
    for (op, unary) in [
        ("addl", false),
        ("subl", false),
        ("cmpl", false),
        ("incl", true),
        ("decl", true),
        ("negl", true),
    ] {
        for a in EDGES {
            let operands: Vec<u32> = if unary { vec![0] } else { EDGES.to_vec() };
            for b in operands {
                let instr = if unary {
                    format!("{op} %eax")
                } else {
                    format!("{op} %ebx, %eax")
                };
                add(
                    format!("flags {instr} eax={a:#x} ebx={b:#x}"),
                    format!(
                        "movl $0xFFFFFFFF, %ecx\n addl $1, %ecx\n movl ${a:#x}, %eax\n\
                         movl ${b:#x}, %ebx\n {instr}\n hlt\n"
                    ),
                );
            }
        }
    }

    // Every condition after cmp on edge pairs: each pair writes 1 when
    // the branch is taken and 0 when it falls through.
    for cond in Cond::all() {
        let mut s = String::new();
        for (i, a) in EDGES.iter().enumerate() {
            for (j, b) in EDGES.iter().enumerate() {
                writeln!(
                    s,
                    "    movl ${a:#x}, %eax\n    cmpl ${b:#x}, %eax\n    j{c} T{i}{j}\n\
                     \x20   outl $0\n    jmp N{i}{j}\nT{i}{j}:\n    outl $1\nN{i}{j}:",
                    c = cond.suffix()
                )
                .unwrap();
            }
        }
        s.push_str("    hlt\n");
        add(format!("condition j{}", cond.suffix()), s);
    }

    // Shifts: counts 0 (flags keep CF), 1, 31, and 32 and 33 (masked to
    // 0 and 1), as immediates and from %ecx, on values with both ends
    // set.
    for op in ["shll", "shrl", "sarl"] {
        for count in [0u32, 1, 31, 32, 33] {
            for from_reg in [false, true] {
                let count_op = if from_reg {
                    "%ecx".to_string()
                } else {
                    format!("${count}")
                };
                add(
                    format!("shift {op} {count_op} (count {count})"),
                    format!(
                        "movl ${count}, %ecx\n movl $-1, %edx\n addl $1, %edx\n\
                         movl $0x80000001, %eax\n {op} {count_op}, %eax\n movl $-2, %ebx\n\
                         {op} {count_op}, %ebx\n hlt\n"
                    ),
                );
            }
        }
    }
    add(
        "shift count from memory is refused".into(),
        "movl $3, 0x3000\n shll 0x3000, %eax\n hlt\n".into(),
    );

    // imul: in range, overflow both ways, and i32::MIN * -1.
    for (a, b) in [
        (7i64, -6i64),
        (0x10000, 0x10000),
        (0x7FFF_FFFF, 2),
        (-0x8000_0000, -1),
        (-0x8000_0000, 1),
        (-46341, 46341),
    ] {
        add(
            format!("imul {a} * {b}"),
            format!("movl ${a}, %eax\n imull ${b}, %eax\n hlt\n"),
        );
    }

    // Division: signs, i32::MIN / -1 (wraps), and by zero from each
    // operand kind.
    for op in ["idivl", "imodl"] {
        for (a, b) in [(7i64, 2i64), (-7, 2), (7, -2), (-0x8000_0000, -1), (5, 7)] {
            add(
                format!("{op} {a} by {b}"),
                format!("movl ${a}, %eax\n movl ${b}, %ebx\n {op} %ebx, %eax\n hlt\n"),
            );
        }
        for divisor in ["$0", "%ebx", "0x3000"] {
            add(
                format!("{op} by zero from {divisor}"),
                format!("movl $9, %eax\n movl $0, %ebx\n {op} {divisor}, %eax\n hlt\n"),
            );
        }
    }

    // Frames: a caller-cleaned call, nested frames, recursion, and
    // call/jmp through a register and through memory.
    add(
        "frame: call, leave, ret".into(),
        "main:\n pushl $10\n call double\n addl $4, %esp\n hlt\n\
         double:\n pushl %ebp\n movl %esp, %ebp\n movl 8(%ebp), %eax\n\
         addl %eax, %eax\n leave\n ret\n"
            .into(),
    );
    add(
        "frame: recursive factorial".into(),
        "main:\n pushl $6\n call fact\n addl $4, %esp\n outl %eax\n hlt\n\
         fact:\n pushl %ebp\n movl %esp, %ebp\n pushl %ebx\n movl 8(%ebp), %ebx\n\
         movl $1, %eax\n cmpl $1, %ebx\n jle out\n leal -1(%ebx), %ecx\n pushl %ecx\n\
         call fact\n addl $4, %esp\n imull %ebx, %eax\n out:\n popl %ebx\n leave\n ret\n"
            .into(),
    );
    add(
        "frame: push and pop through memory".into(),
        "movl $0x3000, %esi\n movl $5, (%esi)\n pushl (%esi)\n pushl $7\n\
         popl 4(%esi)\n popl 8(%esi)\n movl 4(%esi), %eax\n movl 8(%esi), %ebx\n hlt\n"
            .into(),
    );
    add(
        "call and jmp through a register and memory".into(),
        with_labels(|at, _| {
            format!(
                "main:\n movl ${sub:#x}, %eax\n call %eax\n movl ${sub:#x}, 0x3000\n call 0x3000\n\
                 movl ${next:#x}, 0x3004\n jmp 0x3004\n hlt\nnext:\n movl ${fin:#x}, %ecx\n\
                 jmp %ecx\n hlt\nfin:\n outl %ebx\n hlt\nsub:\n incl %ebx\n ret\n",
                sub = at("sub"),
                next = at("next"),
                fin = at("fin")
            )
        }),
    );
    add(
        "ret into zeroed memory below the program".into(),
        "main:\n movl $7, %ebx\n movl $1, %edx\n movl $0, %eax\n ret\n".into(),
    );
    add(
        "eip below the program runs into it".into(),
        "main:\n incl %eax\n cmpl $3, %eax\n je done\n jmp $0xff0\ndone:\n hlt\n".into(),
    );
    add(
        "eip past the end runs stored bytes".into(),
        with_labels(|_, end| {
            format!("main:\n movl $0x01000000, {end:#x}\n movl $5, %eax\n jmp ${end:#x}\n hlt\n")
        }),
    );
    add(
        "eip past the end runs zeroed memory".into(),
        with_labels(|_, end| format!("main:\n jmp ${:#x}\n hlt\n", end + 16)),
    );
    add("eip off the top of memory".into(), "jmp $0xfffe\n".into());
    add("eip far past memory".into(), "jmp $-1\n".into());
    add(
        "jump into the middle of an instruction".into(),
        "main:\n jmp $0x1007\n movl $0, %ebx\n hlt\n".into(),
    );

    // Stores into the program: patch an immediate the loop then runs,
    // rewrite the next instruction into garbage, and overwrite the
    // loop's back jump with `hlt`s.
    let patch = |imm: u32| {
        format!(
            "main:\n movl $0, %eax\n movl $2, %ecx\npatch:\n addl $1, %eax\n\
             movl $1000, {imm:#x}\n decl %ecx\n cmpl $0, %ecx\n jne patch\n hlt\n"
        )
    };
    let imm = assemble(&patch(0)).unwrap().symbols["patch"] + 2;
    add("store into the program: new immediate".into(), patch(imm));
    add(
        "store into the program: garbage opcode".into(),
        "main:\n movl $0xEEEEEEEE, 0x100c\n nop\n movl $1, %eax\n hlt\n".into(),
    );
    add(
        "store into the program: turn a jmp into hlt".into(),
        with_labels(|at, _| {
            format!(
                "main:\n movl $3, %ecx\nloop:\n decl %ecx\n movl $0x01010101, {:#x}\n\
                 back:\n jmp loop\n hlt\n",
                at("back")
            )
        }),
    );

    // Faults: loads, stores, pushes and pops off either end of memory,
    // a write to an immediate, and `lea` of a register.
    add(
        "segfault: load far".into(),
        "movl $0xFFFFF000, %eax\n movl (%eax), %ebx\n hlt\n".into(),
    );
    add(
        "segfault: store straddling the top".into(),
        "movl $1, 0xfffe\n hlt\n".into(),
    );
    add(
        "segfault: push below zero".into(),
        "movl $2, %esp\n pushl $1\n hlt\n".into(),
    );
    add(
        "segfault: pop past the top".into(),
        "movl $0xfffe, %esp\n popl %eax\n hlt\n".into(),
    );
    add(
        "segfault: negative displacement".into(),
        "movl $4, %ebx\n movl -8(%ebx), %eax\n hlt\n".into(),
    );
    add(
        "segfault: index scaled past memory".into(),
        "movl $0x4000, %ecx\n movl $0, %esi\n movl (%esi,%ecx,8), %eax\n hlt\n".into(),
    );
    add(
        "write to an immediate".into(),
        "movl $1, %eax\n movl %eax, $5\n hlt\n".into(),
    );
    add(
        "lea of a register".into(),
        "movl $1, %eax\n leal %eax, %ebx\n hlt\n".into(),
    );
    add("out of fuel".into(), "spin: jmp spin\n".into());
    add(
        "logic flags and not".into(),
        "movl $0xF0F0F0F0, %eax\n andl $0x0F0F0F0F, %eax\n movl $-1, %ebx\n\
         orl $0, %ebx\n xorl %ebx, %ebx\n notl %ebx\n testl $0x80000000, %ebx\n\
         outl %eax\n outl %ebx\n nop\n hlt\n"
            .into(),
    );
    out
}

/// The final state `m` reached with `result`, on one line.
fn render(
    label: &str,
    program: &Program,
    m: &Machine,
    result: &Result<(), MachineError>,
) -> String {
    let mut s = format!(
        "{label}: prog {:016x} -> {result:?} |",
        fnv(program.bytes.iter().copied())
    );
    for r in asm::Reg::all() {
        write!(s, " {}={:08x}", &r.att_name()[1..], m.reg(r)).unwrap();
    }
    let memory = (0..MEM_SIZE as u32)
        .step_by(4)
        .flat_map(|a| m.read_u32(a).expect("in range").to_le_bytes());
    write!(
        s,
        " | eip={:08x} flags={} halted={} | executed={} cycles={} | out={:?} | mem={:016x}",
        m.eip,
        m.flags.pretty(),
        m.halted,
        m.executed,
        m.cycles,
        m.output,
        fnv(memory)
    )
    .unwrap();
    s
}

/// Every program in the corpus, labelled.
fn corpus() -> Vec<(String, Program)> {
    let mut programs = directed_programs();
    for seed in 0..RANDOM_PROGRAMS {
        programs.push((format!("random {seed}"), random_program(seed)));
    }
    programs
        .into_iter()
        .map(|(label, src)| {
            let program = assemble(&src).unwrap_or_else(|e| panic!("{label}: {e}\n{src}"));
            (label, program)
        })
        .collect()
}

/// Runs `program` on a fresh machine, either with `Machine::run` or one
/// `Machine::step` at a time under the same fuel rule.
fn execute(program: &Program, by_steps: bool) -> (Machine, Result<(), MachineError>) {
    let mut m = Machine::new();
    m.load(program).expect("loads");
    let result = if by_steps {
        (|| {
            for _ in 0..FUEL {
                if m.halted {
                    return Ok(());
                }
                m.step()?;
            }
            if m.halted {
                Ok(())
            } else {
                Err(MachineError::OutOfFuel)
            }
        })()
    } else {
        m.run(FUEL)
    };
    (m, result)
}

/// Everything in `m` but memory, with `result`, for comparing machines.
fn state(m: &Machine, result: &Result<(), MachineError>) -> String {
    format!(
        "{result:?} regs={:08x?} eip={:08x} flags={} halted={} executed={} cycles={} out={:?}",
        asm::Reg::all().map(|r| m.reg(r)),
        m.eip,
        m.flags.pretty(),
        m.halted,
        m.executed,
        m.cycles,
        m.output
    )
}

#[test]
fn run_stops_where_as_many_steps_stop_at_every_small_fuel() {
    for (label, program) in corpus() {
        let (full, _) = execute(&program, false);
        let top = (full.executed + 1).min(64);
        // One machine stepped along under the fuel rule, and the result
        // it ended with once it halted or faulted.
        let mut stepped = Machine::new();
        stepped.load(&program).expect("loads");
        let mut ended = None;
        for fuel in 0..=top {
            let mut m = Machine::new();
            m.load(&program).expect("loads");
            let result = m.run(fuel);
            let want = ended.clone().unwrap_or(if stepped.halted {
                Ok(())
            } else {
                Err(MachineError::OutOfFuel)
            });
            assert_eq!(
                state(&m, &result),
                state(&stepped, &want),
                "{label} at fuel {fuel}"
            );
            assert!(
                m.memory() == stepped.memory(),
                "{label} at fuel {fuel}: memory"
            );
            if ended.is_none() {
                if stepped.halted {
                    ended = Some(Ok(()));
                } else if let Err(e) = stepped.step() {
                    ended = Some(Err(e));
                }
            }
        }
    }
}

#[test]
fn the_corpus_covers_every_op_operand_form_and_condition() {
    let mut ops = HashSet::new();
    let mut conds = HashSet::new();
    let mut kinds = HashSet::new();
    let mut forms = HashSet::new();
    for (_, program) in corpus() {
        for (_, instr) in &program.listing {
            ops.insert(format!("{:?}", instr.op));
            conds.extend(instr.cond.map(|c| c.suffix()));
            for operand in [instr.src, instr.dst].into_iter().flatten() {
                kinds.insert(std::mem::discriminant(&operand));
                if let Operand::Mem(m) = operand {
                    forms.insert((m.base.is_some(), m.index.is_some(), m.disp != 0, m.scale));
                }
            }
        }
    }
    assert_eq!(ops.len(), 29, "every Op: {ops:?}");
    assert_eq!(conds.len(), Cond::all().len(), "every condition: {conds:?}");
    assert_eq!(kinds.len(), 3, "register, immediate and memory operands");
    for form in [
        (false, false, true),
        (true, false, false),
        (true, false, true),
        (true, true, false),
        (true, true, true),
        (false, true, true),
    ] {
        assert!(
            forms.iter().any(|&(b, i, d, _)| (b, i, d) == form),
            "addressing form (base, index, disp) = {form:?}"
        );
    }
    for scale in [1, 2, 4, 8] {
        assert!(forms.iter().any(|&(.., s)| s == scale), "scale {scale}");
    }
}

#[test]
fn every_program_reaches_its_golden_machine_state() {
    let golden = include_str!("golden/machine_states.txt");
    let mut rendered = String::new();
    let mut outcomes = HashSet::new();
    for (label, program) in corpus() {
        let (m, result) = execute(&program, false);
        let line = render(&label, &program, &m, &result);
        let (stepped, stepped_result) = execute(&program, true);
        assert_eq!(
            render(&label, &program, &stepped, &stepped_result),
            line,
            "step and run disagree"
        );
        outcomes.insert(match result {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("{e:?}")
                .split([' ', '('])
                .next()
                .unwrap()
                .to_string(),
        });
        rendered.push_str(&line);
        rendered.push('\n');
    }
    for outcome in [
        "ok",
        "OutOfFuel",
        "Segfault",
        "DivideByZero",
        "IllegalInstruction",
        "WriteToImmediate",
        "BadShiftCount",
    ] {
        assert!(outcomes.contains(outcome), "no program ends in {outcome}");
    }
    if rendered != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("machine_states.txt");
        std::fs::write(&path, &rendered).expect("writes the rendered corpus");
        let first = rendered
            .lines()
            .zip(golden.lines())
            .find(|(got, want)| got != want);
        panic!(
            "machine states differ from the golden file (rendered to {}): {} lines against {}, \
             first difference (got, want):\n{first:#?}",
            path.display(),
            rendered.lines().count(),
            golden.lines().count()
        );
    }
}
