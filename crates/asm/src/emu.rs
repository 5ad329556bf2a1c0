//! The IA-32-subset machine: registers, EFLAGS, memory, stack discipline,
//! and a per-instruction cost model.
//!
//! Matches what CS 31 asks students to trace by hand: "stepping through
//! their execution and the effects on registers and memory" (§III-A),
//! including the dense function call/return material (`push`/`pop`/
//! `call`/`ret`/`leave`, `%ebp` frames).
//!
//! The **cost model** (see [`Machine::cost_of`]) charges extra cycles for
//! memory operands, stack traffic, and multiplies — enough structure to
//! reproduce the course's "equivalent assembly sequences differ in
//! efficiency" discussion (experiment **E10**) without pretending to be a
//! cycle-accurate Pentium.
//!
//! Each instruction of the loaded program is decoded once, not once per
//! step, into straight-line blocks of up to 16 instructions that end at
//! a control transfer. [`Machine::run`] executes a whole block per
//! lookup, takes a `jmp` or `jcc` to a fixed address itself, and runs a
//! block whose fixed `jmp` leads back to its own start in a loop of its
//! own; [`Machine::step`] runs the first instruction of the block at
//! `eip` through the same body. [`Machine::load`] empties the cache, a
//! [`Machine::write_u32`] that overlaps the program clears the blocks
//! that can cover its bytes, and an `eip` where no block can start
//! decodes straight from memory, so every result, fault, `executed`
//! count and cycle is the same as decoding at every step.

use crate::insn::{Cond, DecodeError, Instr, Mem, Op, Operand, Reg};
use crate::parser::{Program, CODE_BASE};
use bits::Flags;

/// Bytes of machine memory (64 KiB).
pub const MEM_SIZE: usize = 0x10000;
/// Initial stack pointer (stack grows down from here).
pub const STACK_TOP: u32 = 0xFF00;
/// Most instructions in one block.
const BLOCK_LEN: usize = 16;
/// Decoded instructions the cache holds before it starts over, so a
/// program that keeps rewriting itself cannot grow it without bound.
const CACHE_LIMIT: usize = 1 << 15;

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Memory access outside `[0, MEM_SIZE)` — the course's segfault.
    Segfault {
        /// The faulting address.
        addr: u32,
        /// EIP of the faulting instruction.
        eip: u32,
    },
    /// An instruction tried to write to an immediate operand.
    WriteToImmediate(u32),
    /// Instruction decoding failed (jumped into garbage).
    IllegalInstruction(DecodeError, u32),
    /// Ran out of fuel before `hlt`.
    OutOfFuel,
    /// A shift count operand was a memory reference (unsupported).
    BadShiftCount(u32),
    /// Program bytes don't fit below the stack.
    ProgramTooLarge(usize),
    /// `idivl`/`imodl` with a zero divisor — the course's SIGFPE.
    DivideByZero(u32),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Segfault { addr, eip } => {
                write!(f, "segmentation fault: address {addr:#x} at eip {eip:#x}")
            }
            MachineError::WriteToImmediate(eip) => {
                write!(f, "write to immediate operand at eip {eip:#x}")
            }
            MachineError::IllegalInstruction(e, eip) => {
                write!(f, "illegal instruction at eip {eip:#x}: {e}")
            }
            MachineError::OutOfFuel => write!(f, "program did not halt within fuel"),
            MachineError::BadShiftCount(eip) => {
                write!(f, "unsupported shift count operand at eip {eip:#x}")
            }
            MachineError::ProgramTooLarge(n) => write!(f, "program of {n} bytes too large"),
            MachineError::DivideByZero(eip) => {
                write!(f, "divide by zero (SIGFPE) at eip {eip:#x}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// The machine state.
#[derive(Clone)]
pub struct Machine {
    regs: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// Condition flags (ZF/SF/CF/OF).
    pub flags: bits::Flags,
    mem: Vec<u8>,
    /// True after `hlt`.
    pub halted: bool,
    /// Values written by `outl` (the teaching I/O port).
    pub output: Vec<i32>,
    /// Instructions executed.
    pub executed: u64,
    /// Cost-model cycles consumed.
    pub cycles: u64,
    /// The loaded program's instructions, decoded into blocks.
    cache: Cache,
}

/// A decoded instruction with what each step of it needs besides: its
/// encoded length and its cost when no branch is taken.
#[derive(Clone, Copy)]
struct Decoded {
    instr: Instr,
    len: u8,
    /// [`Machine::cost_of`] with `taken_branch` false: at most 27.
    cost: u8,
}

impl Decoded {
    fn new(instr: Instr, len: usize) -> Decoded {
        Decoded {
            instr,
            len: len as u8,
            cost: Machine::cost_of(&instr, false) as u8,
        }
    }
}

/// Up to [`BLOCK_LEN`] instructions of the program that run one after
/// another: decoding stops after a `jmp`, `jcc`, `call`, `ret` or `hlt`,
/// and before an instruction that does not decode or does not lie wholly
/// inside the program.
#[derive(Clone, Copy)]
struct Block {
    /// Its instructions are `Cache::body[first..first + len]`.
    first: u32,
    len: u8,
    /// The address just past its last instruction.
    end: u32,
    exit: Exit,
}

/// How [`Machine::run`] leaves a block after its last instruction.
#[derive(Clone, Copy)]
enum Exit {
    /// A `jmp` to a fixed address.
    Jump(u32),
    /// A `jcc` to a fixed address; not taken, it falls through to the
    /// block's `end`.
    Branch(Cond, u32),
    /// Any other instruction, run through `execute` like the rest.
    Step,
}

/// The instruction cache: the loaded program's blocks, each decoded the
/// first time `eip` reaches its start, in one arena.
#[derive(Clone, Default)]
struct Cache {
    /// One entry per program byte (the program starts at [`CODE_BASE`]):
    /// 0, or one more than the index in `blocks` of the block starting
    /// there.
    starts: Vec<u32>,
    blocks: Vec<Block>,
    /// Every block's instructions, each block's in order.
    body: Vec<Decoded>,
    /// The most bytes any block built since the cache was emptied spans,
    /// so a block that covers a byte starts at most `span - 1` bytes
    /// before it.
    span: usize,
}

impl Cache {
    /// Empties the cache for a program of `len` bytes.
    fn reset(&mut self, len: usize) {
        self.starts.clear();
        self.starts.resize(len, 0);
        self.blocks.clear();
        self.body.clear();
        self.span = 0;
    }

    /// The block starting at `at`, decoded from `mem` the first time;
    /// `None` when no instruction at `at` lies wholly inside the program.
    #[inline(always)]
    fn lookup(&mut self, mem: &[u8], at: u32) -> Option<usize> {
        let offset = (at as usize).wrapping_sub(CODE_BASE as usize);
        match *self.starts.get(offset)? {
            0 => self.build(mem, offset),
            tag => Some(tag as usize - 1),
        }
    }

    /// Whether block `id` still starts at `at`: false once a store has
    /// cleared it.
    #[inline(always)]
    fn holds(&self, at: u32, id: usize) -> bool {
        let offset = (at as usize).wrapping_sub(CODE_BASE as usize);
        self.starts.get(offset) == Some(&(id as u32 + 1))
    }

    /// Decodes the block starting `start` bytes into the program. A
    /// cache holding [`CACHE_LIMIT`] instructions empties first, so a
    /// program that keeps rewriting itself cannot grow it without bound.
    #[cold]
    #[inline(never)]
    fn build(&mut self, mem: &[u8], start: usize) -> Option<usize> {
        if self.body.len() + BLOCK_LEN > CACHE_LIMIT {
            self.reset(self.starts.len());
        }
        let code = CODE_BASE as usize;
        let program = &mem[code..code + self.starts.len()];
        let first = self.body.len();
        let mut at = start;
        let mut exit = Exit::Step;
        while self.body.len() - first < BLOCK_LEN {
            let Ok((instr, len)) = Instr::decode(program, at) else {
                break;
            };
            self.body.push(Decoded::new(instr, len));
            at += len;
            match (instr.op, instr.cond, instr.dst) {
                (Op::Jmp, _, Some(Operand::Imm(target))) => exit = Exit::Jump(target as u32),
                (Op::Jcc, Some(cond), Some(Operand::Imm(target))) => {
                    exit = Exit::Branch(cond, target as u32)
                }
                (Op::Jmp | Op::Jcc | Op::Call | Op::Ret | Op::Hlt, ..) => {}
                _ => continue,
            }
            break;
        }
        let len = self.body.len() - first;
        if len == 0 {
            return None;
        }
        self.span = self.span.max(at - start);
        self.blocks.push(Block {
            first: first as u32,
            len: len as u8,
            end: (code + at) as u32,
            exit,
        });
        self.starts[start] = self.blocks.len() as u32;
        Some(self.blocks.len() - 1)
    }

    /// Clears every block a store to `[addr, addr + 4)` can overlap: the
    /// starts under it and in the `span - 1` bytes before it, at most
    /// 16 × 17 + 3 entries whatever the program's size.
    fn clear(&mut self, addr: usize) {
        let code = CODE_BASE as usize;
        let len = self.starts.len();
        if addr < code + len && addr + 4 > code {
            let first = (addr + 1).saturating_sub(code + self.span);
            let end = (addr + 4 - code).min(len);
            self.starts[first..end].fill(0);
        }
    }
}

/// ZF and SF of a 32-bit result, with CF and OF clear: the flags the
/// logic, shift, multiply and divide instructions start from.
fn result_flags(v: u32) -> Flags {
    Flags {
        zf: v == 0,
        sf: (v as i32) < 0,
        cf: false,
        of: false,
    }
}

/// `a + b` at 32 bits with the flags `bits::arith::add(32, a, b)` sets.
fn add_flags(a: u32, b: u32) -> (u32, Flags) {
    let (v, cf) = a.overflowing_add(b);
    let of = (a as i32).overflowing_add(b as i32).1;
    (
        v,
        Flags {
            cf,
            of,
            ..result_flags(v)
        },
    )
}

/// `a - b` at 32 bits with the flags `bits::arith::sub(32, a, b)` sets:
/// CF is the borrow, set when `a < b` unsigned.
fn sub_flags(a: u32, b: u32) -> (u32, Flags) {
    let (v, cf) = a.overflowing_sub(b);
    let of = (a as i32).overflowing_sub(b as i32).1;
    (
        v,
        Flags {
            cf,
            of,
            ..result_flags(v)
        },
    )
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("eip", &format_args!("{:#x}", self.eip))
            .field("regs", &self.regs)
            .field("halted", &self.halted)
            .field("executed", &self.executed)
            .finish_non_exhaustive()
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// A fresh machine with zeroed memory and `%esp = %ebp = STACK_TOP`.
    pub fn new() -> Machine {
        let mut m = Machine {
            regs: [0; 8],
            eip: CODE_BASE,
            flags: bits::Flags::default(),
            mem: vec![0; MEM_SIZE],
            halted: false,
            output: Vec::new(),
            executed: 0,
            cycles: 0,
            cache: Cache::default(),
        };
        m.regs[Reg::Esp.index() as usize] = STACK_TOP;
        m.regs[Reg::Ebp.index() as usize] = STACK_TOP;
        m
    }

    /// Loads an assembled program at [`CODE_BASE`] and jumps to its entry.
    pub fn load(&mut self, program: &Program) -> Result<(), MachineError> {
        let end = CODE_BASE as usize + program.bytes.len();
        if end >= STACK_TOP as usize {
            return Err(MachineError::ProgramTooLarge(program.bytes.len()));
        }
        self.mem[CODE_BASE as usize..end].copy_from_slice(&program.bytes);
        self.cache.reset(program.bytes.len());
        self.eip = program.entry;
        self.halted = false;
        Ok(())
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.regs[r.index() as usize] = v;
    }

    /// Reads a 32-bit little-endian word.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MachineError> {
        let a = addr as usize;
        if a + 4 > MEM_SIZE {
            return Err(MachineError::Segfault {
                addr,
                eip: self.eip,
            });
        }
        Ok(u32::from_le_bytes([
            self.mem[a],
            self.mem[a + 1],
            self.mem[a + 2],
            self.mem[a + 3],
        ]))
    }

    /// Writes a 32-bit little-endian word. A store that overlaps the
    /// loaded program drops the decoded blocks that can cover its bytes,
    /// so self-modifying code runs its new bytes. A block spans at most
    /// 16 instructions of [`Instr::MAX_LEN`] bytes, so those are the
    /// blocks starting under the store or in the bytes before it that the
    /// longest block built so far spans: a store costs the same whatever
    /// the program's size.
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), MachineError> {
        let a = addr as usize;
        if a + 4 > MEM_SIZE {
            return Err(MachineError::Segfault {
                addr,
                eip: self.eip,
            });
        }
        self.mem[a..a + 4].copy_from_slice(&v.to_le_bytes());
        self.cache.clear(a);
        Ok(())
    }

    /// All of memory, read-only.
    pub fn memory(&self) -> &[u8] {
        &self.mem
    }

    /// Reads one byte (used by the debugger's memory examiner).
    pub fn read_u8(&self, addr: u32) -> Result<u8, MachineError> {
        self.mem
            .get(addr as usize)
            .copied()
            .ok_or(MachineError::Segfault {
                addr,
                eip: self.eip,
            })
    }

    /// Computes a memory operand's effective address:
    /// `disp + base + index*scale`, wrapping at 32 bits like the hardware.
    pub fn effective_address(&self, m: &Mem) -> u32 {
        let mut ea = m.disp as i64;
        if let Some(b) = m.base {
            ea += self.reg(b) as i64;
        }
        if let Some(i) = m.index {
            ea += self.reg(i) as i64 * m.scale as i64;
        }
        ea as u32
    }

    fn read_operand(&self, o: &Operand) -> Result<u32, MachineError> {
        match o {
            Operand::Reg(r) => Ok(self.reg(*r)),
            Operand::Imm(i) => Ok(*i as u32),
            Operand::Mem(m) => self.read_u32(self.effective_address(m)),
        }
    }

    fn write_operand(&mut self, o: &Operand, v: u32) -> Result<(), MachineError> {
        match o {
            Operand::Reg(r) => {
                self.set_reg(*r, v);
                Ok(())
            }
            Operand::Imm(_) => Err(MachineError::WriteToImmediate(self.eip)),
            Operand::Mem(m) => self.write_u32(self.effective_address(m), v),
        }
    }

    fn push(&mut self, v: u32) -> Result<(), MachineError> {
        let esp = self.reg(Reg::Esp).wrapping_sub(4);
        self.set_reg(Reg::Esp, esp);
        self.write_u32(esp, v)
    }

    fn pop(&mut self) -> Result<u32, MachineError> {
        let esp = self.reg(Reg::Esp);
        let v = self.read_u32(esp)?;
        self.set_reg(Reg::Esp, esp.wrapping_add(4));
        Ok(v)
    }

    /// The cost model: base 1 cycle, +3 per memory operand, +3 for implicit
    /// stack traffic, +4 for multiply, +1 for a taken branch.
    pub fn cost_of(instr: &Instr, taken_branch: bool) -> u64 {
        let mut c = 1;
        for o in [instr.src, instr.dst].into_iter().flatten() {
            if o.is_mem() {
                c += 3;
            }
        }
        match instr.op {
            Op::Push | Op::Pop | Op::Ret | Op::Leave => c += 3,
            Op::Call => c += 3,
            Op::Imul => c += 4,
            Op::Idiv | Op::Imod => c += 20, // division is famously slow
            _ => {}
        }
        if taken_branch {
            c += 1;
        }
        c
    }

    /// Decodes the instruction at `at` straight from memory: the path for
    /// an `eip` where no block can start (outside the program, or an
    /// instruction running past its end), taken at every step there
    /// exactly as if there were no cache.
    #[cold]
    #[inline(never)]
    fn decode(&self, at: u32) -> Result<Decoded, MachineError> {
        let code_off = at as usize;
        if code_off >= MEM_SIZE {
            return Err(MachineError::Segfault { addr: at, eip: at });
        }
        let (instr, len) = Instr::decode(&self.mem, code_off)
            .map_err(|e| MachineError::IllegalInstruction(e, at))?;
        Ok(Decoded::new(instr, len))
    }

    /// Decodes the instruction at `eip` straight from memory and executes
    /// it, returning the cycles it cost.
    #[cold]
    #[inline(never)]
    fn execute_from_memory(&mut self) -> Result<u64, MachineError> {
        let entry = self.decode(self.eip)?;
        self.execute(entry)
    }

    /// Executes one instruction, the first of the block at `eip`. Returns
    /// the instruction executed.
    pub fn step(&mut self) -> Result<Instr, MachineError> {
        if self.halted {
            return Ok(Instr::zero(Op::Hlt));
        }
        let entry = match self.cache.lookup(&self.mem, self.eip) {
            Some(id) => self.cache.body[self.cache.blocks[id].first as usize],
            None => self.decode(self.eip)?,
        };
        self.cycles += self.execute(entry)?;
        self.executed += 1;
        Ok(entry.instr)
    }

    /// Runs until `hlt` or the fuel limit, a block per lookup. A block
    /// runs whole only when the fuel covers it; otherwise its first
    /// instructions run until the fuel is gone, so the fuel runs out on
    /// the instruction it would at one step a time. After each
    /// instruction `run` checks that its block still starts where it
    /// did: a store that overlapped the block cleared that start, and the
    /// rest is looked up again from `eip`. A block whose fixed `jmp`
    /// leads back to its own start runs in a loop of its own, and any
    /// other block whose exit lands on its own start runs again without
    /// a lookup too.
    pub fn run(&mut self, fuel: u64) -> Result<(), MachineError> {
        // Every instruction that runs takes one unit of `left`, so
        // `executed` grows by the fuel used.
        let (mut left, mut cycles) = (fuel, self.cycles);
        let result = 'run: loop {
            if self.halted {
                break Ok(());
            }
            if left == 0 {
                break Err(MachineError::OutOfFuel);
            }
            let start = self.eip;
            let Some(id) = self.cache.lookup(&self.mem, start) else {
                match self.execute_from_memory() {
                    Ok(cost) => (cycles, left) = (cycles + cost, left - 1),
                    Err(e) => break Err(e),
                }
                continue;
            };
            let Block {
                first,
                len,
                end,
                exit,
            } = self.cache.blocks[id];
            let (first, len) = (first as usize, u64::from(len));
            // A fixed jump is taken below; every other instruction runs
            // through `execute`.
            let (steps, jump_cost) = match exit {
                Exit::Step => (len, 0),
                _ => (
                    len - 1,
                    u64::from(self.cache.body[first + len as usize - 1].cost),
                ),
            };
            // The first `$count` instructions of the block through
            // `execute`. A fault, or a store that cleared the block's
            // start, ends the pass there.
            macro_rules! body {
                ($count:expr) => {
                    for i in 0..$count as usize {
                        match self.execute(self.cache.body[first + i]) {
                            Ok(cost) => cycles += cost,
                            Err(e) => {
                                left -= i as u64;
                                break 'run Err(e);
                            }
                        }
                        if !self.cache.holds(start, id) {
                            left -= i as u64 + 1;
                            continue 'run;
                        }
                    }
                };
            }
            // The fuel for the whole block, once its instructions up to the
            // fixed jump have run: a block the fuel does not cover stops
            // where the fuel ran out.
            macro_rules! charge {
                () => {
                    if len > left {
                        left = 0;
                        continue 'run;
                    }
                    left -= len;
                };
            }
            // A block whose fixed `jmp` leads back to its own start runs
            // in a loop of its own, picked here once from its exit. After
            // a pass's body, the inner loop takes the pass's fuel and jump,
            // and keeps taking them for as long as the next pass would run
            // no instruction: a block that is only its `jmp` spins in that
            // inner loop, a short innermost loop with its counters in
            // registers.
            match exit {
                Exit::Jump(target) if target == start => loop {
                    body!(steps.min(left));
                    loop {
                        charge!();
                        self.eip = start;
                        cycles += jump_cost + 1;
                        if steps.min(left) != 0 {
                            break;
                        }
                    }
                },
                // Any other block runs a pass at a time, and again without a
                // lookup for as long as its exit lands on its own start.
                _ => loop {
                    body!(steps.min(left));
                    charge!();
                    match exit {
                        Exit::Jump(target) => {
                            self.eip = target;
                            cycles += jump_cost + 1;
                        }
                        Exit::Branch(cond, target) => {
                            let taken = cond.eval(self.flags);
                            self.eip = if taken { target } else { end };
                            cycles += jump_cost + u64::from(taken);
                        }
                        Exit::Step => {}
                    }
                    if self.eip != start {
                        continue 'run;
                    }
                },
            }
        };
        self.executed += fuel - left;
        self.cycles = cycles;
        result
    }

    /// Executes `entry`, the instruction at `eip`, and returns the cycles
    /// it cost: the one step body that [`Machine::step`] and
    /// [`Machine::run`] share, inlined into both. The caller counts it in
    /// `executed` and `cycles`.
    #[inline(always)]
    fn execute(&mut self, entry: Decoded) -> Result<u64, MachineError> {
        let Decoded { instr, len, cost } = entry;
        let at = self.eip;
        self.eip = at.wrapping_add(u32::from(len));
        let mut taken = false;

        match instr.op {
            Op::Nop => {}
            Op::Hlt => self.halted = true,
            Op::Mov => {
                let v = self.read_operand(&instr.src.expect("mov has src"))?;
                self.write_operand(&instr.dst.expect("mov has dst"), v)?;
            }
            Op::Lea => {
                let ea = match instr.src {
                    Some(Operand::Mem(m)) => self.effective_address(&m),
                    _ => {
                        return Err(MachineError::IllegalInstruction(
                            DecodeError::BadOperandKind(0, at as usize),
                            at,
                        ))
                    }
                };
                self.write_operand(&instr.dst.expect("lea has dst"), ea)?;
            }
            Op::Add | Op::Sub | Op::Cmp => {
                let src = self.read_operand(&instr.src.expect("src"))?;
                let dst_op = instr.dst.expect("dst");
                let dst = self.read_operand(&dst_op)?;
                let (v, flags) = if instr.op == Op::Add {
                    add_flags(dst, src)
                } else {
                    sub_flags(dst, src)
                };
                self.flags = flags;
                if instr.op != Op::Cmp {
                    self.write_operand(&dst_op, v)?;
                }
            }
            Op::And | Op::Or | Op::Xor | Op::Test => {
                let src = self.read_operand(&instr.src.expect("src"))?;
                let dst_op = instr.dst.expect("dst");
                let dst = self.read_operand(&dst_op)?;
                let v = match instr.op {
                    Op::And | Op::Test => dst & src,
                    Op::Or => dst | src,
                    _ => dst ^ src,
                };
                self.flags = result_flags(v);
                if instr.op != Op::Test {
                    self.write_operand(&dst_op, v)?;
                }
            }
            Op::Imul => {
                let src = self.read_operand(&instr.src.expect("src"))? as i32;
                let dst_op = instr.dst.expect("dst");
                let dst = self.read_operand(&dst_op)? as i32;
                let wide = src as i64 * dst as i64;
                let v = wide as i32;
                let overflow = wide != v as i64;
                self.flags = Flags {
                    cf: overflow,
                    of: overflow,
                    ..result_flags(v as u32)
                };
                self.write_operand(&dst_op, v as u32)?;
            }
            Op::Idiv | Op::Imod => {
                let src = self.read_operand(&instr.src.expect("src"))? as i32;
                let dst_op = instr.dst.expect("dst");
                let dst = self.read_operand(&dst_op)? as i32;
                if src == 0 {
                    return Err(MachineError::DivideByZero(at));
                }
                let v = if instr.op == Op::Idiv {
                    dst.wrapping_div(src)
                } else {
                    dst.wrapping_rem(src)
                };
                // x86 leaves flags undefined after division; we define them
                // from the result for determinism.
                self.flags = result_flags(v as u32);
                self.write_operand(&dst_op, v as u32)?;
            }
            Op::Shl | Op::Shr | Op::Sar => {
                let count = match instr.src.expect("src") {
                    Operand::Imm(i) => i as u32,
                    Operand::Reg(r) => self.reg(r),
                    Operand::Mem(_) => return Err(MachineError::BadShiftCount(at)),
                } & 31;
                let dst_op = instr.dst.expect("dst");
                let dst = self.read_operand(&dst_op)?;
                let (v, cf) = if count == 0 {
                    (dst, self.flags.cf)
                } else {
                    match instr.op {
                        Op::Shl => (dst << count, (dst >> (32 - count)) & 1 == 1),
                        Op::Shr => (dst >> count, (dst >> (count - 1)) & 1 == 1),
                        _ => (
                            ((dst as i32) >> count) as u32,
                            ((dst as i32) >> (count - 1)) & 1 == 1,
                        ),
                    }
                };
                self.flags = Flags {
                    cf,
                    ..result_flags(v)
                };
                self.write_operand(&dst_op, v)?;
            }
            Op::Inc | Op::Dec => {
                let dst_op = instr.dst.expect("dst");
                let dst = self.read_operand(&dst_op)?;
                let (v, flags) = if instr.op == Op::Inc {
                    add_flags(dst, 1)
                } else {
                    sub_flags(dst, 1)
                };
                // x86: inc/dec preserve CF.
                self.flags = Flags {
                    cf: self.flags.cf,
                    ..flags
                };
                self.write_operand(&dst_op, v)?;
            }
            Op::Neg => {
                let dst_op = instr.dst.expect("dst");
                let dst = self.read_operand(&dst_op)?;
                // CF is the borrow of `0 - dst`: set unless `dst` is 0.
                let (v, flags) = sub_flags(0, dst);
                self.flags = flags;
                self.write_operand(&dst_op, v)?;
            }
            Op::Not => {
                let dst_op = instr.dst.expect("dst");
                let dst = self.read_operand(&dst_op)?;
                self.write_operand(&dst_op, !dst)?; // no flags, like x86
            }
            Op::Push => {
                let v = self.read_operand(&instr.dst.expect("operand"))?;
                self.push(v)?;
            }
            Op::Pop => {
                let v = self.pop()?;
                self.write_operand(&instr.dst.expect("operand"), v)?;
            }
            Op::Jmp => {
                self.eip = self.read_operand(&instr.dst.expect("target"))?;
                taken = true;
            }
            Op::Jcc => {
                if instr.cond.expect("jcc cond").eval(self.flags) {
                    self.eip = self.read_operand(&instr.dst.expect("target"))?;
                    taken = true;
                }
            }
            Op::Call => {
                let target = self.read_operand(&instr.dst.expect("target"))?;
                let ret = self.eip;
                self.push(ret)?;
                self.eip = target;
                taken = true;
            }
            Op::Ret => {
                self.eip = self.pop()?;
                taken = true;
            }
            Op::Leave => {
                let ebp = self.reg(Reg::Ebp);
                self.set_reg(Reg::Esp, ebp);
                let saved = self.pop()?;
                self.set_reg(Reg::Ebp, saved);
            }
            Op::Out => {
                let v = self.read_operand(&instr.dst.expect("operand"))?;
                self.output.push(v as i32);
            }
        }

        Ok(u64::from(cost) + u64::from(taken))
    }

    /// Pretty-prints registers the way the course's GDB cheat-sheet does.
    pub fn dump_registers(&self) -> String {
        let mut s = String::new();
        for r in Reg::all() {
            s.push_str(&format!(
                "{:<5} {:#010x}  {}\n",
                r.att_name(),
                self.reg(r),
                self.reg(r) as i32
            ));
        }
        s.push_str(&format!("eip   {:#010x}\n", self.eip));
        s.push_str(&format!("flags {}\n", self.flags.pretty()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::assemble;
    use bits::arith;

    /// Loads `src` into a fresh machine without running it.
    fn loaded(src: &str) -> Machine {
        let p = assemble(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let mut m = Machine::new();
        m.load(&p).unwrap();
        m
    }

    fn run_src(src: &str) -> Machine {
        let mut m = loaded(src);
        m.run(100_000).unwrap();
        m
    }

    #[test]
    fn arithmetic_and_flags() {
        let m = run_src("movl $7, %eax\nsubl $7, %eax\nhlt\n");
        assert_eq!(m.reg(Reg::Eax), 0);
        assert!(m.flags.zf);
    }

    #[test]
    fn loop_counts_down() {
        let m = run_src(
            r#"
            movl $5, %ecx
            movl $0, %eax
            top:
                addl %ecx, %eax
                decl %ecx
                cmpl $0, %ecx
                jne top
            hlt
        "#,
        );
        assert_eq!(m.reg(Reg::Eax), 15);
    }

    #[test]
    fn memory_store_load() {
        let m = run_src(
            r#"
            movl $0x2000, %ebx
            movl $77, (%ebx)
            movl (%ebx), %ecx
            movl 0x2000, %edx
            hlt
        "#,
        );
        assert_eq!(m.reg(Reg::Ecx), 77);
        assert_eq!(m.reg(Reg::Edx), 77);
    }

    #[test]
    fn indexed_addressing() {
        let m = run_src(
            r#"
            movl $0x3000, %eax
            movl $2, %ecx
            movl $99, 8(%eax)        # a[2] for 4-byte elements
            movl (%eax,%ecx,4), %ebx
            hlt
        "#,
        );
        assert_eq!(m.reg(Reg::Ebx), 99);
    }

    #[test]
    fn lea_computes_without_touching_memory() {
        let m = run_src(
            r#"
            movl $0x4000, %eax
            movl $3, %ecx
            leal 4(%eax,%ecx,4), %edx
            hlt
        "#,
        );
        assert_eq!(m.reg(Reg::Edx), 0x4000 + 4 + 12);
    }

    #[test]
    fn push_pop_stack_discipline() {
        let m = run_src(
            r#"
            movl $11, %eax
            movl $22, %ebx
            pushl %eax
            pushl %ebx
            popl %ecx
            popl %edx
            hlt
        "#,
        );
        assert_eq!(m.reg(Reg::Ecx), 22);
        assert_eq!(m.reg(Reg::Edx), 11);
        assert_eq!(m.reg(Reg::Esp), STACK_TOP);
    }

    #[test]
    fn call_ret_with_frame() {
        // The full prologue/epilogue dance the course spends a week on.
        let m = run_src(
            r#"
            main:
                pushl $10          # argument
                call double
                addl $4, %esp      # caller cleans up
                hlt
            double:
                pushl %ebp
                movl %esp, %ebp
                movl 8(%ebp), %eax # first arg
                addl %eax, %eax
                leave
                ret
        "#,
        );
        assert_eq!(m.reg(Reg::Eax), 20);
        assert_eq!(m.reg(Reg::Esp), STACK_TOP, "stack balanced");
    }

    #[test]
    fn signed_vs_unsigned_branches() {
        // -1 vs 1: signed says less, unsigned says above.
        let m = run_src(
            r#"
            movl $-1, %eax
            cmpl $1, %eax      # compute eax - 1
            jl signed_less
            hlt
            signed_less:
                movl $111, %ebx
                cmpl $1, %eax
                ja unsigned_above
                hlt
            unsigned_above:
                movl $222, %ecx
                hlt
        "#,
        );
        assert_eq!(m.reg(Reg::Ebx), 111);
        assert_eq!(m.reg(Reg::Ecx), 222);
    }

    #[test]
    fn shifts_and_sar_sign() {
        let m = run_src(
            r#"
            movl $-8, %eax
            sarl $1, %eax      # arithmetic: -4
            movl $-8, %ebx
            shrl $1, %ebx      # logical: big positive
            movl $3, %ecx
            shll $2, %ecx      # 12
            hlt
        "#,
        );
        assert_eq!(m.reg(Reg::Eax) as i32, -4);
        assert_eq!(m.reg(Reg::Ebx), 0x7FFF_FFFC);
        assert_eq!(m.reg(Reg::Ecx), 12);
    }

    #[test]
    fn inc_preserves_carry() {
        let m = run_src(
            r#"
            movl $0xFFFFFFFF, %eax
            addl $1, %eax      # sets CF
            incl %ebx          # must keep CF set
            hlt
        "#,
        );
        assert!(m.flags.cf);
    }

    #[test]
    fn out_collects_values() {
        let m = run_src("movl $1, %eax\noutl %eax\noutl $42\nhlt\n");
        assert_eq!(m.output, vec![1, 42]);
    }

    #[test]
    fn indirect_jump_and_call_through_register() {
        // Function-pointer style: load a label address into a register and
        // jump/call through it.
        let p = assemble(
            r#"
            main:
                movl $target, %eax      # not label syntax: use a push trick
                hlt
            target:
                movl $7, %ebx
                hlt
        "#,
        );
        // `movl $target` is not supported (labels only in jmp/call), so the
        // assembler must reject it...
        assert!(p.is_err(), "labels are control-flow-only operands");

        // ...but indirect control flow works by computing the address:
        let prog = assemble(
            r#"
            main:
                call get_target         # eax = address of target
                jmp done
            get_target:
                movl $0x1000, %eax      # CODE_BASE; patched below
                ret
            done:
                hlt
        "#,
        )
        .unwrap();
        let target = prog.symbols["done"];
        let mut m = Machine::new();
        m.load(&prog).unwrap();
        m.run(100).unwrap();
        // Now demonstrate register-indirect jmp directly: write a program
        // whose jump target comes from %eax.
        let prog2 = assemble(
            r#"
            main:
                movl $99, %ecx
                jmp %eax
            never:
                movl $0, %ecx
                hlt
        "#,
        )
        .unwrap();
        let mut m2 = Machine::new();
        m2.load(&prog2).unwrap();
        m2.set_reg(Reg::Eax, target); // from the first program's symbols? use own:
                                      // jump straight to hlt in prog2: reuse 'never'+skip... simplest:
                                      // jump to the hlt at the end of 'never' block:
        let hlt_addr = prog2.listing.last().unwrap().0;
        m2.set_reg(Reg::Eax, hlt_addr);
        m2.run(100).unwrap();
        assert_eq!(m2.reg(Reg::Ecx), 99, "indirect jump skipped the clobber");
    }

    #[test]
    fn segfault_reported() {
        let p = assemble("movl $0xFFFFF000, %eax\nmovl (%eax), %ebx\nhlt\n").unwrap();
        let mut m = Machine::new();
        m.load(&p).unwrap();
        match m.run(100) {
            Err(MachineError::Segfault { addr, .. }) => assert_eq!(addr, 0xFFFF_F000),
            other => panic!("expected segfault, got {other:?}"),
        }
    }

    #[test]
    fn illegal_instruction_on_garbage_jump() {
        let p = assemble("jmp $0x9000\nhlt\n").unwrap();
        let mut m = Machine::new();
        m.load(&p).unwrap();
        // 0x9000 contains zeroed memory: opcode 0 = nop... so fill:
        m.mem[0x9000] = 0xEE;
        match m.run(100) {
            Err(MachineError::IllegalInstruction(_, eip)) => assert_eq!(eip, 0x9000),
            other => panic!("expected illegal instruction, got {other:?}"),
        }
    }

    #[test]
    fn cost_model_charges_memory() {
        let reg_loop = run_src(
            r#"
            movl $100, %ecx
            movl $0, %eax
            t: addl $1, %eax
               decl %ecx
               cmpl $0, %ecx
               jne t
            hlt
        "#,
        );
        let mem_loop = run_src(
            r#"
            movl $100, %ecx
            movl $0, 0x2000
            t: movl 0x2000, %eax
               addl $1, %eax
               movl %eax, 0x2000
               decl %ecx
               cmpl $0, %ecx
               jne t
            hlt
        "#,
        );
        assert_eq!(reg_loop.reg(Reg::Eax), 100);
        assert_eq!(mem_loop.read_u32(0x2000).unwrap(), 100);
        assert!(
            mem_loop.cycles > reg_loop.cycles * 2,
            "memory version must be much slower: {} vs {}",
            mem_loop.cycles,
            reg_loop.cycles
        );
    }

    #[test]
    fn random_straight_line_programs_match_reference_interpreter() {
        // Property-style differential test: 200 seeded random straight-line
        // programs over 4 registers, executed on the Machine and on a
        // 20-line i32 reference interpreter. Any drift in arithmetic,
        // mnemonic tables, encoding, or operand handling shows up here.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let regs = ["%eax", "%ebx", "%ecx", "%edx"];
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut src = String::new();
            let mut model = [0i32; 4];
            for (i, r) in regs.iter().enumerate() {
                let v = rng.gen_range(-100..100);
                src.push_str(&format!("movl ${v}, {r}\n"));
                model[i] = v;
            }
            for _ in 0..12 {
                let d = rng.gen_range(0..4usize);
                let s_i = rng.gen_range(0..4usize);
                match rng.gen_range(0..6) {
                    0 => {
                        src.push_str(&format!("addl {}, {}\n", regs[s_i], regs[d]));
                        model[d] = model[d].wrapping_add(model[s_i]);
                    }
                    1 => {
                        src.push_str(&format!("subl {}, {}\n", regs[s_i], regs[d]));
                        model[d] = model[d].wrapping_sub(model[s_i]);
                    }
                    2 => {
                        src.push_str(&format!("xorl {}, {}\n", regs[s_i], regs[d]));
                        model[d] ^= model[s_i];
                    }
                    3 => {
                        src.push_str(&format!("imull {}, {}\n", regs[s_i], regs[d]));
                        model[d] = model[d].wrapping_mul(model[s_i]);
                    }
                    4 => {
                        let k = rng.gen_range(1..4u32);
                        src.push_str(&format!("shll ${k}, {}\n", regs[d]));
                        model[d] = ((model[d] as u32) << k) as i32;
                    }
                    _ => {
                        src.push_str(&format!("negl {}\n", regs[d]));
                        model[d] = model[d].wrapping_neg();
                    }
                }
            }
            src.push_str("hlt\n");
            let prog = assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            let mut m = Machine::new();
            m.load(&prog).unwrap();
            m.run(1000).unwrap();
            let got = [
                m.reg(Reg::Eax) as i32,
                m.reg(Reg::Ebx) as i32,
                m.reg(Reg::Ecx) as i32,
                m.reg(Reg::Edx) as i32,
            ];
            assert_eq!(got, model, "seed {seed} diverged:\n{src}");
        }
    }

    #[test]
    fn flags_match_the_bits_reference_at_32_bits() {
        // add, sub, cmp, inc, dec and neg set the flags the course's
        // `bits::arith` reference computes at width 32, on every pair of
        // edge values and on seeded random pairs. inc and dec keep CF
        // (tried both ways); neg sets it for a nonzero operand.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let edges = [0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF];
        let mut rng = StdRng::seed_from_u64(32);
        let mut pairs: Vec<(u32, u32)> =
            edges.iter().flat_map(|&a| edges.map(|b| (a, b))).collect();
        pairs.extend((0..500).map(|_| (rng.gen(), rng.gen())));
        let mut m = Machine::new();
        for op in [Op::Add, Op::Sub, Op::Cmp, Op::Inc, Op::Dec, Op::Neg] {
            let instr = match op {
                Op::Inc | Op::Dec | Op::Neg => format!("{} %eax", op.mnemonic()),
                _ => format!("{} %ebx, %eax", op.mnemonic()),
            };
            let program = assemble(&format!("{instr}\nhlt\n")).unwrap();
            for &(a, b) in &pairs {
                for old_cf in [false, true] {
                    m.load(&program).unwrap();
                    m.set_reg(Reg::Eax, a);
                    m.set_reg(Reg::Ebx, b);
                    m.flags.cf = old_cf;
                    m.run(2).unwrap();
                    let (a, b) = (u64::from(a), u64::from(b));
                    let want = match op {
                        Op::Add => arith::add(32, a, b),
                        Op::Sub | Op::Cmp => arith::sub(32, a, b),
                        Op::Inc => arith::add(32, a, 1),
                        Op::Dec => arith::sub(32, a, 1),
                        _ => arith::sub(32, 0, a),
                    }
                    .unwrap();
                    let mut flags = want.flags;
                    match op {
                        Op::Inc | Op::Dec => flags.cf = old_cf,
                        Op::Neg => flags.cf = a != 0,
                        _ => {}
                    }
                    let value = if op == Op::Cmp { a } else { want.value };
                    assert_eq!(
                        (u64::from(m.reg(Reg::Eax)), m.flags),
                        (value, flags),
                        "{instr} with eax={a:#x} ebx={b:#x} cf={old_cf}"
                    );
                }
            }
        }
    }

    /// The address of `label` in `src` (every label-free operand has a
    /// fixed width, so a numeric placeholder does not move it).
    fn address_of(src: &str, label: &str) -> u32 {
        assemble(src).unwrap().symbols[label]
    }

    /// The cached blocks: each one's start address and length in bytes.
    fn filled(m: &Machine) -> Vec<(u32, u32)> {
        (CODE_BASE..)
            .zip(&m.cache.starts)
            .filter(|&(_, &tag)| tag != 0)
            .map(|(at, &tag)| (at, m.cache.blocks[tag as usize - 1].end - at))
            .collect()
    }

    #[test]
    fn a_store_into_the_program_runs_the_new_instruction() {
        // The first pass runs `addl $1, %eax`; the `movl` after it then
        // rewrites that instruction's immediate (which follows its opcode
        // and operand-kind bytes) to 1000, and the second pass must run
        // the new bytes rather than the decode it already cached.
        let src = |imm_addr: u32| {
            format!(
                "main:\n    movl $0, %eax\n    movl $2, %ecx\npatch:\n    addl $1, %eax\n\
                 \x20   movl $1000, {imm_addr:#x}\n    decl %ecx\n    cmpl $0, %ecx\n\
                 \x20   jne patch\n    hlt\n"
            )
        };
        let imm_addr = address_of(&src(0), "patch") + 2;
        let mut m = loaded(&src(imm_addr));
        m.run(1000).unwrap();
        assert_eq!(m.reg(Reg::Eax), 1001);
    }

    #[test]
    fn loading_a_program_drops_the_previous_programs_decodes() {
        let mut m = loaded("movl $1, %eax\nhlt\n");
        m.run(10).unwrap();
        m.load(&assemble("movl $2, %eax\nhlt\n").unwrap()).unwrap();
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::Eax), 2);
    }

    #[test]
    fn only_stores_that_overlap_the_program_clear_the_cache() {
        // The loop stores its running sum to the first byte past the
        // program and copies it on with a `movl` as long as an
        // instruction gets: execution is unchanged and every block stays
        // cached.
        let src = |end: u32| {
            format!(
                "main:\n    movl $3, %ecx\n    movl $0, %eax\nagain:\n    addl %ecx, %eax\n\
                 \x20   movl %eax, {end:#x}\n    movl {end:#x}, 0x3000\n    decl %ecx\n\
                 \x20   cmpl $0, %ecx\n    jne again\n    hlt\n"
            )
        };
        let end = CODE_BASE + assemble(&src(0)).unwrap().bytes.len() as u32;
        let again = address_of(&src(0), "again");
        let ran = || {
            let mut m = loaded(&src(end));
            m.run(1000).unwrap();
            m
        };
        let m = ran();
        assert_eq!(
            (m.reg(Reg::Eax), m.read_u32(end), m.read_u32(0x3000)),
            (6, Ok(6), Ok(6))
        );
        assert_eq!((m.executed, m.cycles), (21, 50));
        // main's block runs into the loop, the loop's starts at `again`,
        // and `hlt` follows the loop's last `jne`.
        let cached = filled(&m);
        assert_eq!(
            cached,
            [
                (CODE_BASE, again - CODE_BASE + 51),
                (again, 51),
                (end - 1, 1)
            ],
            "one block per block start that ran"
        );
        // One store at each address from below the program to past it:
        // it drops every block whose bytes it touches, and keeps every
        // block that starts neither under it nor in the bytes before it
        // that the longest block spans.
        let reach = cached.iter().map(|&(_, len)| len).max().unwrap() - 1;
        for addr in CODE_BASE - 8..end + 8 {
            let mut m = ran();
            m.write_u32(addr, 0xFFFF_FFFF).unwrap();
            let after = filled(&m);
            for &(at, len) in &cached {
                let kept = after.contains(&(at, len));
                if at < addr + 4 && at + len > addr {
                    assert!(!kept, "a store at {addr:#x} kept the block at {at:#x}");
                }
                if at + reach < addr || at >= addr + 4 {
                    assert!(kept, "a store at {addr:#x} dropped the block at {at:#x}");
                }
            }
        }
    }

    #[test]
    fn a_large_program_keeps_the_entries_its_stores_do_not_reach() {
        // A program as large as `load` takes, so its tail sits just under
        // the stack. Its loop rewrites the program's first word unchanged,
        // stores into its tail and pushes across its last bytes; each
        // store drops only the blocks around it, so the loop's block stays
        // cached and only main's block, which the first word starts, is
        // gone.
        let head = "main:\n    movl $1000, %ecx\nagain:\n    movl 0x1000, %eax\n\
                    \x20   movl %eax, 0x1000\n    movl %ecx, 0xfef0\n    pushl %ecx\n\
                    \x20   popl %edx\n    decl %ecx\n    cmpl $0, %ecx\n    jne again\n\
                    \x20   hlt\n";
        let size = (STACK_TOP - CODE_BASE - 1) as usize;
        let nops = size - assemble(head).unwrap().bytes.len();
        let p = assemble(&format!("{head}{}", "nop\n".repeat(nops))).unwrap();
        assert_eq!(p.bytes.len(), size);
        let mut m = Machine::new();
        m.load(&p).unwrap();
        let first = m.read_u32(CODE_BASE).unwrap();
        m.run(200_000).unwrap();
        assert_eq!(m.executed, 2 + 1000 * 8);
        assert_eq!(
            (
                m.reg(Reg::Eax),
                m.reg(Reg::Edx),
                m.read_u32(0xfef0).unwrap()
            ),
            (first, 1, 1)
        );
        let again = p.symbols["again"];
        let cached = filled(&m);
        assert!(
            cached.contains(&(again, 57)),
            "the loop's block: {cached:x?}"
        );
        assert!(cached.iter().all(|&(at, _)| at > CODE_BASE));
    }

    #[test]
    fn an_instruction_running_past_the_program_is_never_cached() {
        // Jumping 2 bytes into the final `pushl $0x240` decodes a
        // `pushl $imm` whose immediate's top two bytes lie past the
        // program. The loop rewrites those bytes with a store that does
        // not touch the program, so the second pass must push the new
        // value: 0x22110000 + 0x44330000.
        let src = |push: u32, end: u32| {
            format!(
                "main:\n    movl $2, %ecx\nagain:\n    jmp ${push:#x}\nback:\n    popl %eax\n\
                 \x20   addl %eax, %edx\n    movl $0x02504433, {end:#x}\n    decl %ecx\n\
                 \x20   cmpl $0, %ecx\n    jne again\n    hlt\nlast:\n    pushl $0x240\n"
            )
        };
        let probe = src(0, 0);
        let p = assemble(&probe).unwrap();
        let (push, end) = (p.symbols["last"] + 2, CODE_BASE + p.bytes.len() as u32);
        let mut m = loaded(&src(push, end));
        // Past the end: two immediate bytes (0x11, 0x22), then a
        // `jmp $back` for the straddling push to fall into.
        m.write_u32(end, 0x0250_2211).unwrap();
        m.write_u32(end + 4, address_of(&probe, "back")).unwrap();
        m.run(1000).unwrap();
        assert_eq!(m.reg(Reg::Edx), 0x6644_0000);
    }

    /// Runs `m` on `fuel`: the result, then the final eip, `executed`
    /// and cycles.
    fn finish(mut m: Machine, fuel: u64) -> (Result<(), MachineError>, u32, u64, u64) {
        (m.run(fuel), m.eip, m.executed, m.cycles)
    }

    #[test]
    fn jumps_outside_the_program_or_into_an_instruction_match_plain_decoding() {
        // Each outcome is the one decoding at every step gave.
        use MachineError::{IllegalInstruction, OutOfFuel, Segfault};

        // `ret` pops 0 into eip: nops through zeroed memory below the
        // program, back into it, and around again until fuel runs out.
        let ret =
            loaded("main:\n    movl $7, %ebx\n    movl $1, %edx\n    movl $0, %eax\n    ret\n");
        assert_eq!(
            finish(ret, 200_000),
            (Err(OutOfFuel), 0xc7c, 200_000, 200_196)
        );

        // An `incl %eax` just below the program whose register byte is
        // the program's first byte (a `nop`), decoded across CODE_BASE
        // three times.
        let mut across = loaded(
            "main:\n    nop\n    cmpl $3, %eax\n    je done\n    jmp $0xffe\ndone:\n    hlt\n",
        );
        across.write_u32(0xffc, 0x0129_0000).unwrap();
        assert_eq!(finish(across, 1000), (Ok(()), 0x1017, 16, 20));

        // A `movl` opcode just below the program whose operand kind is the
        // program's first byte, a `jmp` opcode (0x50).
        let mut bad = loaded("main:\n    jmp $0xfff\n    hlt\n");
        bad.write_u32(0xffc, 0x1000_0000).unwrap();
        let illegal = IllegalInstruction(DecodeError::BadOperandKind(0x50, 0xfff), 0xfff);
        assert_eq!(finish(bad, 1000), (Err(illegal), 0xfff, 1, 2));

        // Into `movl $0, %ebx`: its zero immediate is four nops and its
        // operand-kind byte 0x01 a `hlt`; its first operand-kind byte,
        // 0x02, is no opcode.
        let into = |at: u32| {
            loaded(&format!(
                "main:\n    jmp ${at:#x}\nmid:\n    movl $0, %ebx\n    hlt\n"
            ))
        };
        let mid = address_of(
            "main:\n    jmp $0\nmid:\n    movl $0, %ebx\n    hlt\n",
            "mid",
        );
        assert_eq!(finish(into(mid + 2), 1000), (Ok(()), mid + 7, 6, 7));
        let illegal = IllegalInstruction(DecodeError::BadOpcode(2, mid as usize + 1), mid + 1);
        assert_eq!(finish(into(mid + 1), 1000), (Err(illegal), mid + 1, 1, 2));

        // Off the top of memory, near and far.
        let top = Segfault {
            addr: 0x10000,
            eip: 0x10000,
        };
        assert_eq!(
            finish(loaded("jmp $0xfffe\n"), 1000),
            (Err(top), 0x10000, 3, 4)
        );
        let far = Segfault {
            addr: u32::MAX,
            eip: u32::MAX,
        };
        assert_eq!(
            finish(loaded("jmp $-1\n"), 1000),
            (Err(far), u32::MAX, 1, 2)
        );
    }

    #[test]
    fn fuel_and_cycles_are_those_of_decoding_every_step() {
        // The grader's programs at its 200k fuel: a non-halting spin,
        // then the correct sum-array submission on each rubric case.
        const PREFIX: &str = "main:\n    movl $7, %ebx\n    movl $1, %edx\n";
        let mut spin = loaded(&format!("{PREFIX}spin:\n    jmp spin\n"));
        assert_eq!(spin.run(200_000), Err(MachineError::OutOfFuel));
        assert_eq!((spin.executed, spin.cycles), (200_000, 399_998));

        let sum = format!(
            "{PREFIX}    movl $0, %eax\n    movl $0, %edi\n    cmpl $0, %ecx\n    je done\n\
             loop:\n    addl (%esi,%edi,4), %eax\n    addl $1, %edi\n    cmpl %ecx, %edi\n\
             \x20   jne loop\ndone:\n    hlt\n"
        );
        let cases: [(&[i32], u64, u64); 4] = [
            (&[1, 2, 3], 19, 30),
            (&[10, -4, 7, -13], 23, 38),
            (&[42], 11, 14),
            (&[3; 20], 87, 166),
        ];
        for (values, executed, cycles) in cases {
            let mut m = loaded(&sum);
            m.set_reg(Reg::Esi, 0x3000);
            m.set_reg(Reg::Ecx, values.len() as u32);
            for (i, &v) in values.iter().enumerate() {
                m.write_u32(0x3000 + 4 * i as u32, v as u32).unwrap();
            }
            m.run(200_000).unwrap();
            assert_eq!(m.reg(Reg::Eax) as i32, values.iter().sum::<i32>());
            assert_eq!((m.executed, m.cycles), (executed, cycles), "{values:?}");
        }
    }

    #[test]
    fn a_store_into_a_later_instruction_of_the_running_block_runs_its_new_bytes() {
        // Each store and the `addl` after it are one block, built before
        // the store rewrites the `addl`'s immediate (after its opcode and
        // operand-kind bytes) to 1000: a `movl` and an `addl` to memory,
        // and a `pushl` with `%esp` just past the immediate. The block
        // must stop after the store, and the `addl` run its new bytes.
        type Store = fn(u32) -> String;
        let stores: [(Store, u64, u64); 3] = [
            (|imm| format!("movl $1000, {imm:#x}"), 3, 6),
            (|imm| format!("addl $999, {imm:#x}"), 3, 6),
            (
                |imm| format!("movl ${:#x}, %esp\n    pushl $1000", imm + 4),
                4,
                7,
            ),
        ];
        for (store, executed, cycles) in stores {
            let src = |imm: u32| {
                format!(
                    "main:\n    {}\npatch:\n    addl $1, %eax\n    hlt\n",
                    store(imm)
                )
            };
            let imm = address_of(&src(0), "patch") + 2;
            let mut m = loaded(&src(imm));
            m.run(100).unwrap();
            assert_eq!(
                (m.reg(Reg::Eax), m.executed, m.cycles),
                (1000, executed, cycles),
                "{}",
                store(imm)
            );
        }
    }

    /// Runs a copy of `m` on `fuel` and steps another copy as often, and
    /// checks that both end alike: the result, registers, flags, `eip`,
    /// `executed`, cycles and memory. Returns the copy that ran.
    fn run_like_steps(m: &Machine, fuel: u64) -> Machine {
        let mut ran = m.clone();
        let result = ran.run(fuel);
        let mut stepped = m.clone();
        let mut stepped_result = Err(MachineError::OutOfFuel);
        for _ in 0..fuel {
            if stepped.halted {
                break;
            }
            if let Err(e) = stepped.step() {
                stepped_result = Err(e);
                break;
            }
        }
        if stepped.halted {
            stepped_result = Ok(());
        }
        let state = |m: &Machine| (m.regs, m.flags, m.eip, m.executed, m.cycles);
        assert_eq!(
            (result, state(&ran)),
            (stepped_result, state(&stepped)),
            "fuel {fuel}"
        );
        assert!(ran.mem == stepped.mem, "memory at fuel {fuel}");
        ran
    }

    #[test]
    fn a_jump_back_to_its_own_start_loops_as_single_steps_do() {
        // main's block runs into the loop once; the loop's block, two
        // `addl`s and its `jmp`, then runs in the `jmp` loop. Fuel that
        // ends at a pass boundary leaves `eip` at `spin`, and one more
        // stops a pass after its first instruction.
        let src = "main:\n    movl $5, %ebx\nspin:\n    addl $1, %eax\nsecond:\n\
                   \x20   addl %eax, %ebx\n    jmp spin\n";
        let (spin, second) = (address_of(src, "spin"), address_of(src, "second"));
        let m = loaded(src);
        for fuel in 0..40 {
            let ran = run_like_steps(&m, fuel);
            match fuel.checked_sub(4).map(|f| f % 3) {
                Some(0) => assert_eq!(ran.eip, spin, "fuel {fuel}"),
                Some(1) => assert_eq!(ran.eip, second, "fuel {fuel}"),
                _ => {}
            }
        }
        let ran = run_like_steps(&m, 100_000);
        assert_eq!(
            (ran.reg(Reg::Eax), ran.eip, ran.cycles),
            (33_333, spin, 5 + 33_332 * 4)
        );
    }

    #[test]
    fn a_branch_back_to_its_own_start_loops_until_its_condition_fails() {
        // main's block runs the loop's first pass; the loop's own block
        // then takes the `jne` three times and falls through to the `hlt`
        // on its fourth pass. Every fuel up to the `hlt` and past it, and
        // `eip` at each pass boundary.
        let src = "main:\n    movl $5, %ecx\ntop:\n    addl %ecx, %eax\n    decl %ecx\n\
                   \x20   jne top\ndone:\n    hlt\n";
        let (top, done) = (address_of(src, "top"), address_of(src, "done"));
        let m = loaded(src);
        for fuel in 0..24 {
            let ran = run_like_steps(&m, fuel);
            match fuel {
                4 | 7 | 10 | 13 => assert_eq!(ran.eip, top, "fuel {fuel}"),
                16 => assert_eq!(ran.eip, done),
                _ => {}
            }
        }
        let ran = run_like_steps(&m, 100);
        assert!(ran.halted);
        assert_eq!((ran.reg(Reg::Eax), ran.executed, ran.cycles), (15, 17, 21));
    }

    #[test]
    fn a_store_into_a_block_that_jumps_to_itself_ends_its_pass() {
        // Every pass stores `%ecx` into the immediate of the `addl` after
        // the store, so every pass must leave the loop's block after the
        // store and run the new bytes: after n passes `%eax` is
        // 1 + 2 + ... + n.
        let src = |imm: u32| {
            format!(
                "main:\n    movl $1, %ecx\nspin:\n    movl %ecx, {imm:#x}\npatch:\n\
                 \x20   addl $0, %eax\n    incl %ecx\n    jmp spin\n"
            )
        };
        let imm = address_of(&src(0), "patch") + 2;
        let m = loaded(&src(imm));
        for fuel in 0..40 {
            run_like_steps(&m, fuel);
        }
        let ran = run_like_steps(&m, 1 + 4 * 100);
        assert_eq!(ran.reg(Reg::Eax), 5050);
    }

    #[test]
    fn a_call_or_ret_to_its_own_start_runs_as_single_steps_do() {
        // Neither ends its block in a fixed jump, so each runs a pass at a
        // time and again for as long as it lands on its own start. The
        // `call` calls itself, pushing a return address each time; the
        // `ret` pops its own address, pushed three times by the loop
        // before it, then the 0 above the stack.
        let call = loaded("main:\n    jmp again\nagain:\n    call again\n");
        let src = |again: u32| {
            format!(
                "main:\n    movl $3, %ecx\nfill:\n    pushl ${again:#x}\n    decl %ecx\n\
                 \x20   jne fill\nagain:\n    addl $1, %eax\n    ret\n"
            )
        };
        let ret = loaded(&src(address_of(&src(0), "again")));
        for fuel in (0..40).chain([5000]) {
            run_like_steps(&call, fuel);
            run_like_steps(&ret, fuel);
        }
        assert_eq!(run_like_steps(&ret, 16).reg(Reg::Eax), 3);
    }

    #[test]
    fn a_call_to_its_own_address_that_pushes_over_itself_runs_the_new_bytes() {
        // The `call` is a block of its own, entered by the `jmp`, and
        // `%esp` points 4 bytes into it, so its push writes the return
        // address over the `call`'s first four bytes. A block kept in hand
        // would call again; the new first byte, the return address's low
        // byte, is no opcode.
        let src = |esp: u32| {
            format!("main:\n    movl ${esp:#x}, %esp\n    jmp again\nagain:\n    call again\n")
        };
        let again = address_of(&src(0), "again");
        let ret = again + 6;
        let mut m = loaded(&src(again + 4));
        let illegal = MachineError::IllegalInstruction(
            DecodeError::BadOpcode(ret as u8, again as usize),
            again,
        );
        assert_eq!(m.run(100), Err(illegal));
        assert_eq!((m.eip, m.executed, m.cycles), (again, 3, 8));
        assert_eq!(m.read_u32(again), Ok(ret));
    }

    #[test]
    fn a_jump_into_the_middle_of_a_block_starts_a_block_there() {
        // main's block runs through `ten` to the `jl`, which then jumps
        // into it: `ten` gets a block of its own over the same bytes.
        let src = "main:\n    movl $0, %eax\n    movl $0, %ecx\n    addl $1, %eax\nten:\n\
                   \x20   addl $10, %ecx\n    cmpl $50, %ecx\n    jl ten\n    hlt\n";
        let ten = address_of(src, "ten");
        let mut m = loaded(src);
        m.run(1000).unwrap();
        assert_eq!((m.reg(Reg::Eax), m.reg(Reg::Ecx)), (1, 50));
        assert_eq!((m.executed, m.cycles), (19, 23));
        let cached = filled(&m);
        let main = cached[0];
        assert_eq!(main.0, CODE_BASE);
        assert!(
            cached.contains(&(ten, CODE_BASE + main.1 - ten)),
            "{cached:x?}"
        );
    }

    #[test]
    fn a_block_stops_at_the_end_of_the_program() {
        // No control transfer ends the program: its block ends with its
        // last byte, and execution runs on past it through memory.
        let src = "main:\n    movl $5, %eax\n    movl $6, %ebx\n";
        let end = CODE_BASE + assemble(src).unwrap().bytes.len() as u32;
        let mut m = loaded(src);
        m.write_u32(end, 0x0000_0001).unwrap(); // a `hlt` past the end
        m.run(100).unwrap();
        assert_eq!((m.reg(Reg::Eax), m.reg(Reg::Ebx)), (5, 6));
        assert_eq!((m.eip, m.executed, m.cycles), (end + 1, 3, 3));
        assert_eq!(filled(&m), [(CODE_BASE, end - CODE_BASE)]);
    }

    #[test]
    fn fuel_runs_out_inside_a_block_on_the_instruction_it_would_step_to() {
        let src = "main:\n    movl $1, %eax\n    addl $1, %eax\n    addl $1, %eax\n\
                   \x20   addl $1, %eax\n    hlt\n";
        let fourth = CODE_BASE + 3 * 8;
        let mut m = loaded(src);
        assert_eq!(m.run(3), Err(MachineError::OutOfFuel));
        assert_eq!(
            (m.reg(Reg::Eax), m.eip, m.executed, m.cycles),
            (3, fourth, 3, 3)
        );
        // The rest of the block on more fuel, from where it stopped.
        assert_eq!(m.run(1), Err(MachineError::OutOfFuel));
        assert_eq!((m.reg(Reg::Eax), m.executed), (4, 4));
        m.run(1).unwrap();
        assert!(m.halted);
        assert_eq!((m.executed, m.cycles), (5, 5));
    }

    #[test]
    fn a_fault_inside_a_block_leaves_the_state_of_single_steps() {
        // The load segfaults in the middle of main's block: the `movl`
        // before it ran and is counted, nothing after it ran, and the
        // fault names the `eip` a step reports (the next instruction's).
        let src = "main:\n    movl $1, %eax\n    movl $0xfffffff0, %ebx\n\
                   \x20   movl (%ebx), %ecx\n    movl $2, %eax\n    hlt\n";
        let next = CODE_BASE + 8 + 8 + 11;
        let mut m = loaded(src);
        let fault = MachineError::Segfault {
            addr: 0xffff_fff0,
            eip: next,
        };
        assert_eq!(m.run(100), Err(fault));
        assert_eq!(
            (m.reg(Reg::Eax), m.eip, m.executed, m.cycles),
            (1, next, 2, 2)
        );
    }

    #[test]
    fn a_program_that_keeps_rewriting_itself_keeps_the_cache_bounded() {
        // Every pass stores into the loop's own `addl`, so every pass
        // rebuilds the loop's block; the cache starts over before it
        // holds more than its limit.
        let src = |imm_addr: u32| {
            format!(
                "main:\n    movl $100000, %ecx\nagain:\n    movl %ecx, {imm_addr:#x}\n\
                 \x20   addl $0, %eax\n    decl %ecx\n    jne again\n    hlt\n"
            )
        };
        let probe = src(0);
        let imm_addr = address_of(&probe, "again") + 11 + 2;
        let mut m = loaded(&src(imm_addr));
        m.run(1_000_000).unwrap();
        // 100000 + 99999 + ... + 1, at 32 bits.
        assert_eq!(m.reg(Reg::Eax), (100_000u64 * 100_001 / 2) as u32);
        assert_eq!(m.executed, 2 + 4 * 100_000);
        assert!(m.cache.body.len() <= CACHE_LIMIT);
        assert!(m.cache.blocks.len() <= CACHE_LIMIT);
    }

    #[test]
    fn register_dump_format() {
        let m = run_src("movl $-1, %eax\nhlt\n");
        let dump = m.dump_registers();
        assert!(dump.contains("%eax"));
        assert!(dump.contains("0xffffffff"));
        assert!(dump.contains("-1"));
    }
}
