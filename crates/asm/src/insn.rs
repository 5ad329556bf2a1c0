//! The instruction set: registers, operands, operations, conditions, and
//! the byte-level encoding / decoding (assembly ↔ binary, both directions).
//!
//! The encoding is deliberately **variable-length** — one opcode byte, then
//! per-operand descriptors — because teaching x86 means teaching that
//! instructions have different sizes and that the disassembler must walk
//! them in order. The exact bit layout is ours (documented below), not
//! Intel's; see the crate docs for why that substitution is sound.
//!
//! ```text
//! instruction := opcode:u8 [cond:u8 if Jcc] operand*
//! operand     := 0x00                          (none — padding never emitted)
//!              | 0x01 reg:u8                   (register)
//!              | 0x02 imm:i32le                (immediate)
//!              | 0x03 disp:i32le base:u8 index:u8 scale:u8   (memory;
//!                      base/index 0xFF = absent; scale in {1,2,4,8})
//! ```

/// The eight IA-32 general-purpose registers, in Intel encoding order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Reg {
    Eax = 0,
    Ecx = 1,
    Edx = 2,
    Ebx = 3,
    Esp = 4,
    Ebp = 5,
    Esi = 6,
    Edi = 7,
}

impl Reg {
    /// All registers in encoding order.
    pub fn all() -> [Reg; 8] {
        [
            Reg::Eax,
            Reg::Ecx,
            Reg::Edx,
            Reg::Ebx,
            Reg::Esp,
            Reg::Ebp,
            Reg::Esi,
            Reg::Edi,
        ]
    }

    /// Encoding index 0..=7.
    pub fn index(&self) -> u8 {
        *self as u8
    }

    /// Decodes an index.
    pub fn from_index(i: u8) -> Option<Reg> {
        Reg::all().get(i as usize).copied()
    }

    /// AT&T spelling including the `%` sigil.
    pub fn att_name(&self) -> &'static str {
        match self {
            Reg::Eax => "%eax",
            Reg::Ecx => "%ecx",
            Reg::Edx => "%edx",
            Reg::Ebx => "%ebx",
            Reg::Esp => "%esp",
            Reg::Ebp => "%ebp",
            Reg::Esi => "%esi",
            Reg::Edi => "%edi",
        }
    }

    /// Parses `eax` (without sigil).
    pub fn parse(name: &str) -> Option<Reg> {
        Reg::all().into_iter().find(|r| &r.att_name()[1..] == name)
    }
}

/// A memory operand: `disp(base, index, scale)` in AT&T syntax,
/// addressing `disp + base + index*scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mem {
    /// Signed displacement.
    pub disp: i32,
    /// Optional base register.
    pub base: Option<Reg>,
    /// Optional index register.
    pub index: Option<Reg>,
    /// Scale factor: 1, 2, 4, or 8.
    pub scale: u8,
}

impl Mem {
    /// A bare `disp(%base)` operand.
    pub fn base_disp(base: Reg, disp: i32) -> Mem {
        Mem {
            disp,
            base: Some(base),
            index: None,
            scale: 1,
        }
    }

    /// An absolute address.
    pub fn absolute(addr: i32) -> Mem {
        Mem {
            disp: addr,
            base: None,
            index: None,
            scale: 1,
        }
    }

    /// AT&T rendering, omitting absent parts: `8(%ebp)`, `(%eax,%ecx,4)`.
    pub fn att(&self) -> String {
        let mut s = String::new();
        if self.disp != 0 || (self.base.is_none() && self.index.is_none()) {
            s.push_str(&self.disp.to_string());
        }
        if self.base.is_some() || self.index.is_some() {
            s.push('(');
            if let Some(b) = self.base {
                s.push_str(b.att_name());
            }
            if let Some(i) = self.index {
                s.push(',');
                s.push_str(i.att_name());
                s.push(',');
                s.push_str(&self.scale.to_string());
            }
            s.push(')');
        }
        s
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An immediate constant (`$imm` in AT&T).
    Imm(i32),
    /// A memory reference.
    Mem(Mem),
}

impl Operand {
    /// AT&T rendering.
    pub fn att(&self) -> String {
        match self {
            Operand::Reg(r) => r.att_name().to_string(),
            Operand::Imm(i) => format!("${i}"),
            Operand::Mem(m) => m.att(),
        }
    }

    /// True for memory operands (used by the cost model).
    pub fn is_mem(&self) -> bool {
        matches!(self, Operand::Mem(_))
    }
}

/// Branch conditions, with their x86 flag formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    E = 0,
    Ne = 1,
    L = 2,
    Le = 3,
    G = 4,
    Ge = 5,
    B = 6,
    Be = 7,
    A = 8,
    Ae = 9,
    S = 10,
    Ns = 11,
}

impl Cond {
    /// All conditions.
    pub fn all() -> [Cond; 12] {
        [
            Cond::E,
            Cond::Ne,
            Cond::L,
            Cond::Le,
            Cond::G,
            Cond::Ge,
            Cond::B,
            Cond::Be,
            Cond::A,
            Cond::Ae,
            Cond::S,
            Cond::Ns,
        ]
    }

    /// Mnemonic suffix (`e` in `je`).
    pub fn suffix(&self) -> &'static str {
        match self {
            Cond::E => "e",
            Cond::Ne => "ne",
            Cond::L => "l",
            Cond::Le => "le",
            Cond::G => "g",
            Cond::Ge => "ge",
            Cond::B => "b",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::Ae => "ae",
            Cond::S => "s",
            Cond::Ns => "ns",
        }
    }

    /// Decodes an encoded condition byte.
    pub fn from_index(i: u8) -> Option<Cond> {
        Cond::all().get(i as usize).copied()
    }

    /// Evaluates against flags: the exact formulas taught for signed (`l`,
    /// `g`…) vs unsigned (`b`, `a`…) comparison — a favorite exam topic.
    pub fn eval(&self, f: bits::Flags) -> bool {
        match self {
            Cond::E => f.zf,
            Cond::Ne => !f.zf,
            Cond::L => f.sf != f.of,
            Cond::Le => f.zf || (f.sf != f.of),
            Cond::G => !f.zf && (f.sf == f.of),
            Cond::Ge => f.sf == f.of,
            Cond::B => f.cf,
            Cond::Be => f.cf || f.zf,
            Cond::A => !f.cf && !f.zf,
            Cond::Ae => !f.cf,
            Cond::S => f.sf,
            Cond::Ns => !f.sf,
        }
    }
}

/// Operations. Two-operand forms follow AT&T `op src, dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Op {
    Nop,
    Hlt,
    Mov,
    Lea,
    Add,
    Sub,
    And,
    Or,
    Xor,
    Imul,
    Shl,
    Shr,
    Sar,
    Inc,
    Dec,
    Neg,
    Not,
    Cmp,
    Test,
    Push,
    Pop,
    Jmp,
    Jcc,
    Call,
    Ret,
    Leave,
    /// Writes `src` to the machine's output channel (our teaching I/O port).
    Out,
    /// Signed division `dst = dst / src` (simplified two-operand form;
    /// real IA-32 uses edx:eax, which the course elides).
    Idiv,
    /// Signed remainder `dst = dst % src` (companion to [`Op::Idiv`]).
    Imod,
}

impl Op {
    /// Opcode byte for encoding.
    pub fn opcode(&self) -> u8 {
        match self {
            Op::Nop => 0x00,
            Op::Hlt => 0x01,
            Op::Mov => 0x10,
            Op::Lea => 0x11,
            Op::Add => 0x20,
            Op::Sub => 0x21,
            Op::And => 0x22,
            Op::Or => 0x23,
            Op::Xor => 0x24,
            Op::Imul => 0x25,
            Op::Shl => 0x26,
            Op::Shr => 0x27,
            Op::Sar => 0x28,
            Op::Inc => 0x29,
            Op::Dec => 0x2A,
            Op::Neg => 0x2B,
            Op::Not => 0x2C,
            Op::Cmp => 0x30,
            Op::Test => 0x31,
            Op::Push => 0x40,
            Op::Pop => 0x41,
            Op::Jmp => 0x50,
            Op::Jcc => 0x51,
            Op::Call => 0x60,
            Op::Ret => 0x61,
            Op::Leave => 0x62,
            Op::Out => 0x70,
            Op::Idiv => 0x26 + 0x10, // 0x36
            Op::Imod => 0x37,
        }
    }

    /// Decodes an opcode byte.
    pub fn from_opcode(b: u8) -> Option<Op> {
        Some(match b {
            0x00 => Op::Nop,
            0x01 => Op::Hlt,
            0x10 => Op::Mov,
            0x11 => Op::Lea,
            0x20 => Op::Add,
            0x21 => Op::Sub,
            0x22 => Op::And,
            0x23 => Op::Or,
            0x24 => Op::Xor,
            0x25 => Op::Imul,
            0x26 => Op::Shl,
            0x27 => Op::Shr,
            0x28 => Op::Sar,
            0x29 => Op::Inc,
            0x2A => Op::Dec,
            0x2B => Op::Neg,
            0x2C => Op::Not,
            0x30 => Op::Cmp,
            0x31 => Op::Test,
            0x40 => Op::Push,
            0x41 => Op::Pop,
            0x50 => Op::Jmp,
            0x51 => Op::Jcc,
            0x60 => Op::Call,
            0x61 => Op::Ret,
            0x62 => Op::Leave,
            0x70 => Op::Out,
            0x36 => Op::Idiv,
            0x37 => Op::Imod,
            _ => return None,
        })
    }

    /// AT&T mnemonic (with the `l` size suffix where GAS uses one).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Nop => "nop",
            Op::Hlt => "hlt",
            Op::Mov => "movl",
            Op::Lea => "leal",
            Op::Add => "addl",
            Op::Sub => "subl",
            Op::And => "andl",
            Op::Or => "orl",
            Op::Xor => "xorl",
            Op::Imul => "imull",
            Op::Shl => "shll",
            Op::Shr => "shrl",
            Op::Sar => "sarl",
            Op::Inc => "incl",
            Op::Dec => "decl",
            Op::Neg => "negl",
            Op::Not => "notl",
            Op::Cmp => "cmpl",
            Op::Test => "testl",
            Op::Push => "pushl",
            Op::Pop => "popl",
            Op::Jmp => "jmp",
            Op::Jcc => "j?", // rendered with its condition suffix
            Op::Call => "call",
            Op::Ret => "ret",
            Op::Leave => "leave",
            Op::Out => "outl",
            Op::Idiv => "idivl",
            Op::Imod => "imodl",
        }
    }
}

/// A complete instruction: operation, optional condition (Jcc), operands.
///
/// Operand order is AT&T: `src` first, `dst` second. Zero-, one-, and
/// two-operand forms use `src`/`dst` as documented per operation in
/// [`crate::emu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// The operation.
    pub op: Op,
    /// Condition for [`Op::Jcc`]; `None` otherwise.
    pub cond: Option<Cond>,
    /// Source operand (first in AT&T order), if present.
    pub src: Option<Operand>,
    /// Destination operand (second in AT&T order), if present.
    pub dst: Option<Operand>,
}

impl Instr {
    /// The longest encoding: an opcode and two memory operands of 8 bytes
    /// each.
    pub const MAX_LEN: usize = 17;

    /// Zero-operand instruction.
    pub fn zero(op: Op) -> Instr {
        Instr {
            op,
            cond: None,
            src: None,
            dst: None,
        }
    }

    /// One-operand instruction (the operand is `dst`).
    pub fn one(op: Op, dst: Operand) -> Instr {
        Instr {
            op,
            cond: None,
            src: None,
            dst: Some(dst),
        }
    }

    /// Two-operand instruction in AT&T order.
    pub fn two(op: Op, src: Operand, dst: Operand) -> Instr {
        Instr {
            op,
            cond: None,
            src: Some(src),
            dst: Some(dst),
        }
    }

    /// Conditional jump to an absolute target.
    pub fn jcc(cond: Cond, target: i32) -> Instr {
        Instr {
            op: Op::Jcc,
            cond: Some(cond),
            src: None,
            dst: Some(Operand::Imm(target)),
        }
    }

    /// Encodes to bytes, appending to `out`. Returns the encoded length.
    pub fn encode(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.push(self.op.opcode());
        if self.op == Op::Jcc {
            out.push(self.cond.expect("Jcc carries a condition") as u8);
        }
        for operand in [self.src, self.dst].into_iter().flatten() {
            match operand {
                Operand::Reg(r) => {
                    out.push(0x01);
                    out.push(r.index());
                }
                Operand::Imm(i) => {
                    out.push(0x02);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                Operand::Mem(m) => {
                    out.push(0x03);
                    out.extend_from_slice(&m.disp.to_le_bytes());
                    out.push(m.base.map_or(0xFF, |r| r.index()));
                    out.push(m.index.map_or(0xFF, |r| r.index()));
                    out.push(m.scale);
                }
            }
        }
        out.len() - start
    }

    /// How many operands each op encodes (src+dst count).
    fn operand_count(op: Op) -> usize {
        match op {
            Op::Nop | Op::Hlt | Op::Ret | Op::Leave => 0,
            Op::Push
            | Op::Pop
            | Op::Inc
            | Op::Dec
            | Op::Neg
            | Op::Not
            | Op::Jmp
            | Op::Jcc
            | Op::Call
            | Op::Out => 1,
            _ => 2,
        }
    }

    /// Decodes one instruction from `bytes[offset..]`.
    /// Returns the instruction and the number of bytes consumed.
    pub fn decode(bytes: &[u8], offset: usize) -> Result<(Instr, usize), DecodeError> {
        let mut pos = offset;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], DecodeError> {
            if *pos + n > bytes.len() {
                return Err(DecodeError::Truncated(*pos));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };

        let opb = take(&mut pos, 1)?[0];
        let op = Op::from_opcode(opb).ok_or(DecodeError::BadOpcode(opb, offset))?;
        let cond = if op == Op::Jcc {
            let cb = take(&mut pos, 1)?[0];
            Some(Cond::from_index(cb).ok_or(DecodeError::BadCond(cb, offset))?)
        } else {
            None
        };

        let count = Instr::operand_count(op);
        let mut operands = [None; 2];
        for slot in &mut operands[..count] {
            let kind = take(&mut pos, 1)?[0];
            let operand = match kind {
                0x01 => {
                    let r = take(&mut pos, 1)?[0];
                    Operand::Reg(Reg::from_index(r).ok_or(DecodeError::BadReg(r, offset))?)
                }
                0x02 => {
                    let b = take(&mut pos, 4)?;
                    Operand::Imm(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                }
                0x03 => {
                    let b = take(&mut pos, 4)?;
                    let disp = i32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                    let base_b = take(&mut pos, 1)?[0];
                    let index_b = take(&mut pos, 1)?[0];
                    let scale = take(&mut pos, 1)?[0];
                    if !matches!(scale, 1 | 2 | 4 | 8) {
                        return Err(DecodeError::BadScale(scale, offset));
                    }
                    let decode_opt = |b: u8| -> Result<Option<Reg>, DecodeError> {
                        if b == 0xFF {
                            Ok(None)
                        } else {
                            Reg::from_index(b)
                                .map(Some)
                                .ok_or(DecodeError::BadReg(b, offset))
                        }
                    };
                    Operand::Mem(Mem {
                        disp,
                        base: decode_opt(base_b)?,
                        index: decode_opt(index_b)?,
                        scale,
                    })
                }
                k => return Err(DecodeError::BadOperandKind(k, offset)),
            };
            *slot = Some(operand);
        }

        // A one-operand form's operand is its `dst`.
        let [first, second] = operands;
        let (src, dst) = if count == 2 {
            (first, second)
        } else {
            (None, first)
        };
        Ok((Instr { op, cond, src, dst }, pos - offset))
    }

    /// Renders the instruction in AT&T syntax (as the disassembler prints).
    pub fn att(&self) -> String {
        let mnem = match (self.op, self.cond) {
            (Op::Jcc, Some(c)) => format!("j{}", c.suffix()),
            _ => self.op.mnemonic().to_string(),
        };
        match (self.src, self.dst) {
            (Some(s), Some(d)) => format!("{mnem} {}, {}", s.att(), d.att()),
            (None, Some(d)) => format!("{mnem} {}", d.att()),
            _ => mnem,
        }
    }
}

/// Errors from decoding machine bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran off the end of the byte buffer at the given offset.
    Truncated(usize),
    /// Unknown opcode byte at an instruction offset.
    BadOpcode(u8, usize),
    /// Unknown condition byte.
    BadCond(u8, usize),
    /// Register index out of range.
    BadReg(u8, usize),
    /// Scale not in {1,2,4,8}.
    BadScale(u8, usize),
    /// Unknown operand kind byte.
    BadOperandKind(u8, usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated(o) => write!(f, "truncated instruction at offset {o}"),
            DecodeError::BadOpcode(b, o) => write!(f, "bad opcode {b:#04x} at offset {o}"),
            DecodeError::BadCond(b, o) => write!(f, "bad condition {b:#04x} at offset {o}"),
            DecodeError::BadReg(b, o) => write!(f, "bad register {b:#04x} at offset {o}"),
            DecodeError::BadScale(b, o) => write!(f, "bad scale {b} at offset {o}"),
            DecodeError::BadOperandKind(b, o) => {
                write!(f, "bad operand kind {b:#04x} at offset {o}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reg_roundtrip() {
        for r in Reg::all() {
            assert_eq!(Reg::from_index(r.index()), Some(r));
            assert_eq!(Reg::parse(&r.att_name()[1..]), Some(r));
        }
        assert_eq!(Reg::from_index(8), None);
        assert_eq!(Reg::parse("rax"), None);
    }

    #[test]
    fn mem_att_forms() {
        assert_eq!(Mem::base_disp(Reg::Ebp, 8).att(), "8(%ebp)");
        assert_eq!(Mem::base_disp(Reg::Eax, 0).att(), "(%eax)");
        assert_eq!(Mem::absolute(0x100).att(), "256");
        let m = Mem {
            disp: -4,
            base: Some(Reg::Ebp),
            index: Some(Reg::Ecx),
            scale: 4,
        };
        assert_eq!(m.att(), "-4(%ebp,%ecx,4)");
    }

    #[test]
    fn cond_formulas() {
        use bits::Flags;
        let eq = Flags {
            zf: true,
            sf: false,
            cf: false,
            of: false,
        };
        assert!(Cond::E.eval(eq) && Cond::Le.eval(eq) && Cond::Ge.eval(eq));
        assert!(!Cond::L.eval(eq) && !Cond::G.eval(eq) && !Cond::Ne.eval(eq));
        // signed less: SF != OF
        let lt = Flags {
            zf: false,
            sf: true,
            cf: true,
            of: false,
        };
        assert!(Cond::L.eval(lt) && Cond::B.eval(lt));
        // signed less via overflow: 3 - (-128)ish cases where SF=0, OF=1
        let lt_of = Flags {
            zf: false,
            sf: false,
            cf: false,
            of: true,
        };
        assert!(Cond::L.eval(lt_of) && !Cond::B.eval(lt_of));
    }

    #[test]
    fn encode_decode_examples() {
        let cases = vec![
            Instr::zero(Op::Nop),
            Instr::zero(Op::Hlt),
            Instr::zero(Op::Ret),
            Instr::zero(Op::Leave),
            Instr::two(Op::Mov, Operand::Imm(5), Operand::Reg(Reg::Eax)),
            Instr::two(
                Op::Mov,
                Operand::Mem(Mem::base_disp(Reg::Ebp, 8)),
                Operand::Reg(Reg::Eax),
            ),
            Instr::two(
                Op::Lea,
                Operand::Mem(Mem {
                    disp: 0,
                    base: Some(Reg::Eax),
                    index: Some(Reg::Ecx),
                    scale: 4,
                }),
                Operand::Reg(Reg::Edx),
            ),
            Instr::one(Op::Push, Operand::Reg(Reg::Ebp)),
            Instr::one(Op::Jmp, Operand::Imm(0x1040)),
            Instr::jcc(Cond::Le, 0x1010),
            Instr::one(Op::Call, Operand::Imm(0x1200)),
            Instr::one(Op::Out, Operand::Reg(Reg::Eax)),
        ];
        let mut bytes = Vec::new();
        let mut lens = Vec::new();
        for i in &cases {
            lens.push(i.encode(&mut bytes));
        }
        let mut pos = 0;
        for (i, len) in cases.iter().zip(lens) {
            let (decoded, consumed) = Instr::decode(&bytes, pos).unwrap();
            assert_eq!(&decoded, i);
            assert_eq!(consumed, len);
            pos += consumed;
        }
        assert_eq!(pos, bytes.len());
        let widest = Instr::two(
            Op::Mov,
            Operand::Mem(Mem::absolute(0)),
            Operand::Mem(Mem::absolute(4)),
        );
        assert_eq!(widest.encode(&mut Vec::new()), Instr::MAX_LEN);
    }

    #[test]
    fn decode_errors() {
        assert_eq!(
            Instr::decode(&[], 0).unwrap_err(),
            DecodeError::Truncated(0)
        );
        assert_eq!(
            Instr::decode(&[0xEE], 0).unwrap_err(),
            DecodeError::BadOpcode(0xEE, 0)
        );
        // mov with truncated operand
        let mut b = vec![Op::Mov.opcode(), 0x02, 1, 2];
        assert!(matches!(
            Instr::decode(&b, 0).unwrap_err(),
            DecodeError::Truncated(_)
        ));
        // bad operand kind
        b = vec![Op::Push.opcode(), 0x09];
        assert_eq!(
            Instr::decode(&b, 0).unwrap_err(),
            DecodeError::BadOperandKind(0x09, 0)
        );
        // bad scale
        let mut b = vec![Op::Push.opcode(), 0x03];
        b.extend_from_slice(&0i32.to_le_bytes());
        b.extend_from_slice(&[0xFF, 0xFF, 3]);
        assert_eq!(
            Instr::decode(&b, 0).unwrap_err(),
            DecodeError::BadScale(3, 0)
        );
    }

    #[test]
    fn att_rendering() {
        assert_eq!(
            Instr::two(Op::Mov, Operand::Imm(5), Operand::Reg(Reg::Eax)).att(),
            "movl $5, %eax"
        );
        assert_eq!(Instr::jcc(Cond::Ne, 64).att(), "jne $64");
        assert_eq!(Instr::zero(Op::Ret).att(), "ret");
    }

    fn arb_operand() -> impl Strategy<Value = Operand> {
        prop_oneof![
            (0u8..8).prop_map(|i| Operand::Reg(Reg::from_index(i).unwrap())),
            any::<i32>().prop_map(Operand::Imm),
            (
                any::<i32>(),
                proptest::option::of(0u8..8),
                proptest::option::of(0u8..8),
                prop_oneof![Just(1u8), Just(2), Just(4), Just(8)]
            )
                .prop_map(|(disp, b, i, scale)| {
                    Operand::Mem(Mem {
                        disp,
                        base: b.map(|x| Reg::from_index(x).unwrap()),
                        index: i.map(|x| Reg::from_index(x).unwrap()),
                        scale,
                    })
                }),
        ]
    }

    proptest! {
        #[test]
        fn prop_two_operand_roundtrip(s in arb_operand(), d in arb_operand()) {
            let i = Instr::two(Op::Add, s, d);
            let mut bytes = Vec::new();
            let len = i.encode(&mut bytes);
            let (decoded, consumed) = Instr::decode(&bytes, 0).unwrap();
            prop_assert_eq!(decoded, i);
            prop_assert_eq!(consumed, len);
            prop_assert!(len <= Instr::MAX_LEN);
        }

        #[test]
        fn prop_whole_program_stream_roundtrip(
            seed_ops in proptest::collection::vec((0usize..6, any::<i32>(), 0u8..8, 0u8..8), 1..40)
        ) {
            // A random instruction stream: encode back-to-back, then walk
            // the byte stream decoding — every instruction and boundary
            // must reconstruct (the disassembler's core invariant).
            let program: Vec<Instr> = seed_ops
                .iter()
                .map(|&(form, imm, r1, r2)| {
                    let reg1 = Operand::Reg(Reg::from_index(r1).unwrap());
                    let reg2 = Operand::Reg(Reg::from_index(r2).unwrap());
                    match form {
                        0 => Instr::two(Op::Mov, Operand::Imm(imm), reg1),
                        1 => Instr::two(Op::Add, reg2, reg1),
                        2 => Instr::two(
                            Op::Mov,
                            Operand::Mem(Mem::base_disp(Reg::from_index(r2).unwrap(), imm)),
                            reg1,
                        ),
                        3 => Instr::one(Op::Push, reg1),
                        4 => Instr::jcc(Cond::all()[(r1 as usize) % 12], imm),
                        _ => Instr::zero(Op::Nop),
                    }
                })
                .collect();
            let mut bytes = Vec::new();
            for i in &program {
                i.encode(&mut bytes);
            }
            let mut pos = 0;
            let mut decoded = Vec::new();
            while pos < bytes.len() {
                let (i, n) = Instr::decode(&bytes, pos).expect("stream decodes");
                decoded.push(i);
                pos += n;
            }
            prop_assert_eq!(decoded, program);
            prop_assert_eq!(pos, bytes.len());
        }

        #[test]
        fn prop_jcc_roundtrip(ci in 0usize..12, target in any::<i32>()) {
            let i = Instr::jcc(Cond::all()[ci], target);
            let mut bytes = Vec::new();
            i.encode(&mut bytes);
            let (decoded, _) = Instr::decode(&bytes, 0).unwrap();
            prop_assert_eq!(decoded, i);
        }
    }
}
