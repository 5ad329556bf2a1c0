//! Seeded request streams. Every stream is a pure function of the run
//! seed: the server only ever sees the generated requests.
//!
//! Proportions are dealt from shuffled decks rather than drawn
//! independently, so every block of a stream has exactly the stated
//! mix and two seeds differ only in order and in the keys themselves.

use net::wire::RequestFrame;
use serve::pool::{JobClass, JobMeta};
use serve::server::Request;
use std::time::{Duration, Instant};

/// SplitMix64, the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0); the modulo bias is below 2^-40 for
    /// the small `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// What a generated request is, which fixes its class, its cost and
/// the body the server must answer with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A correct sum-array submission: full marks.
    GradeOk,
    /// Returns 0 without reading the array: passes only the case whose
    /// sum is 0.
    GradeWrong,
    /// Never halts: every rubric case burns the 200k-step fuel.
    GradeLoop,
    Homework,
    Life,
    /// Life 64x64 for 64 steps, sent as bulk work.
    LifeBulk,
    MemTrace,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::GradeOk => "grade_ok",
            Kind::GradeWrong => "grade_wrong",
            Kind::GradeLoop => "grade_loop",
            Kind::Homework => "homework",
            Kind::Life => "life",
            Kind::LifeBulk => "life_bulk",
            Kind::MemTrace => "memtrace",
        }
    }

    /// Class, priority and wire deadline budget, matching what
    /// `ClassAwareAdmission` assigns to the same op (Life sent as bulk
    /// work is the one request the client classes itself).
    fn scheduling(self) -> (JobClass, u8, Option<u64>) {
        match self {
            Kind::GradeOk | Kind::GradeWrong | Kind::GradeLoop => {
                (JobClass::Interactive, 160, Some(500))
            }
            Kind::Homework => (JobClass::Batch, 128, Some(5000)),
            Kind::Life => (JobClass::Batch, 112, Some(5000)),
            Kind::MemTrace => (JobClass::Batch, 120, Some(5000)),
            Kind::LifeBulk => (JobClass::Bulk, 64, None),
        }
    }
}

/// One generated request with the scheduling metadata it is sent with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spec {
    pub kind: Kind,
    pub class: JobClass,
    pub priority: u8,
    pub budget_ms: Option<u64>,
    pub req: Request,
}

impl Spec {
    pub fn new(kind: Kind, req: Request) -> Spec {
        let (class, priority, budget_ms) = kind.scheduling();
        Spec {
            kind,
            class,
            priority,
            budget_ms,
            req,
        }
    }

    pub fn frame(&self, id: u64) -> RequestFrame {
        RequestFrame {
            id,
            class: self.class,
            priority: self.priority,
            deadline_budget_ms: self.budget_ms,
            req: self.req.clone(),
        }
    }

    /// The metadata the TCP front end would derive from [`Spec::frame`],
    /// for submitting the same request in process.
    pub fn meta(&self) -> JobMeta {
        let meta = JobMeta::for_class(self.class).with_priority(self.priority);
        match self.budget_ms {
            Some(ms) => meta.with_deadline(Instant::now() + Duration::from_millis(ms)),
            None => meta,
        }
    }

    /// Checks a successful response body against what this request
    /// must produce: the grade its submission kind earns, or the
    /// parameters Life and MemTrace echo.
    pub fn check_body(&self, body: &str) -> Result<(), String> {
        let ok = match (&self.req, self.kind) {
            (Request::Grade { .. }, Kind::GradeOk) => body.starts_with("grade: 20/20 (100%)\n"),
            (Request::Grade { .. }, Kind::GradeWrong) => {
                body.starts_with("grade: 5/20 (25%)\n") && body.matches("WRONG").count() == 3
            }
            (Request::Grade { .. }, Kind::GradeLoop) => {
                body.starts_with("grade: 0/20 (0%)\n") && body.matches("TIMEOUT").count() == 4
            }
            (Request::Homework { .. }, _) => {
                body.starts_with('[') && body.contains("\n--- solution ---\n")
            }
            (Request::Life { w, h, steps, seed }, _) => body.starts_with(&format!(
                "life {w}x{h} seed {seed}: {steps} steps, population "
            )),
            (
                Request::MemTrace {
                    pattern,
                    accesses,
                    seed,
                },
                _,
            ) => body.starts_with(&format!(
                "memtrace {pattern} seed {seed}: {accesses} accesses, "
            )),
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} body does not match its request {:?}: {body:?}",
                self.kind.label(),
                self.req
            ))
        }
    }
}

/// A sum-array submission of the given kind. `tag` and `serial` are
/// loaded into registers the rubric never reads: they make the key
/// distinct without changing the grade. `tag` varies with the seed and
/// `serial` with the position in the stream.
pub fn grade(kind: Kind, tag: u32, serial: u32) -> Spec {
    let body = match kind {
        Kind::GradeOk => {
            "    movl $0, %eax\n    movl $0, %edi\n    cmpl $0, %ecx\n    je done\n\
             loop:\n    addl (%esi,%edi,4), %eax\n    addl $1, %edi\n    cmpl %ecx, %edi\n\
             \x20   jne loop\ndone:\n    hlt\n"
        }
        Kind::GradeWrong => "    movl $0, %eax\n    hlt\n",
        Kind::GradeLoop => "spin:\n    jmp spin\n",
        other => panic!("{other:?} is not a grade kind"),
    };
    Spec::new(
        kind,
        Request::Grade {
            submission: format!("main:\n    movl ${tag}, %ebx\n    movl ${serial}, %edx\n{body}"),
        },
    )
}

const HOMEWORK_GENERATORS: [&str; 2] = ["binary_arithmetic", "vm_trace"];

pub fn homework(which: usize, seed: u64) -> Spec {
    Spec::new(
        Kind::Homework,
        Request::Homework {
            generator: HOMEWORK_GENERATORS[which % HOMEWORK_GENERATORS.len()].to_string(),
            seed,
        },
    )
}

pub fn life(kind: Kind, side: u32, steps: u32, seed: u64) -> Spec {
    Spec::new(
        kind,
        Request::Life {
            w: side,
            h: side,
            steps,
            seed,
        },
    )
}

pub fn memtrace(pattern: usize, accesses: u32, seed: u64) -> Spec {
    Spec::new(
        Kind::MemTrace,
        Request::MemTrace {
            pattern: serve::server::MEMTRACE_PATTERNS[pattern % 5].to_string(),
            accesses,
            seed,
        },
    )
}

/// Keys in the hit workloads' hot set.
pub const HOT_SET: usize = 64;

/// The 64 keys every hit-workload request draws from: 16 grades (12
/// correct, 4 wrong), 16 homework problems, 16 Life 16x16 boards and 16
/// MemTrace runs. No key is a non-halting grade: computing one during
/// set-up takes ~50 ms of one thread and would make `setup_s` follow
/// the host's single-thread speed rather than the set-up path.
pub fn hot_set(seed: u64) -> Vec<Spec> {
    let mut rng = Rng::new(seed ^ 0x4854);
    let tag = rng.next_u64() as u32 & 0x7FFF_FFFF;
    let mut set = Vec::with_capacity(HOT_SET);
    for i in 0..16u32 {
        let kind = if i < 4 {
            Kind::GradeWrong
        } else {
            Kind::GradeOk
        };
        set.push(grade(kind, tag, i));
    }
    for i in 0..16 {
        set.push(homework(i, rng.next_u64()));
    }
    for _ in 0..16 {
        set.push(life(Kind::Life, 16, 8, rng.next_u64()));
    }
    for i in 0..16 {
        set.push(memtrace(i, 1024, rng.next_u64()));
    }
    set
}

/// Hot-set indices, dealt as successive shuffled permutations so every
/// block of 64 requests covers each key once.
pub struct HitStream {
    rng: Rng,
    deck: Vec<usize>,
}

impl HitStream {
    pub fn new(seed: u64) -> HitStream {
        HitStream {
            rng: Rng::new(seed ^ 0x4849_5453),
            deck: Vec::new(),
        }
    }

    pub fn next_index(&mut self) -> usize {
        if self.deck.is_empty() {
            self.deck = (0..HOT_SET).collect();
            self.rng.shuffle(&mut self.deck);
        }
        self.deck.pop().expect("refilled above")
    }
}

/// The compute mix, per block of 12 requests: 6 interactive grades
/// (dealt 12 correct : 3 wrong : 1 non-halting per 16), 5 batch
/// requests (homework, Life 32x32 at 8, 32 and 96 steps, MemTrace
/// 2048) and 1 bulk Life 64x64x64. Every key is fresh: streams built
/// with different `first_serial` ranges never share a grade key.
pub struct MixStream {
    rng: Rng,
    tag: u32,
    ops: Vec<u8>,
    grades: Vec<Kind>,
    serial: u32,
}

impl MixStream {
    pub fn new(seed: u64, first_serial: u32) -> MixStream {
        let mut rng = Rng::new(seed ^ 0x004D_4958);
        MixStream {
            tag: rng.next_u64() as u32 & 0x7FFF_FFFF,
            rng,
            ops: Vec::new(),
            grades: Vec::new(),
            serial: first_serial,
        }
    }

    pub fn next_spec(&mut self) -> Spec {
        if self.ops.is_empty() {
            // 0 = grade, 1..=5 = the five batch ops, 6 = bulk.
            self.ops = vec![0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6];
            self.rng.shuffle(&mut self.ops);
        }
        let op = self.ops.pop().expect("refilled above");
        self.serial += 1;
        match op {
            0 => {
                if self.grades.is_empty() {
                    self.grades = vec![Kind::GradeOk; 12];
                    self.grades.extend([Kind::GradeWrong; 3]);
                    self.grades.push(Kind::GradeLoop);
                    self.rng.shuffle(&mut self.grades);
                }
                let kind = self.grades.pop().expect("refilled above");
                grade(kind, self.tag, self.serial)
            }
            6 => life(Kind::LifeBulk, 64, 64, self.rng.next_u64()),
            _ => self.batch(op),
        }
    }

    fn batch(&mut self, op: u8) -> Spec {
        let seed = self.rng.next_u64();
        match op {
            1 => homework(self.serial as usize, seed),
            2 => life(Kind::Life, 32, 8, seed),
            3 => life(Kind::Life, 32, 32, seed),
            4 => life(Kind::Life, 32, 96, seed),
            _ => memtrace(self.serial as usize, 2048, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(seed: u64, n: usize) -> Vec<Spec> {
        let mut s = MixStream::new(seed, 0);
        (0..n).map(|_| s.next_spec()).collect()
    }

    fn hits(seed: u64, n: usize) -> Vec<usize> {
        let mut s = HitStream::new(seed);
        (0..n).map(|_| s.next_index()).collect()
    }

    #[test]
    fn same_seed_gives_an_identical_stream() {
        assert_eq!(hot_set(7), hot_set(7));
        assert_eq!(hits(7, 500), hits(7, 500));
        assert_eq!(mix(7, 500), mix(7, 500));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(hot_set(7), hot_set(8));
        assert_ne!(hits(7, 500), hits(8, 500));
        assert_ne!(mix(7, 500), mix(8, 500));
    }

    #[test]
    fn hot_set_keys_are_distinct_and_every_block_covers_them_once() {
        let set = hot_set(3);
        let keys: std::collections::HashSet<_> = set.iter().map(|s| &s.req).collect();
        assert_eq!(keys.len(), HOT_SET);
        let stream = hits(3, 4 * HOT_SET);
        for block in stream.chunks(HOT_SET) {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..HOT_SET).collect::<Vec<_>>());
        }
    }

    #[test]
    fn compute_mix_has_the_stated_proportions_and_fresh_keys() {
        let stream = mix(11, 16 * 12);
        let count = |k: Kind| stream.iter().filter(|s| s.kind == k).count();
        assert_eq!(count(Kind::GradeLoop), 6);
        assert_eq!(count(Kind::GradeWrong), 18);
        assert_eq!(count(Kind::GradeOk), 72);
        assert_eq!(count(Kind::LifeBulk), 16);
        assert_eq!(
            count(Kind::Homework) + count(Kind::Life) + count(Kind::MemTrace),
            80
        );
        let keys: std::collections::HashSet<_> = stream.iter().map(|s| &s.req).collect();
        assert_eq!(keys.len(), stream.len(), "every compute_mix key is fresh");
    }

    #[test]
    fn grade_nonces_do_not_change_the_expected_score() {
        for kind in [Kind::GradeOk, Kind::GradeWrong, Kind::GradeLoop] {
            for nonce in [0, 17, 0x7FFF_FFFF] {
                let spec = grade(kind, nonce, nonce ^ 5);
                let Request::Grade { submission } = &spec.req else {
                    unreachable!()
                };
                let report = cs31::autograde::grade(
                    submission,
                    &cs31::autograde::sum_array_rubric(),
                    200_000,
                );
                spec.check_body(&report.render())
                    .unwrap_or_else(|e| panic!("nonce {nonce}: {e}"));
            }
        }
    }
}
