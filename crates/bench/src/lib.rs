//! # bench — the experiment harness
//!
//! One runner per experiment in DESIGN.md §4 (T1, F1, E1–E10). Each
//! returns the rendered rows/series the paper reports (or implies), so
//! the `reproduce` binary prints them and the Criterion benches measure
//! the underlying kernels. EXPERIMENTS.md records paper-vs-measured for
//! every id.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod ctl_exp;
pub mod obs;
pub mod priority;
pub mod reactor_exp;
pub mod router_exp;
pub mod stealing;
pub mod wire;

use parallel::machine::MachineConfig;

/// The 16-core classroom machine model used across E1/E6 (the paper's
/// lab machines measured "near linear speedup up to 16 threads").
pub fn classroom_machine() -> MachineConfig {
    MachineConfig {
        cores: 16,
        barrier_cost: 50,
        lock_overhead: 10,
        contention: 0.0,
    }
}

/// T1 — Table I: TCPP topic coverage with module cross-references.
pub fn t1_table() -> String {
    survey::tcpp::render_table1()
}

/// F1 — Figure 1: the regenerated self-assessment survey.
pub fn f1_figure(seed: u64) -> String {
    let fig = survey::figure1::generate(survey::cohort::CohortConfig::default(), seed);
    let violations = fig.check_paper_claims();
    let mut out = fig.render();
    out.push_str("\npaper-claim check: ");
    if violations.is_empty() {
        out.push_str("all §IV qualitative claims hold\n");
    } else {
        for v in violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
    }
    out
}

/// E1 — Lab 10 speedup: modeled 16-core speedup plus a real-thread
/// correctness check (wall-clock speedup is reported but is ~1x on a
/// single-CPU host; see DESIGN.md §2).
pub fn e1_life_speedup() -> String {
    use life::{grid::GLIDER, Boundary, Grid, Partition};
    let mut out = String::from(
        "E1: parallel Game of Life speedup (512x512 grid, 100 rounds, 16-core model)\n\n",
    );
    out.push_str(&format!(
        "{:>8} {:>10} {:>12} {:>12}\n",
        "threads", "speedup", "efficiency", "class"
    ));
    for (t, s) in
        life::machsim::speedup_table(512, 512, 100, &[1, 2, 4, 8, 16, 32], classroom_machine())
    {
        let class = format!("{:?}", parallel::laws::classify(s, t));
        out.push_str(&format!(
            "{t:>8} {s:>9.2}x {:>11.2} {class:>12}\n",
            s / t as f64
        ));
    }
    // Real threads: correctness on this host (any core count).
    let mut g = Grid::new(64, 64, Boundary::Toroidal).expect("grid");
    g.stamp(3, 3, GLIDER);
    g.stamp(30, 40, GLIDER);
    let (serial, _) = life::serial::run(g.clone(), 20);
    let par = life::parallel::run(g, 20, 8, Partition::Rows);
    out.push_str(&format!(
        "\nreal 8-thread run matches serial: {} (host wall clock {:.3}s)\n",
        par.grid == serial,
        par.seconds
    ));
    out
}

/// E2 — pipelining IPC: multi-cycle vs 5-stage pipeline on a real
/// SWAT-16 trace and on synthetic ideal/dependent streams.
pub fn e2_pipeline() -> String {
    use circuits::cpu::{sum_1_to_n_program, Cpu};
    use circuits::pipeline::{
        compare, dependent_stream, independent_stream, pipelined, PipelineConfig,
    };
    let mut out = String::from("E2: pipelining improves instructions per cycle\n\n");
    out.push_str(&format!(
        "{:<28} {:>8} {:>12} {:>12} {:>9}\n",
        "stream", "instrs", "multi-cycle", "pipelined", "speedup"
    ));
    let mut row = |name: &str, stream: &[circuits::cpu::TraceEntry]| {
        let (base, pipe, speedup) = compare(stream);
        out.push_str(&format!(
            "{name:<28} {:>8} {:>8} cyc {:>8} cyc {speedup:>8.2}x\n",
            base.instructions, base.cycles, pipe.cycles
        ));
    };
    row("independent ALU ops", &independent_stream(1000));
    row("fully dependent chain", &dependent_stream(1000));
    let mut cpu = Cpu::new();
    cpu.load_program(&sum_1_to_n_program(100)).expect("fits");
    cpu.run(100_000).expect("halts");
    row("sum 1..=100 loop (real run)", &cpu.trace);
    let nofwd = pipelined(
        &dependent_stream(1000),
        PipelineConfig {
            forwarding: false,
            ..Default::default()
        },
    );
    out.push_str(&format!(
        "\nforwarding ablation (dependent chain): stalls {} with vs {} without\n",
        pipelined(&dependent_stream(1000), PipelineConfig::default()).stall_cycles,
        nofwd.stall_cycles
    ));
    out
}

/// E3 — the nested-loop stride exercise: row-major vs column-major.
pub fn e3_stride() -> String {
    use memsim::cache::{Cache, CacheConfig};
    use memsim::patterns::{matrix_sum_trace, LoopOrder};
    let mut out = String::from(
        "E3: loop order vs cache behavior (64x64 ints, 4 KiB direct-mapped, 64B blocks)\n\n",
    );
    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>12} {:>10}\n",
        "order", "accesses", "hit rate", "sim cycles", "AMAT"
    ));
    for (name, order) in [
        ("row-major", LoopOrder::RowMajor),
        ("column-major", LoopOrder::ColumnMajor),
    ] {
        let mut c = Cache::new(CacheConfig::direct_mapped(64, 64)).expect("geometry");
        c.run_trace(&matrix_sum_trace(0, 64, 64, 4, order));
        let s = c.stats();
        out.push_str(&format!(
            "{name:<14} {:>10} {:>9.1}% {:>12} {:>10.1}\n",
            s.accesses,
            s.hit_rate() * 100.0,
            c.total_cycles(),
            c.amat()
        ));
    }
    out.push_str("\n(the row-major loop wins by the block-size factor: 16 ints/block)\n");
    // The advanced follow-up: matrix-multiply loop orders.
    use memsim::patterns::{matmul_trace, MatMulOrder};
    out.push_str("\nmatrix multiply (64x64 doubles, same cache), by loop order:\n");
    out.push_str(&format!(
        "{:<8} {:>10} {:>12}\n",
        "order", "hit rate", "sim cycles"
    ));
    for (name, order) in [
        ("ijk", MatMulOrder::Ijk),
        ("kij", MatMulOrder::Kij),
        ("jki", MatMulOrder::Jki),
    ] {
        let mut c = Cache::new(CacheConfig::direct_mapped(64, 64)).expect("geometry");
        c.run_trace(&matmul_trace(64, 8, 0, 0x10000, 0x20000, order));
        out.push_str(&format!(
            "{name:<8} {:>9.1}% {:>12}\n",
            c.stats().hit_rate() * 100.0,
            c.total_cycles()
        ));
    }
    out.push_str("(kij wins: every inner-loop stream is unit-stride)\n");
    out
}

/// E4 — cache design space: associativity × replacement hit rates.
pub fn e4_cache_designs() -> String {
    use memsim::cache::{Cache, CacheConfig, ReplacementPolicy};
    use memsim::patterns;
    let mut out = String::from(
        "E4: cache designs on a conflict-heavy workload (4 KiB total, 64B blocks)\n\n",
    );
    // Workload: two 2 KiB arrays whose blocks alias in a direct-mapped
    // cache (bases 4 KiB apart = identical index bits), accessed
    // alternately A[i], B[i] in a repeated loop — the textbook conflict
    // pattern — plus a small recurring hot set that rewards recency.
    // 24+24 blocks + 4 hot = 52 blocks: fits the 64-block cache, so the
    // differences below are pure *conflict* misses, not capacity.
    let mut trace = Vec::new();
    for _ in 0..8 {
        for i in 0..24u64 {
            trace.push(memsim::trace::TraceEvent::load(i * 64)); // A
            trace.push(memsim::trace::TraceEvent::load(0x1000 + i * 64)); // B (aliases A in DM)
        }
        // Hot set revisited each iteration: recency-friendly.
        for h in 0..4u64 {
            trace.push(memsim::trace::TraceEvent::load(0x4000 + h * 64));
        }
    }
    trace.extend(patterns::random_trace(1 << 20, 16 << 10, 100, 99));
    out.push_str(&format!(
        "{:<22} {:>9} {:>9} {:>9}\n",
        "geometry", "LRU", "FIFO", "Random"
    ));
    for (name, sets, ways) in [
        ("direct-mapped", 64u64, 1u64),
        ("2-way", 32, 2),
        ("4-way", 16, 4),
        ("fully associative", 1, 64),
    ] {
        let mut row = format!("{name:<22}");
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let mut cfg = CacheConfig::set_associative(sets, ways, 64);
            cfg.replacement = policy;
            let mut c = Cache::new(cfg).expect("geometry");
            c.run_trace(&trace);
            row.push_str(&format!(" {:>8.1}%", c.stats().hit_rate() * 100.0));
        }
        out.push_str(&row);
        out.push('\n');
    }
    out.push_str(
        "\n(associativity rescues the A/B conflict misses that cripple the\n\
         direct-mapped design; the 4-way dip is the hot set colliding with\n\
         the loop in its few sets — a real artifact worth discussing)\n",
    );
    out
}

/// E5 — TLB effective access time: analytic sweep + measured runs.
pub fn e5_tlb_eat() -> String {
    use vmem::eat::{analytic_eat, eat_sweep, measure_eat, no_tlb_eat, EatParams};
    let p = EatParams::default();
    let mut out =
        String::from("E5: TLB hit ratio vs effective access time (1ns TLB, 100ns memory)\n\n");
    out.push_str(&format!("{:>10} {:>12}\n", "hit ratio", "EAT (ns)"));
    for (h, eat) in eat_sweep(p, &[0.0, 0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 1.0]) {
        out.push_str(&format!("{:>9.0}% {eat:>12.1}\n", h * 100.0));
    }
    out.push_str(&format!(
        "\nno-TLB baseline: {:.0} ns; 98%-TLB: {:.0} ns (≈2x better)\n",
        no_tlb_eat(p, 0.0),
        analytic_eat(p, 0.98, 0.0)
    ));
    out.push_str("\nmeasured (VM+TLB simulators, locality-controlled trace; steady\nstate: demand faults excluded so the TLB effect is visible):\n");
    out.push_str(&format!(
        "{:>9} {:>10} {:>12} {:>12}\n",
        "locality", "TLB hits", "measured", "predicted"
    ));
    let steady = EatParams { fault_ns: 0.0, ..p };
    for locality in [0.2, 0.6, 0.9, 0.98] {
        let m = measure_eat(steady, 8, locality, 20_000, 7);
        out.push_str(&format!(
            "{:>8.0}% {:>9.1}% {:>10.1}ns {:>10.1}ns\n",
            locality * 100.0,
            m.tlb_hit_ratio * 100.0,
            m.measured_ns,
            m.predicted_ns
        ));
    }
    out
}

/// E6 — Amdahl curves and the machine model's contention bend.
pub fn e6_amdahl() -> String {
    use parallel::laws::{amdahl, amdahl_limit};
    use parallel::machine::{life_like_workload, simulate};
    let procs = [1usize, 2, 4, 8, 16, 32, 64];
    let mut out = String::from("E6: Amdahl's law and synchronization contention\n\n");
    out.push_str(&format!("{:>6}", "p"));
    for f in [0.0, 0.05, 0.1, 0.25, 0.5] {
        out.push_str(&format!(" {:>8}", format!("f={f}")));
    }
    out.push('\n');
    for p in procs {
        out.push_str(&format!("{p:>6}"));
        for f in [0.0, 0.05, 0.1, 0.25, 0.5] {
            out.push_str(&format!(" {:>7.2}x", amdahl(f, p)));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "limits: f=0.05 → {:.0}x; f=0.5 → {:.0}x\n",
        amdahl_limit(0.05),
        amdahl_limit(0.5)
    ));
    out.push_str("\nmachine model, 16 threads, growing critical-section share:\n");
    out.push_str(&format!("{:>12} {:>10}\n", "crit/round", "speedup"));
    for crit in [0u64, 1_000, 5_000, 20_000, 80_000] {
        let wl = life_like_workload(16_000_000, 16, 10, crit);
        let s = simulate(classroom_machine(), &wl)
            .expect("well-formed")
            .speedup();
        out.push_str(&format!("{crit:>12} {s:>9.2}x\n"));
    }
    out.push_str("(the contention bend the course demonstrates with a shared counter)\n");
    out
}

/// E7 — producer/consumer throughput across buffer sizes and thread mixes.
pub fn e7_prodcons() -> String {
    use parallel::bounded::run_producer_consumer;
    let mut out = String::from("E7: bounded-buffer producer/consumer (20k items per run)\n\n");
    out.push_str(&format!(
        "{:>6} {:>6} {:>10} {:>14} {:>14}\n",
        "prod", "cons", "capacity", "items/sec", "exactly-once"
    ));
    for (p, c) in [(1usize, 1usize), (2, 2), (4, 4)] {
        for cap in [1usize, 4, 16, 64] {
            let items = 20_000 / p as u64;
            let r = run_producer_consumer(p, c, cap, items);
            out.push_str(&format!(
                "{p:>6} {c:>6} {cap:>10} {:>14.0} {:>14}\n",
                r.throughput, r.exactly_once
            ));
        }
    }
    out.push_str("\n(capacity-1 maximizes blocking; larger buffers amortize wakeups)\n");
    out
}

/// E8 — the shared-counter race: racy vs atomic vs mutex.
pub fn e8_counter() -> String {
    use parallel::counter::compare;
    let mut out = String::from("E8: shared counter, 4 threads x 100k increments\n\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>10} {:>12}\n",
        "version", "expected", "observed", "lost", "ns/increment"
    ));
    for r in compare(4, 100_000) {
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>10} {:>12.1}\n",
            format!("{:?}", r.kind),
            r.expected,
            r.observed,
            r.lost,
            r.seconds * 1e9 / r.expected as f64
        ));
    }
    out.push_str(&format!(
        "\ndeterministic forced-interleave demo: two increments -> counter = {}\n\
         (the racy version can only lose updates, never invent them)\n",
        parallel::counter::deterministic_lost_update()
    ));
    out
}

/// E9 — page replacement: LRU vs FIFO vs Clock fault rates as memory
/// shrinks, with a two-process context-switching trace.
pub fn e9_vm_replacement() -> String {
    use vmem::replace::PagePolicy;
    use vmem::sim::{VmConfig, VmSystem};
    use vmem::AccessKind;
    let mut out = String::from(
        "E9: page faults, two interleaved processes (HW VM2 shape), 12 pages each\n\n",
    );
    out.push_str(&format!(
        "{:>8} {:>8} {:>8} {:>8}\n",
        "frames", "LRU", "FIFO", "Clock"
    ));
    // Workload: each process has a hot page it re-touches between every
    // other access (recency that LRU exploits and FIFO wastes), plus a
    // rotating sweep; processes alternate in bursts (context switches).
    let run = |frames: usize, policy: PagePolicy| -> u64 {
        let mut vm = VmSystem::new(VmConfig {
            page_size: 256,
            num_frames: frames,
            pages_per_process: 16,
            policy,
            local_replacement: false,
        });
        let a = vm.spawn();
        let b = vm.spawn();
        for burst in 0..60u64 {
            let pid = if burst % 2 == 0 { a } else { b };
            for i in 0..8u64 {
                // The hot page: touched constantly.
                vm.access(pid, 0, AccessKind::Load).expect("valid");
                // The sweep: rotates through a window of cold pages.
                let page = 1 + (burst + i) % 6;
                let kind = if i % 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                vm.access(pid, page * 256 + (i * 13) % 256, kind)
                    .expect("valid");
            }
        }
        vm.stats().faults
    };
    for frames in [2usize, 4, 6, 8, 12] {
        out.push_str(&format!(
            "{frames:>8} {:>8} {:>8} {:>8}\n",
            run(frames, PagePolicy::Lru),
            run(frames, PagePolicy::Fifo),
            run(frames, PagePolicy::Clock)
        ));
    }
    out.push_str(
        "\n(more frames → fewer faults; LRU wins while memory is scarce because\n\
         it keeps each process's hot page resident; near the fitting point the\n\
         rotating sweep can briefly favor FIFO — the policy-anomaly discussion)\n",
    );
    out
}

/// E10 — equivalent assembly sequences differ in cost.
pub fn e10_asm_sequences() -> String {
    let mut out = String::from("E10: equivalent assembly sequences (emulator cost model)\n\n");
    let run = |name: &str, src: &str, out: &mut String| -> (u32, u64) {
        let prog = asm::assemble(src).expect("bench program assembles");
        let mut m = asm::Machine::new();
        m.load(&prog).expect("loads");
        m.run(10_000_000).expect("halts");
        out.push_str(&format!(
            "{name:<34} result={:<10} cycles={:>8}\n",
            m.reg(asm::Reg::Eax),
            m.cycles
        ));
        (m.reg(asm::Reg::Eax), m.cycles)
    };
    // x*9: imul vs shift+add.
    let (r1, c1) = run(
        "x*9 via imull",
        "movl $1234, %eax\nimull $9, %eax\nhlt\n",
        &mut out,
    );
    let (r2, c2) = run(
        "x*9 via leal/shll+add",
        "movl $1234, %eax\nmovl %eax, %ebx\nshll $3, %eax\naddl %ebx, %eax\nhlt\n",
        &mut out,
    );
    assert_eq!(r1, r2, "sequences must be equivalent");
    // Loop counter in memory vs register.
    let (r3, c3) = run(
        "loop counter in register",
        r#"
        movl $0, %eax
        movl $1000, %ecx
        t: addl $1, %eax
           subl $1, %ecx
           cmpl $0, %ecx
           jne t
        hlt
        "#,
        &mut out,
    );
    let (r4, c4) = run(
        "loop counter in memory",
        r#"
        movl $0, %eax
        movl $1000, 0x2000
        t: addl $1, %eax
           movl 0x2000, %ecx
           subl $1, %ecx
           movl %ecx, 0x2000
           cmpl $0, %ecx
           jne t
        hlt
        "#,
        &mut out,
    );
    assert_eq!(r3, r4);
    out.push_str(&format!(
        "\nshift+add beats imul by {:+} cycles; register loop beats memory loop {:.2}x\n",
        c1 as i64 - c2 as i64,
        c4 as f64 / c3 as f64
    ));
    out
}

/// E11 — the `serve` subsystem: concurrent clients against the
/// thread-pool job server, showing compute-once caching, explicit
/// backpressure, and a drain-everything shutdown.
pub fn e11_serve() -> String {
    use serve::{CourseServer, Request, ServerConfig};
    use std::thread;

    let mut out =
        String::from("E11: course job server (4 workers, 4 client threads, real workloads)\n\n");
    // The server can run reproduce experiments too; register one so the
    // Reproduce arm exercises a real registry entry. (e11 itself stays
    // out — a server running the experiment that drives the server
    // would recurse.)
    let server = CourseServer::with_experiments(
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
        vec![("e5".to_string(), e5_tlb_eat as serve::server::ExperimentFn)],
    );

    // Two identical rounds of 4 clients x 6 distinct homework variants:
    // round 1 computes all 24, round 2 must be answered purely from the
    // result cache.
    let round = |label: &str, out: &mut String| {
        let mut served = 0usize;
        let mut from_cache = 0usize;
        thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|client| {
                    let server = &server;
                    s.spawn(move || {
                        let mut cached = 0usize;
                        for seed in 0..6u64 {
                            let resp = server
                                .submit(Request::Homework {
                                    generator: "binary_arithmetic".into(),
                                    seed: client * 100 + seed,
                                })
                                .expect("queue sized for every client")
                                .wait();
                            assert!(resp.ok);
                            cached += resp.cached as usize;
                        }
                        cached
                    })
                })
                .collect();
            for h in handles {
                from_cache += h.join().expect("client thread");
                served += 6;
            }
        });
        out.push_str(&format!(
            "{label:<22} {served:>8} served {from_cache:>8} from cache\n"
        ));
    };
    round("round 1 (cold cache)", &mut out);
    round("round 2 (warm cache)", &mut out);

    // One of each remaining workload through the same server.
    let grade = server
        .submit(Request::Grade {
            submission: "movl $0, %eax\nhlt\n".into(),
        })
        .expect("accepted")
        .wait();
    let repro = server
        .submit(Request::Reproduce { id: "e5".into() })
        .expect("accepted")
        .wait();
    out.push_str(&format!(
        "\ngrade request graded an empty-sum submission: ok={} ({} bytes)\n",
        grade.ok,
        grade.body.len()
    ));
    out.push_str(&format!(
        "reproduce request re-ran E5 through the server: ok={} ({} bytes)\n",
        repro.ok,
        repro.body.len()
    ));

    server.shutdown();
    let st = server.stats();
    out.push_str(&format!(
        "\n{:>10} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
        "accepted", "completed", "rejected", "hits", "misses", "q high-water"
    ));
    out.push_str(&format!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
        st.accepted,
        st.completed,
        st.rejected,
        st.cache.hits,
        st.cache.misses,
        st.pool.queue_high_water
    ));
    out.push_str(
        "\n(shutdown drained every accepted request: completed == accepted;\n\
         round 2 recomputed nothing — the compute-once cache answered)\n",
    );
    out
}

/// E12 — the work-stealing pool vs a shared-FIFO baseline on a
/// heavy-tail burst stream (sleep-modeled service times; see `stealing`
/// module docs and DESIGN.md for why the mix is shaped this way).
pub fn e12_stealing() -> String {
    use serve::pool::ThreadPool;
    use std::time::Duration;
    use stealing::{compare, heavy_tail_params, ragged_par_map};

    let p = heavy_tail_params();
    let mut out = format!(
        "E12: scheduler topology under a heavy-tail overload stream\n\
         ({} workers; {} cycles of [{} short({:?}), {:?} lead, {} heavy({:?}),\n\
         {:?} soak] — sustained ~1.9x overload — then one {:?} heavy at\n\
         stream end; sleep-modeled service times)\n\n",
        p.workers,
        p.cycles,
        p.shorts_per_cycle,
        p.short,
        p.short_lead,
        p.heavies_per_cycle,
        p.heavy,
        p.heavy_soak,
        p.final_heavy
    );
    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>6}\n",
        "topology", "makespan", "p50 short", "p99 short", "max short", "local", "steals", "q-max"
    ));
    let (fifo, steal) = compare(p);
    for o in [&fifo, &steal] {
        out.push_str(&format!(
            "{:<14} {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>8} {:>8} {:>6}\n",
            o.topology.to_string(),
            o.makespan.as_secs_f64() * 1e3,
            o.p50_short.as_secs_f64() * 1e3,
            o.p99_short.as_secs_f64() * 1e3,
            o.max_short.as_secs_f64() * 1e3,
            o.local_hits,
            o.steals,
            o.queue_high_water
        ));
    }
    out.push_str(&format!(
        "\nstealing vs FIFO: makespan {:.2}x, p99 short-job latency {:.2}x\n\
         ({} steals prove idle workers drained their neighbors' backlogs)\n",
        fifo.makespan.as_secs_f64() / steal.makespan.as_secs_f64().max(1e-9),
        fifo.p99_short.as_secs_f64() / steal.p99_short.as_secs_f64().max(1e-9),
        steal.steals
    ));

    // Part B: the ragged par workload — coarse one-chunk-per-worker
    // static split vs oversubscribed grained chunks on the stealing
    // pool (the pool-hosted `par_for_dynamic` lesson).
    let n = 48;
    let unit = Duration::from_micros(120);
    out.push_str(&format!(
        "\nragged par_map (triangular cost, {n} elements, {} workers):\n",
        p.workers
    ));
    out.push_str(&format!("{:<34} {:>10}\n", "chunking", "wall"));
    let pool = ThreadPool::new(p.workers);
    let coarse = ragged_par_map(&pool, n, n.div_ceil(p.workers), unit);
    let grained = ragged_par_map(&pool, n, 2, unit);
    out.push_str(&format!(
        "{:<34} {:>8.1}ms\n",
        "static (1 chunk/worker)",
        coarse.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(
        "{:<34} {:>8.1}ms\n",
        "grained (stealing balances)",
        grained.as_secs_f64() * 1e3
    ));
    out.push_str(
        "(the coarse split ties makespan to the worker that drew the heavy\n\
         tail; small chunks let idle workers steal the remainder — the same\n\
         lesson as parallel::par_for_dynamic, now on the long-lived pool)\n",
    );
    out
}

/// E13 — the pool's class order on a mixed-class overload stream
/// (grades interactive+deadline'd, homework batch, reproduce bulk;
/// sleep-modeled service times), run with the jobs' classes and
/// class-blind; see the `priority` module docs for the stream shape
/// and DESIGN.md §8 for the scheduling rules.
pub fn e13_priority() -> String {
    use priority::{compare, mixed_overload_params};

    let p = mixed_overload_params();
    let mut out = format!(
        "E13: request class and priority under a mixed overload stream\n\
         ({} workers; {} cycles of [{} grade({:?}, deadline {:?}), {:?} lead,\n\
         {} homework({:?}) + {} reproduce({:?}), {:?} soak] — sustained ~1.7x\n\
         overload carried by the reproduce backlog; sleep-modeled)\n\n",
        p.workers,
        p.cycles,
        p.grades_per_cycle,
        p.grade,
        p.grade_deadline,
        p.grade_lead,
        p.homework_per_cycle,
        p.homework,
        p.reproduce_per_cycle,
        p.reproduce,
        p.cycle_soak,
    );
    let (blind, classes) = compare(p);
    out.push_str(&format!(
        "{:<16} {:<12} {:>6} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
        "run", "class", "n", "p50", "p99", "max", "finish", "missed"
    ));
    for o in [&blind, &classes] {
        for (i, c) in o.per_class.iter().enumerate() {
            out.push_str(&format!(
                "{:<16} {:<12} {:>6} {:>7.1}ms {:>7.1}ms {:>7.1}ms {:>7.1}ms {:>7}\n",
                if i == 0 { o.label() } else { "" },
                c.class.to_string(),
                c.count,
                c.p50.as_secs_f64() * 1e3,
                c.p99.as_secs_f64() * 1e3,
                c.max.as_secs_f64() * 1e3,
                c.finish.as_secs_f64() * 1e3,
                c.deadline_missed,
            ));
        }
    }
    let grade_ratio =
        blind.per_class[0].p99.as_secs_f64() / classes.per_class[0].p99.as_secs_f64().max(1e-9);
    let bulk_reg = classes.per_class[2].finish.as_secs_f64()
        / blind.per_class[2].finish.as_secs_f64().max(1e-9);
    out.push_str(&format!(
        "\nclasses vs class-blind: grade p99 {grade_ratio:.2}x better; bulk finish\n\
         {bulk_reg:.2}x the class-blind run; {} aging grants kept the bulk\n\
         backlog moving while grades kept arriving\n",
        classes.aged,
    ));
    out
}

/// E15 — the observability subsystem measured on itself: a
/// ≥1M-sample demonstration that the log-bucketed histogram's memory
/// stays constant while quantiles stay within the documented
/// relative-error bound (see the `obs` module docs and DESIGN.md §10).
pub fn e15_obs() -> String {
    obs::render(&obs::obs_params())
}

/// E16 — the course server sharded across backends through the
/// `router` crate: throughput scaling at 1 vs 3 backends on a
/// cache-busting mix, then a mid-run backend kill proven honest — zero
/// unanswered clients, re-routes or sheds for the victim's keys, and
/// ledgers that balance across the fleet (see the `router_exp` module
/// docs and DESIGN.md §11).
pub fn e16_router() -> String {
    router_exp::render(&router_exp::router_scaling_params())
}

/// E14 — the E13 question asked end-to-end: the class-ordered pool
/// over real loopback sockets, with the wire protocol, admission
/// backpressure frames, and client-side retries inside the measurement
/// (see the `wire` module docs and DESIGN.md §9).
pub fn e14_wire() -> String {
    use wire::{backpressure_frames, render_outcome, run_wire, wire_overload_params};

    let p = wire_overload_params();
    let mut out = format!(
        "E14: the class-ordered pool over the wire (loopback TCP, closed loop)\n\
         ({} workers, queue {}; {} conns x window {} — offered concurrency\n\
         {} against capacity {}; {} reqs/conn; sleep-modeled {:?}/{:?}/{:?}\n\
         at weights {:?}; clients honor RETRY/SHED hints, {} resends max)\n\n",
        p.workers,
        p.queue_capacity,
        p.connections,
        p.pipeline,
        p.connections * p.pipeline,
        p.queue_capacity,
        p.requests_per_connection,
        p.service[0],
        p.service[1],
        p.service[2],
        p.weights,
        p.max_retries,
    );
    let o = run_wire(&p);
    out.push_str(&render_outcome(&o));
    out.push_str(&format!(
        "\ninteractive p99 measured at the client: {} us, against {} us for\n\
         bulk; {} backpressure frames — the overload was real and the hints\n\
         rode the wire\n",
        o.report.class(serve::JobClass::Interactive).p99_us,
        o.report.class(serve::JobClass::Bulk).p99_us,
        backpressure_frames(&o),
    ));
    out
}

/// E18 — the connection engine behind `NetServer` at scale: the
/// N-shard epoll reactor (`net::reactor`). Part A sweeps the same
/// offered work across a growing connection count; Part B is the
/// idle-connection soak — 1000 connections while the thread count
/// stays at `shards` plus the acceptor (see the [`reactor_exp`] module
/// docs and DESIGN.md §13).
pub fn e18_reactor() -> String {
    reactor_exp::render(&reactor_exp::reactor_params())
}

/// E20 — live fleet resizing through the `ctl` control plane (PR 10).
/// Under sustained closed-loop load, a backend joins over the admin
/// wire surface (`CtlJoin` → probe admission → keyspace share) and
/// another drains (`CtlDrain` → out of the ring immediately, in-flight
/// resolved, retired once idle). `run_resize` asserts the exact
/// invariants on every attempt — zero unanswered clients in all three
/// phases, balanced router and fleet ledgers, the joined backend
/// serving real traffic, and the membership epoch advanced exactly
/// twice (`ctl.epoch` = 2: probe admission is a health event, not a
/// revision). The timing claim — the join raises sustained throughput
/// — is retried best-of-3 against host noise, like every timing
/// experiment here.
pub fn e20_ctl() -> String {
    ctl_exp::render(&ctl_exp::ctl_resize_params())
}

/// An experiment id and its runner.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment id and its runner, for the `reproduce` binary.
pub fn all_experiments() -> Vec<Experiment> {
    fn f1() -> String {
        f1_figure(2022)
    }
    let mut v = vec![
        ("t1", t1_table as fn() -> String),
        ("f1", f1),
        ("e1", e1_life_speedup),
        ("e2", e2_pipeline),
        ("e3", e3_stride),
        ("e4", e4_cache_designs),
        ("e5", e5_tlb_eat),
        ("e6", e6_amdahl),
        ("e7", e7_prodcons),
        ("e8", e8_counter),
        ("e9", e9_vm_replacement),
        ("e10", e10_asm_sequences),
        ("e11", e11_serve),
        ("e12", e12_stealing),
        ("e13", e13_priority),
        ("e14", e14_wire),
        ("e15", e15_obs),
        ("e16", e16_router),
        ("e18", e18_reactor),
        ("e20", e20_ctl),
    ];
    v.extend(ablations::all_ablations());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs_nonempty() {
        for (id, run) in all_experiments() {
            let out = run();
            assert!(out.len() > 100, "{id} output too small:\n{out}");
        }
    }

    #[test]
    fn e1_shows_near_linear_at_16() {
        let out = e1_life_speedup();
        assert!(out.contains("NearLinear"), "{out}");
        assert!(out.contains("matches serial: true"), "{out}");
    }

    #[test]
    fn e2_pipeline_wins() {
        let out = e2_pipeline();
        // Ideal stream approaches 5x.
        assert!(out.contains("4.9"), "{out}");
    }

    #[test]
    fn e3_row_major_wins() {
        let out = e3_stride();
        let row_line = out
            .lines()
            .find(|l| l.starts_with("row-major"))
            .expect("row line");
        let col_line = out
            .lines()
            .find(|l| l.starts_with("column-major"))
            .expect("col line");
        let rate = |l: &str| -> f64 {
            l.split_whitespace()
                .find(|w| w.ends_with('%'))
                .and_then(|w| w.trim_end_matches('%').parse().ok())
                .expect("hit rate in line")
        };
        assert!(rate(row_line) > 90.0);
        assert!(rate(col_line) < 10.0);
    }

    #[test]
    fn f1_claims_hold() {
        let out = f1_figure(2022);
        assert!(out.contains("all §IV qualitative claims hold"), "{out}");
    }

    #[test]
    fn e10_sequences_agree_and_differ_in_cost() {
        let out = e10_asm_sequences();
        assert!(out.contains("register loop beats memory loop"), "{out}");
        // The cost model's lesson, cycle for cycle: imul against shift and
        // add, then the loop counter in a register against memory.
        let cycles: Vec<u64> = out
            .lines()
            .filter_map(|line| line.split("cycles=").nth(1))
            .map(|c| c.trim().parse().expect("cycle count"))
            .collect();
        assert_eq!(cycles, [7, 5, 5002, 13005], "{out}");
    }

    #[test]
    fn e12_pool_steals_and_pops_locally_and_the_fifo_runs_every_job() {
        // Structure only: the makespan and p99 ratios are wall-clock
        // and stay in E12's printed output.
        let p = stealing::heavy_tail_params();
        let jobs = (p.cycles * (p.shorts_per_cycle + p.heavies_per_cycle) + 1) as u64;
        let (fifo, steal) = stealing::compare(p);
        assert!(steal.steals > 0, "stealing run recorded no steals");
        assert!(steal.local_hits > 0, "stealing run recorded no local pops");
        assert_eq!(steal.local_hits + steal.steals, jobs);
        assert_eq!((fifo.local_hits, fifo.steals), (jobs, 0));
    }

    #[test]
    fn e13_every_job_runs_and_aging_fires_only_with_classes() {
        let p = priority::mixed_overload_params();
        let (blind, classes) = priority::compare(p);
        for o in [&blind, &classes] {
            let counts: Vec<usize> = o.per_class.iter().map(|c| c.count).collect();
            assert_eq!(
                counts,
                [
                    p.cycles * p.grades_per_cycle,
                    p.cycles * p.homework_per_cycle,
                    p.cycles * p.reproduce_per_cycle
                ],
                "{} run lost jobs",
                o.label()
            );
        }
        assert!(classes.aged > 0, "class run recorded no aging grants");
        assert_eq!(
            blind.aged, 0,
            "one band leaves the aging rule nothing to pass over"
        );
    }

    #[test]
    fn e14_ledgers_balance_and_backpressure_rides_the_wire() {
        // Smaller than the published configuration but the same 3x
        // offered-over-capacity shape.
        let mut p = wire::wire_overload_params();
        p.connections = 6;
        p.requests_per_connection = 24;
        let o = wire::run_wire(&p);
        // Graceful shutdown lost nothing: every admitted request
        // completed or was shed, none stranded.
        for row in &o.stats.per_class {
            assert_eq!(
                row.admitted,
                row.completed + row.shed,
                "{} ledger unbalanced: {row:?}",
                row.class
            );
            assert_eq!(row.in_flight, 0);
        }
        assert!(
            wire::backpressure_frames(&o) > 0,
            "3x overload must produce RETRY/SHED frames"
        );
        assert!(o.stats.rejected > 0, "admission never pushed back");
        assert_eq!(o.net.malformed, 0);
    }

    #[test]
    fn e16_fleet_scales_and_a_mid_run_kill_stays_honest() {
        // Phase A with a smaller load than published; sleep-modeled
        // 5ms jobs make the capacity ratio structural (2 vs 6
        // workers), so best-of-5 absorbs scheduler jitter.
        let mut p = router_exp::router_scaling_params();
        p.requests_per_connection = 24;
        let mut last = String::new();
        let mut scaled = false;
        for _ in 0..5 {
            let single = router_exp::run_fleet(1, &p);
            let fleet = router_exp::run_fleet(p.backends, &p);
            let ratio = router_exp::throughput(&fleet) / router_exp::throughput(&single);
            for o in [&single, &fleet] {
                let unanswered: u64 = o.report.per_class.iter().map(|r| r.unanswered).sum();
                assert_eq!(unanswered, 0, "healthy fleet answered everything");
            }
            if ratio >= 2.0 {
                scaled = true;
                break;
            }
            last = format!("3-backend throughput only {ratio:.2}x single-backend");
        }
        assert!(scaled, "fleet never hit the 2x acceptance floor: {last}");

        // Phase B invariants are exact, not statistical: run once, but
        // long enough that the 150ms kill point is unambiguously
        // mid-run (the victim must still own in-flight or future keys,
        // or there is nothing to re-route).
        p.requests_per_connection = 96;
        let kill = router_exp::run_kill_one(&p);
        let unanswered: u64 = kill.report.per_class.iter().map(|r| r.unanswered).sum();
        assert_eq!(unanswered, 0, "a killed backend must never strand a client");
        assert!(kill.totals.backend_downs >= 1, "{:?}", kill.totals);
        assert!(
            kill.totals.rerouted + kill.totals.synthesized_shed > 0,
            "the victim's keys were re-routed or shed: {:?}",
            kill.totals
        );
        assert_eq!(
            kill.totals.forwarded,
            kill.totals.relayed + kill.totals.synthesized_shed,
            "router ledger: every forward resolved exactly once"
        );
        for (i, st) in kill.stats.iter().enumerate() {
            for row in &st.per_class {
                assert_eq!(
                    row.admitted,
                    row.completed + row.shed,
                    "backend {i} ledger unbalanced: {row:?}"
                );
            }
        }
    }

    #[test]
    fn e20_join_adds_capacity_and_drain_loses_nothing() {
        // `run_resize` asserts every exact invariant internally (zero
        // unanswered in all three phases, balanced ledgers, epoch
        // advanced exactly twice, joined backend served traffic); here
        // the run is sized down and the timing claim — the join raises
        // sustained throughput — gets the best-of-5 discipline. The
        // floor is deliberately below the structural 1.5x (4 → 6
        // workers): the claim under test is "capacity rose", not a
        // precise ratio.
        let mut p = ctl_exp::ctl_resize_params();
        p.requests_per_connection = 24;
        let mut last = String::new();
        for _ in 0..5 {
            let o = ctl_exp::run_resize(&p);
            assert_eq!(o.epoch, 3, "join + drain advance the epoch exactly twice");
            assert_eq!(o.ctl_epoch_counter, 2, "ctl.epoch mirrors the revisions");
            let ratio = ctl_exp::throughput(&o.after_join) / ctl_exp::throughput(&o.before);
            if ratio >= 1.1 {
                return;
            }
            last = format!("join only raised throughput {ratio:.2}x");
        }
        panic!("joined backend never raised sustained throughput: {last}");
    }

    #[test]
    fn e18_reactor_holds_1000_idle_connections_at_bounded_threads() {
        // The reactor holds 1000 idle connections while its added
        // thread count stays flat (shards + acceptor + slack). A soak
        // counts the whole process's threads, and the other tests in
        // this binary start and stop theirs meanwhile, so the counting
        // runs in a child process that runs only this test.
        const ALONE: &str = "E18_SOAK_ALONE";
        if std::env::var_os(ALONE).is_none() {
            let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
                .args([
                    "--exact",
                    "tests::e18_reactor_holds_1000_idle_connections_at_bounded_threads",
                ])
                .env(ALONE, "1")
                .output()
                .expect("re-run this test in a child process");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "the soak failed when run alone:\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return;
        }
        let p = reactor_exp::reactor_params();
        let r = reactor_exp::idle_soak(p.soak_conns, &p);
        assert_eq!(
            r.conns, 1000,
            "soak shape must test the 1000-connection claim"
        );
        assert!(
            r.delta() <= p.shards + 8,
            "reactor thread growth must be flat in connections: {} added for {} conns",
            r.delta(),
            r.conns
        );
    }

    #[test]
    fn e18_sweep_answers_every_request() {
        // A trimmed Part A: the sweep must conserve requests at every
        // connection count — nothing unanswered, no broken
        // connections, and real completions.
        let mut p = reactor_exp::reactor_params();
        p.sweep_conns = vec![2, 8];
        p.total_requests = 64;
        for row in reactor_exp::run_sweep(&p) {
            let unanswered: u64 = row.report.per_class.iter().map(|c| c.unanswered).sum();
            assert_eq!(unanswered, 0, "at {} conns", row.conns);
            assert_eq!(row.report.broken_conns, 0, "at {} conns", row.conns);
            assert!(
                reactor_exp::completed(&row.report) > 0,
                "at {} conns completed nothing",
                row.conns
            );
        }
    }

    #[test]
    fn e11_warm_round_is_fully_cached_and_drains() {
        let out = e11_serve();
        let warm = out
            .lines()
            .find(|l| l.starts_with("round 2"))
            .expect("warm round line");
        assert!(warm.contains("24 served"), "{out}");
        assert!(warm.contains("24 from cache"), "{out}");
        assert!(out.contains("completed == accepted"), "{out}");
    }
}
