//! The same generated requests timed at each layer's public entry
//! point, from the inside out: the course function (or, for cached
//! keys, the result cache) called directly, `CourseServer::submit` plus
//! the ticket, `NetServer` over TCP, and `Router` over TCP. A layer's
//! self time is its level's median minus the next-inner level's.

use crate::client::{body_hash, closed_loop, Conn, Item, Record};
use crate::gen::{Kind, Spec};
use crate::stack::Stack;
use crate::stats;
use crate::trace::Spans;
use cs31::autograde;
use serve::cache::{CacheImpl, ServerCache};
use serve::server::{CourseServer, Request, Response, ServerConfig};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// Standalone cache hits timed when level 1 is the course function.
const CACHE_LOOKUPS: usize = 4000;

/// Runs `spec`'s course computation directly, with the parameters the
/// server's handler uses, and returns how long it took in ns.
pub fn compute_direct(spec: &Spec) -> u64 {
    let start = Instant::now();
    match &spec.req {
        Request::Grade { submission } => {
            black_box(autograde::grade(
                submission,
                &autograde::sum_array_rubric(),
                200_000,
            ));
        }
        Request::Homework { generator, seed } => {
            let (_, make) = cs31::homework::generators()
                .into_iter()
                .find(|(name, _)| name == generator)
                .expect("generated homework names exist");
            black_box(make(*seed));
        }
        Request::Life { w, h, steps, seed } => {
            let grid = life::grid::Grid::random(
                *h as usize,
                *w as usize,
                0.35,
                *seed,
                life::grid::Boundary::Toroidal,
            )
            .expect("generated Life sizes are valid");
            black_box(life::serial::run(grid, *steps as usize));
        }
        Request::MemTrace {
            pattern,
            accesses,
            seed,
        } => {
            let base = (seed & 0xFFFF) * 64;
            let n = *accesses as usize;
            let trace = match pattern.as_str() {
                "seq" => memsim::patterns::strided_trace(base, n, 4),
                "stride" => memsim::patterns::strided_trace(base, n, 64),
                "random" => memsim::patterns::random_trace(base, 1 << 20, n, *seed),
                "ws" => memsim::patterns::working_set_trace(base, 8192, 64, (n / 128).max(1)),
                _ => memsim::patterns::rmw_trace(base, n.div_ceil(2), 64),
            };
            let config = memsim::cache::CacheConfig::set_associative(64, 2, 64);
            let mut cache = memsim::cache::Cache::new(config).expect("valid cache config");
            black_box(cache.run_trace(&trace));
        }
        Request::Reproduce { .. } => unreachable!("the benchmark never sends Reproduce"),
    }
    start.elapsed().as_nanos() as u64
}

/// Median direct-call time per op kind, in µs, over `sample`.
pub fn compute_reference(sample: &[Spec]) -> HashMap<Kind, f64> {
    let mut by_kind: HashMap<Kind, Vec<u64>> = HashMap::new();
    for spec in sample {
        by_kind
            .entry(spec.kind)
            .or_default()
            .push(compute_direct(spec));
    }
    by_kind
        .into_iter()
        .map(|(kind, ns)| (kind, stats::median_u64(&ns) as f64 / 1e3))
        .collect()
}

/// One answer from the in-process level.
pub struct InProc {
    pub latency_ns: u64,
    pub start_ns: u64,
    pub response: Response,
}

/// Submits `specs` to `server` with `window` outstanding, as the TCP
/// front end would (same class, priority and deadline), timing each
/// from submit to the ticket's resolution.
pub fn in_process(
    server: &CourseServer,
    specs: &[Spec],
    window: usize,
    t0: Instant,
) -> Result<Vec<InProc>, String> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Response)>();
    let mut out: Vec<Option<InProc>> = (0..specs.len()).map(|_| None).collect();
    let mut starts = vec![t0; specs.len()];
    let mut pending = VecDeque::new();
    let mut next = 0;
    while next < specs.len() || !pending.is_empty() {
        while next < specs.len() && pending.len() < window {
            starts[next] = Instant::now();
            let ticket = server
                .submit_with_meta(specs[next].meta(), specs[next].req.clone())
                .map_err(|e| format!("in-process submit refused: {e:?}"))?;
            let tx = tx.clone();
            let index = next;
            ticket.on_ready(move |resp| {
                let _ = tx.send((index, Instant::now(), resp.clone()));
            });
            pending.push_back(index);
            next += 1;
        }
        let (index, done, response) = rx.recv().expect("a ticket always resolves");
        pending.retain(|&i| i != index);
        if !response.ok {
            return Err(format!("in-process request failed: {}", response.body));
        }
        specs[index].check_body(&response.body)?;
        out[index] = Some(InProc {
            latency_ns: done.duration_since(starts[index]).as_nanos() as u64,
            start_ns: starts[index].duration_since(t0).as_nanos() as u64,
            response,
        });
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every index answered"))
        .collect())
}

/// Sends `specs` on `conn` with `window` outstanding and returns every
/// answer, tagged with its index in `specs`.
pub fn answers(conn: &mut Conn, specs: &[Spec], window: usize) -> Result<Vec<Record>, String> {
    answers_expecting(conn, specs, &vec![None; specs.len()], window)
}

/// Like [`answers`], requiring each body to hash to `expect[i]` when set.
fn answers_expecting(
    conn: &mut Conn,
    specs: &[Spec],
    expect: &[Option<u64>],
    window: usize,
) -> Result<Vec<Record>, String> {
    let mut records = Vec::with_capacity(specs.len());
    let mut tagged = specs.iter().zip(expect).enumerate();
    closed_loop(
        conn,
        window,
        None,
        || {
            tagged.next().map(|(i, (s, e))| Item {
                tag: i as u32,
                spec: s.clone(),
                expect_hash: *e,
            })
        },
        |r| records.push(r),
        None,
    )?;
    Ok(records)
}

/// Warms `stack` with `warm` over one connection, then times `sample`.
fn over_tcp(
    stack: &Stack,
    warm: &[Spec],
    sample: &[Spec],
    window: usize,
) -> Result<Vec<Record>, String> {
    let mut conn = Conn::connect(stack.addr())?;
    answers(&mut conn, warm, window)?;
    answers(&mut conn, sample, window)
}

/// Every level's timings for one sample.
pub struct Ladder {
    /// Level 1: the cache (hit workloads) or the course function.
    pub inner_name: &'static str,
    pub inner_ns: Vec<u64>,
    /// Hits on a standalone default-built cache holding the warm keys.
    pub cache_hit_ns: Vec<u64>,
    pub inproc_ns: Vec<u64>,
    pub tcp: Vec<Record>,
    pub routed: Vec<Record>,
    pub router_totals: router::RouterTotals,
    pub router_rtt: Option<obs::HistSnapshot>,
    pub spans: Spans,
}

impl Ladder {
    pub fn medians_us(&self) -> [f64; 4] {
        let med = |v: &[u64]| stats::median_u64(v) as f64 / 1e3;
        let lat = |c: &[Record]| c.iter().map(|r| r.latency_ns).collect::<Vec<_>>();
        [
            med(&self.inner_ns),
            med(&self.inproc_ns),
            med(&lat(&self.tcp)),
            med(&lat(&self.routed)),
        ]
    }
}

/// Times `sample` at every level. `warm` is what each level's fresh
/// server holds first (the hot set, or a warm-up batch). With
/// `cached`, level 1 is hits on a standalone default-built cache
/// holding the warm keys; otherwise it is the course function.
pub fn run(warm: &[Spec], sample: &[Spec], window: usize, cached: bool) -> Result<Ladder, String> {
    let t0 = Instant::now();
    let ns = |at: Instant| at.duration_since(t0).as_nanos() as u64;
    let mut spans = Spans::new("ladder", "ladder.request");
    let level = |spans: &mut Spans, name: &'static str, i: usize, start: u64, end: u64| {
        spans.child(i as u64, name, start, end);
    };

    let server = CourseServer::new(ServerConfig::default());
    let warmed = in_process(&server, warm, window, t0)?;
    let inproc = in_process(&server, sample, window, t0)?;
    server.shutdown();
    for (i, r) in inproc.iter().enumerate() {
        level(
            &mut spans,
            "level.inproc",
            i,
            r.start_ns,
            r.start_ns + r.latency_ns,
        );
    }

    // Hits on a standalone default-built cache holding the warm keys:
    // level 1 of the hit workloads, and `cache.hit_ns` everywhere.
    let config = ServerConfig::default();
    let cache: ServerCache<Request, Response> = ServerCache::build(
        CacheImpl::default(),
        config.cache_shards,
        config.cache_capacity_per_shard,
        None,
        &obs::Registry::new(),
    );
    for (spec, r) in warm.iter().zip(&warmed) {
        cache.get_or_insert_with(spec.req.clone(), |_| r.response.clone());
    }
    let lookups: Vec<&Spec> = if cached {
        sample.iter().collect()
    } else {
        warm.iter().cycle().take(CACHE_LOOKUPS).collect()
    };
    let mut cache_hit_ns = Vec::with_capacity(lookups.len());
    for (i, spec) in lookups.into_iter().enumerate() {
        let start = Instant::now();
        let hit = cache.get_or_insert_with(spec.req.clone(), |_| {
            panic!("a warm key missed the cache that holds the warm keys")
        });
        let end = Instant::now();
        black_box(hit);
        cache_hit_ns.push(end.duration_since(start).as_nanos() as u64);
        if cached {
            level(&mut spans, "level.cache", i, ns(start), ns(end));
        }
    }
    let (inner_name, inner_ns) = if cached {
        ("level.cache", cache_hit_ns.clone())
    } else {
        let mut inner_ns = Vec::with_capacity(sample.len());
        for (i, spec) in sample.iter().enumerate() {
            let start = ns(Instant::now());
            let took = compute_direct(spec);
            inner_ns.push(took);
            level(&mut spans, "level.compute", i, start, start + took);
        }
        ("level.compute", inner_ns)
    };

    let direct = Stack::direct()?;
    let tcp_start = ns(Instant::now());
    let tcp = over_tcp(&direct, warm, sample, window)?;
    direct.shutdown();
    direct.check_ledgers()?;

    let routed_stack = Stack::routed()?;
    let routed_start = ns(Instant::now());
    let routed = over_tcp(&routed_stack, warm, sample, window)?;
    routed_stack.shutdown();
    routed_stack.check_ledgers()?;
    let router = routed_stack.router().expect("routed stack has a router");
    let router_totals = router.totals();
    let router_rtt = router
        .registry()
        .snapshot()
        .hist("router.backend.rtt_us")
        .cloned();

    for (records, name, base) in [
        (&tcp, "level.tcp", tcp_start),
        (&routed, "level.router", routed_start),
    ] {
        // The closed loop's clock starts a moment after `base`; the
        // offset is below a millisecond and the same for every span.
        for r in records {
            level(
                &mut spans,
                name,
                r.tag as usize,
                base + r.end_ns - r.latency_ns,
                base + r.end_ns,
            );
        }
    }
    let mut extent = vec![(u64::MAX, 0); sample.len()];
    for s in &spans.spans {
        let e = &mut extent[s.request as usize];
        *e = (e.0.min(s.start_ns), e.1.max(s.end_ns));
    }
    for (i, (spec, (start, end))) in sample.iter().zip(extent).enumerate() {
        spans.root(crate::trace::Span {
            request: i as u64,
            name: "ladder.request",
            parent: None,
            start_ns: start,
            end_ns: end,
            kind: Some(spec.kind),
            class: Some(spec.class),
            status: None,
        });
    }

    // Byte-identical bodies at every server level.
    let by_key: HashMap<&Request, u64> = sample
        .iter()
        .zip(&inproc)
        .map(|(s, r)| (&s.req, body_hash(&r.response.body)))
        .collect();
    for records in [&tcp, &routed] {
        for r in records {
            if by_key[&sample[r.tag as usize].req] != r.body_hash {
                return Err(format!(
                    "{} body over TCP differs from the in-process body",
                    sample[r.tag as usize].kind.label()
                ));
            }
        }
    }

    Ok(Ladder {
        inner_name,
        inner_ns,
        cache_hit_ns,
        inproc_ns: inproc.iter().map(|r| r.latency_ns).collect(),
        tcp,
        routed,
        router_totals,
        router_rtt,
        spans,
    })
}

/// The correctness gate every run ends with: each request in `sample`
/// must return a byte-identical body in process, over TCP and through
/// the router, computed (miss) and cached (hit) alike, and equal to
/// `expect` where the timed phase recorded one. Every stack's ledgers
/// must balance afterwards.
pub fn verify_levels(sample: &[Spec], expect: &[Option<u64>]) -> Result<(), String> {
    let server = CourseServer::new(ServerConfig::default());
    let t0 = Instant::now();
    let miss = in_process(&server, sample, 1, t0)?;
    let hit = in_process(&server, sample, 1, t0)?;
    server.shutdown();
    let mut want = Vec::with_capacity(sample.len());
    for (i, spec) in sample.iter().enumerate() {
        let h = body_hash(&miss[i].response.body);
        if miss[i].response.cached || !hit[i].response.cached {
            return Err(format!(
                "{} in process: expected a miss then a hit",
                spec.kind.label()
            ));
        }
        if body_hash(&hit[i].response.body) != h || expect[i].is_some_and(|e| e != h) {
            return Err(format!(
                "{} body differs between hit, miss and the timed phase",
                spec.kind.label()
            ));
        }
        want.push(Some(h));
    }
    for stack in [Stack::direct()?, Stack::routed()?] {
        let mut conn = Conn::connect(stack.addr())?;
        for _pass in 0..2 {
            answers_expecting(&mut conn, sample, &want, 1)?;
        }
        drop(conn);
        stack.shutdown();
        stack.check_ledgers()?;
    }
    Ok(())
}
