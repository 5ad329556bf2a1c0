//! Per-layer metrics of the traced run, from the benchmark's own spans,
//! the ladder, and the counters the program exposes through public
//! accessors (`CourseServer::stats`, `NetServer::net_stats`,
//! `Router::totals`, the registries' snapshots).

use crate::client::Record;
use crate::gen::Kind;
use crate::ladder::Ladder;
use crate::stack::Stack;
use crate::trace::Spans;
use crate::{metric, stats, Metric, Phase};
use net::wire::RespStatus;
use serve::pool::JobClass;
use std::collections::{BTreeMap, HashMap};

/// How far the ladder's outer level may sit from the client p50 of
/// the traced phase on the hit workloads.
pub const LADDER_TOLERANCE: f64 = 0.25;

/// The program's counters after the timed phases, summed over backends.
pub struct Counters {
    snapshot: obs::Snapshot,
    deadline_missed: [u64; 3],
    busy_us: [u64; 3],
    completed: [u64; 3],
    steals: u64,
    started: u64,
    queue_high_water: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    router: Option<(router::RouterTotals, Option<obs::HistSnapshot>)>,
}

impl Counters {
    pub fn read(stack: &Stack) -> Counters {
        let mut c = Counters {
            snapshot: obs::Snapshot::default(),
            deadline_missed: [0; 3],
            busy_us: [0; 3],
            completed: [0; 3],
            steals: 0,
            started: 0,
            queue_high_water: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            router: stack.router().map(|r| {
                (
                    r.totals(),
                    r.registry()
                        .snapshot()
                        .hist("router.backend.rtt_us")
                        .cloned(),
                )
            }),
        };
        for net in stack.backends() {
            let course = net.course();
            c.snapshot.merge(&course.registry().snapshot());
            let s = course.stats();
            for (band, class) in s.per_class.iter().enumerate() {
                c.deadline_missed[band] += class.deadline_missed;
            }
            for (band, class) in s.pool.per_class.iter().enumerate() {
                c.busy_us[band] += class.busy_micros;
                c.completed[band] += class.completed;
            }
            c.steals += s.pool.steals;
            c.started += s.pool.started;
            c.queue_high_water = c.queue_high_water.max(s.pool.queue_high_water);
            c.cache_hits += s.cache.hits;
            c.cache_misses += s.cache.misses;
            c.cache_evictions += s.cache.evictions;
        }
        c
    }
}

pub struct Inputs<'a> {
    pub workload_routed: bool,
    pub untraced: &'a Phase,
    pub traced: &'a Phase,
    pub timed_spans: &'a Spans,
    pub counters: &'a Counters,
    pub ladder: &'a Ladder,
    pub reference: &'a HashMap<Kind, f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A histogram percentile metric in the histogram's unit, or 0 with
/// the reason when fewer than ten samples lie beyond it.
fn hist_pct(
    name: impl Into<String>,
    h: Option<&obs::HistSnapshot>,
    pct: u64,
) -> (Metric, Option<String>) {
    let Some(h) = h.filter(|h| h.count() > 0) else {
        return (metric(name, 0.0, "us"), Some("no samples".to_string()));
    };
    let rank = (h.count() * pct).div_ceil(100).max(1);
    let beyond = h.count() - rank;
    if beyond < stats::MIN_BEYOND as u64 {
        let note = format!(
            "{} samples, {beyond} beyond p{pct}: not reported",
            h.count()
        );
        return (metric(name, 0.0, "us"), Some(note));
    }
    (metric(name, h.percentile(pct) as f64, "us"), None)
}

fn median_ns(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median_u64(v) as f64
    }
}

#[derive(Default)]
struct Out(Vec<(Metric, Option<String>)>);

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((metric(name, value, unit), None));
    }

    fn noted(&mut self, entry: (Metric, Option<String>)) {
        self.0.push(entry);
    }
}

pub fn per_layer(i: &Inputs) -> Vec<(Metric, Option<String>)> {
    let c = i.counters;
    let snap = &c.snapshot;
    let med = i.ladder.medians_us();
    let mut out = Out::default();

    // wire: the client's own encode/decode calls, and frame sizes.
    out.put(
        "wire.encode_ns",
        median_ns(&i.timed_spans.durations("encode_request")),
        "ns",
    );
    out.put(
        "wire.decode_ns",
        median_ns(&i.timed_spans.durations("decode_payload")),
        "ns",
    );
    let tcp = &i.ladder.tcp;
    let mean =
        |f: fn(&Record) -> u32| ratio(tcp.iter().map(|r| f64::from(f(r))).sum(), tcp.len() as f64);
    out.put("wire.req_bytes", mean(|r| r.req_bytes), "B");
    out.put("wire.resp_bytes", mean(|r| r.resp_bytes), "B");

    // net
    out.put("net.hop_us", med[2] - med[1], "us");
    out.noted(hist_pct(
        "net.decode_us_p50",
        snap.hist("net.frame.decode_us"),
        50,
    ));
    out.noted(hist_pct(
        "net.encode_us_p50",
        snap.hist("net.frame.encode_us"),
        50,
    ));
    out.put("net.threads", i.traced.threads as f64, "count");
    out.put(
        "net.wakeups_per_req",
        ratio(
            snap.counter("reactor.wakeups").unwrap_or(0) as f64,
            snap.counter("net.requests").unwrap_or(0) as f64,
        ),
        "count",
    );

    // router: the workload's own router on hit_routed, else the
    // ladder's router level over the same kind of requests.
    out.put("router.hop_us", med[3] - med[2], "us");
    let (totals, rtt, by_backend, ok_cached, answered) = match (&c.router, i.workload_routed) {
        (Some((totals, rtt)), true) => {
            let t = i.traced;
            let answered: u64 = t.by_backend.values().sum();
            (
                *totals,
                rtt.clone(),
                t.by_backend.clone(),
                t.ok_cached,
                answered,
            )
        }
        _ => {
            let records = &i.ladder.routed;
            let mut by_backend = BTreeMap::new();
            for r in records {
                *by_backend.entry(r.backend).or_default() += 1;
            }
            let cached = records
                .iter()
                .filter(|r| r.status == RespStatus::OkCached)
                .count() as u64;
            (
                i.ladder.router_totals,
                i.ladder.router_rtt.clone(),
                by_backend,
                cached,
                records.len() as u64,
            )
        }
    };
    out.noted(hist_pct("router.rtt_us_p50", rtt.as_ref(), 50));
    out.noted(hist_pct("router.rtt_us_p99", rtt.as_ref(), 99));
    out.put(
        "router.max_backend_share",
        ratio(
            by_backend.values().copied().max().unwrap_or(0) as f64,
            answered as f64,
        ),
        "frac",
    );
    out.put(
        "router.cache_hit_frac",
        ratio(ok_cached as f64, answered as f64),
        "frac",
    );
    out.put("router.rerouted", totals.rerouted as f64, "count");

    // admission. Requests refused or shed would reach the client as
    // non-OK answers, which fail the run, so their counts are not
    // reported: a reported run has none.
    out.put("serve.inproc_us_p50", med[1], "us");
    for class in JobClass::ALL {
        out.noted(hist_pct(
            format!("serve.queue_us_p99.{class}"),
            snap.hist(&format!("serve.stage.queue_us.{class}")),
            99,
        ));
    }

    // pool
    out.put(
        "pool.steal_frac",
        ratio(c.steals as f64, c.started as f64),
        "frac",
    );
    out.put("pool.queue_high_water", c.queue_high_water as f64, "count");
    for class in JobClass::ALL {
        let b = class.band();
        out.put(
            format!("pool.deadline_missed.{class}"),
            c.deadline_missed[b] as f64,
            "count",
        );
        out.put(
            format!("pool.busy_us_per_req.{class}"),
            ratio(c.busy_us[b] as f64, c.completed[b] as f64),
            "us",
        );
    }

    // cache
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    out.put(
        "cache.hit_frac",
        ratio(c.cache_hits as f64, lookups),
        "frac",
    );
    out.put(
        "cache.evictions_per_kreq",
        ratio(1000.0 * c.cache_evictions as f64, lookups),
        "count",
    );
    out.put("cache.hit_ns", median_ns(&i.ladder.cache_hit_ns), "ns");

    // compute: the course functions called directly on a fixed
    // reference sample of the compute mix, the same in every workload.
    for (name, kind) in [
        ("compute.grade_ok_us", Kind::GradeOk),
        ("compute.grade_loop_us", Kind::GradeLoop),
        ("compute.homework_us", Kind::Homework),
        ("compute.life_us", Kind::Life),
        ("compute.life_bulk_us", Kind::LifeBulk),
        ("compute.memtrace_us", Kind::MemTrace),
    ] {
        out.put(name, i.reference.get(&kind).copied().unwrap_or(0.0), "us");
    }
    for class in JobClass::ALL {
        out.noted(hist_pct(
            format!("serve.service_us_p50.{class}"),
            snap.hist(&format!("serve.stage.service_us.{class}")),
            50,
        ));
    }

    // client: checks that the other numbers are valid.
    let u = i.untraced;
    out.put(
        "client.cpu_us_per_req",
        ratio(u.client_cpu_us as f64, u.ok() as f64),
        "us",
    );
    out.0
}
