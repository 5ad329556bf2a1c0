//! perfbench: the course-server benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds in-process servers from the shipped defaults, sets them up,
//! drives the named workload over loopback for `s` seconds, checks every
//! answer, and prints one JSON object as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Any correctness violation exits non-zero without printing metrics.
//! See README.md for the workloads and the layer map.

mod client;
mod gen;
mod host;
mod ladder;
mod layers;
mod stack;
mod stats;
mod trace;

use client::{closed_loop, Conn, Item, Record};
use gen::{HitStream, MixStream, Spec};
use net::wire::RespStatus;
use serve::pool::JobClass;
use stack::Stack;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Spans;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    HitDirect,
    HitRouted,
    ComputeMix,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::HitDirect,
        Workload::HitRouted,
        Workload::ComputeMix,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::HitDirect => "hit_direct",
            Workload::HitRouted => "hit_routed",
            Workload::ComputeMix => "compute_mix",
        }
    }

    fn hits(self) -> bool {
        matches!(self, Workload::HitDirect | Workload::HitRouted)
    }

    /// Requests kept outstanding by the closed loop.
    fn window(self) -> usize {
        if self.hits() {
            2
        } else {
            8
        }
    }

    /// Throughput and latency percentiles are the median over windows
    /// of this many seconds of a `seconds`-long phase; a p99 needs 1000
    /// samples in every window. The hit workloads answer 20k-40k
    /// requests a second on the reference host, a quarter of them
    /// interactive, so 1 s windows hold enough down to a fifth of that
    /// throughput, and their median keeps a contention episode shorter
    /// than half the run from moving the figures. `compute_mix`
    /// answers about 350 interactive requests a second, so it takes the
    /// whole phase as one window: at half that throughput a 10 s phase
    /// still holds 1750.
    fn stats_window_s(self, seconds: f64) -> f64 {
        if self.hits() {
            1.0
        } else {
            seconds
        }
    }

    /// The ladder runs hit workloads at their own window, so its outer
    /// level reproduces the client's p50, and compute workloads one at
    /// a time, so each level's self time carries no queueing.
    fn ladder_window(self) -> usize {
        if self.hits() {
            2
        } else {
            1
        }
    }
}

/// Cold starts before the timed phase, and again after it; `setup_s`
/// is the median of all of them.
const SETUP_REPEATS: usize = 9;
/// Warm-up batch of the compute workloads: 96 requests are exactly 8
/// blocks of the mix and 3 decks of grades.
const WARM_BATCH: usize = 96;
/// Requests each ladder level times. For the hit workloads that is
/// about 2 s at the TCP level and 4 s through the router on the
/// reference host, where loopback latency switches between a fast and
/// a slow mode (about 45 and 58 us at the TCP level) every second or
/// so: a shorter sample caught one mode and sat up to 39% from the
/// client p50 of the 10 s phase.
const LADDER_HITS: usize = 80_000;
const LADDER_MIX: usize = 480;
/// Compute-mix requests re-run at every level by the correctness gate.
const VERIFY_MIX: usize = 24;
/// Grade serial ranges of the streams, so their keys never collide.
const WARM_SERIAL: u32 = 1 << 28;
const LADDER_SERIAL: u32 = 2 << 28;
const REFERENCE_SERIAL: u32 = 3 << 28;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.5..=120.0).contains(&seconds) {
        return Err("--seconds must be between 0.5 and 120".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Per-class request outcomes of one phase. A request sent and never
/// answered is the difference between `sent` and the answers.
#[derive(Default)]
struct Counts {
    sent: [u64; 3],
    ok: [u64; 3],
    failed: [u64; 3],
    shed: [u64; 3],
}

impl Counts {
    fn add_record(&mut self, r: &Record) {
        let band = r.class.band();
        match r.status {
            RespStatus::Ok | RespStatus::OkCached => self.ok[band] += 1,
            RespStatus::Retry | RespStatus::Shed => self.shed[band] += 1,
            RespStatus::Error | RespStatus::GoAway => self.failed[band] += 1,
        }
    }

    fn total(v: &[u64; 3]) -> u64 {
        v.iter().sum()
    }

    /// Requests not answered OK: failed, shed or never answered. The
    /// closed loop fails the run on the first of them, so a reported
    /// run has none.
    fn not_ok(&self) -> u64 {
        Self::total(&self.sent) - Self::total(&self.ok)
    }

    fn line(&self, phase: &str) -> String {
        let mut out = format!("counts {phase}:");
        for class in JobClass::ALL {
            let b = class.band();
            let unanswered = self.sent[b] - self.ok[b] - self.failed[b] - self.shed[b];
            let _ = write!(
                out,
                " {class} sent {} ok {} failed {} shed {} unanswered {unanswered};",
                self.sent[b], self.ok[b], self.failed[b], self.shed[b]
            );
        }
        out
    }
}

/// What set-up leaves ready for the timed phase.
struct Ready {
    stack: Stack,
    conn: Conn,
    /// The hot set, and the body each key answered with at warm-up
    /// (hit workloads only).
    hot: Vec<Spec>,
    hot_hashes: Vec<u64>,
    warm: Counts,
}

fn warm_specs(w: Workload, seed: u64) -> Vec<Spec> {
    if w.hits() {
        gen::hot_set(seed)
    } else {
        let mut s = MixStream::new(seed ^ 0x5741_524D, WARM_SERIAL);
        (0..WARM_BATCH).map(|_| s.next_spec()).collect()
    }
}

/// Cold start to ready: bind the servers (and link the router until
/// every backend is Up), connect the client, and run the fixed warm-up.
fn setup_once(w: Workload, seed: u64) -> Result<Ready, String> {
    let stack = if w == Workload::HitRouted {
        Stack::routed()?
    } else {
        Stack::direct()?
    };
    let mut conn = Conn::connect(stack.addr())?;
    let specs = warm_specs(w, seed);
    let warm = ladder::answers(&mut conn, &specs, w.window())?;
    if let Some(r) = warm.iter().find(|r| r.status != RespStatus::Ok) {
        return Err(format!(
            "warm-up {} answered {:?}, expected a computed OK",
            r.kind.label(),
            r.status
        ));
    }
    let mut counts = Counts::default();
    for r in &warm {
        counts.sent[r.class.band()] += 1;
        counts.add_record(r);
    }
    let (hot, hot_hashes) = if w.hits() {
        let mut hashes = vec![0; specs.len()];
        for r in &warm {
            hashes[r.tag as usize] = r.body_hash;
        }
        (specs, hashes)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(Ready {
        stack,
        conn,
        hot,
        hot_hashes,
        warm: counts,
    })
}

/// Drains and stops the servers, then checks their ledgers.
fn teardown(ready: Ready) -> Result<(), String> {
    let Ready { stack, conn, .. } = ready;
    drop(conn);
    stack.shutdown();
    stack.check_ledgers()
}

/// Sets up `n` times, keeping the last, and returns every duration.
fn setup(w: Workload, seed: u64, n: usize) -> Result<(Ready, Vec<f64>), String> {
    let mut times = Vec::with_capacity(2 * n);
    let mut last = None;
    for _ in 0..n {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let start = Instant::now();
        last = Some(setup_once(w, seed)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Cold starts run after the timed phase, so `setup_s` samples the
/// host at both ends of the run rather than only before it.
fn setup_after(w: Workload, seed: u64, times: &mut Vec<f64>) -> Result<(), String> {
    let (ready, after) = setup(w, seed, SETUP_REPEATS)?;
    teardown(ready)?;
    times.extend(after);
    Ok(())
}

fn print_setup(times: &[f64]) {
    let rounded: Vec<f64> = times.iter().map(|s| (s * 1e4).round() / 1e4).collect();
    let (before, after) = rounded.split_at(SETUP_REPEATS);
    println!("setup: cold starts {before:?} s before the timed phase, {after:?} s after");
}

/// The request source of the timed phases, continued across them so a
/// traced run's two phases never repeat a compute key.
enum Stream {
    Hit(HitStream),
    Mix(MixStream),
}

impl Stream {
    fn new(w: Workload, seed: u64) -> Stream {
        if w.hits() {
            Stream::Hit(HitStream::new(seed))
        } else {
            Stream::Mix(MixStream::new(seed, 0))
        }
    }
}

/// The client-side result of one timed phase, kept in memory that does
/// not grow with throughput on the hit workloads: exact counts and
/// per-window statistics.
struct Phase {
    elapsed_s: f64,
    windows: stats::Windows,
    counts: Counts,
    ok_cached: u64,
    by_backend: std::collections::BTreeMap<u32, u64>,
    client_cpu_us: u64,
    process_cpu_us: u64,
    threads: u64,
    /// Requests the correctness gate re-runs at every level, with the
    /// body hash this phase saw.
    verify: Vec<(Spec, Option<u64>)>,
}

impl Phase {
    /// OK answers, which is every answer.
    fn ok(&self) -> u64 {
        Counts::total(&self.counts.ok)
    }
}

/// One closed-loop timed phase. Its per-class counts are printed under
/// `label` whether or not the phase passes the correctness gate.
fn timed_phase(
    w: Workload,
    ready: &mut Ready,
    stream: &mut Stream,
    seconds: f64,
    label: &str,
    spans: Option<&mut Spans>,
) -> Result<Phase, String> {
    let cpu0 = host::process_cpu_us();
    let Ready {
        conn,
        hot,
        hot_hashes,
        ..
    } = ready;
    let width_s = w.stats_window_s(seconds);
    let mut windows =
        stats::Windows::new((width_s * 1e9) as u64, (seconds / width_s).floor() as u64);
    let mut counts = Counts::default();
    let mut sent = [0u64; 3];
    let mut ok_cached = 0;
    let mut by_backend = std::collections::BTreeMap::new();
    let mut not_cached = None;
    let stop_at = Instant::now() + Duration::from_secs_f64(seconds);
    let mut serial = 0u32;
    let mut verify_specs = Vec::with_capacity(VERIFY_MIX);
    let mut verify_hashes = vec![None; VERIFY_MIX];
    let closed = closed_loop(
        conn,
        w.window(),
        Some(stop_at),
        || {
            let item = match stream {
                Stream::Hit(h) => {
                    let i = h.next_index();
                    Item {
                        tag: i as u32,
                        spec: hot[i].clone(),
                        expect_hash: Some(hot_hashes[i]),
                    }
                }
                Stream::Mix(m) => {
                    let spec = m.next_spec();
                    serial += 1;
                    if verify_specs.len() < VERIFY_MIX {
                        verify_specs.push(spec.clone());
                    }
                    Item {
                        tag: serial,
                        spec,
                        expect_hash: None,
                    }
                }
            };
            sent[item.spec.class.band()] += 1;
            Some(item)
        },
        |r| {
            counts.add_record(&r);
            *by_backend.entry(r.backend).or_default() += 1;
            if r.status != RespStatus::OkCached && not_cached.is_none() {
                not_cached = Some((r.kind, r.status));
            }
            // A non-OK answer ends the phase with an error, so every
            // answer of a phase that returns is OK.
            ok_cached += u64::from(r.status == RespStatus::OkCached);
            windows.add(r.end_ns, r.latency_ns, r.class == JobClass::Interactive);
            if !w.hits() {
                if let Some(h) = verify_hashes.get_mut((r.tag as usize).wrapping_sub(1)) {
                    *h = Some(r.body_hash);
                }
            }
        },
        spans,
    );
    counts.sent = sent;
    println!("{}", counts.line(label));
    let closed = closed?;
    if let (Workload::HitDirect, Some((kind, status))) = (w, not_cached) {
        return Err(format!(
            "hit_direct {} answered {status:?}, not OK_CACHED",
            kind.label()
        ));
    }
    windows.finish();
    let verify = if w.hits() {
        hot.iter()
            .cloned()
            .zip(hot_hashes.iter().map(|&h| Some(h)))
            .collect()
    } else {
        verify_specs.into_iter().zip(verify_hashes).collect()
    };
    Ok(Phase {
        elapsed_s: closed.elapsed.as_secs_f64(),
        windows,
        counts,
        ok_cached,
        by_backend,
        client_cpu_us: closed.client_cpu_us,
        process_cpu_us: host::process_cpu_us() - cpu0,
        threads: host::threads(),
        verify,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The median of one statistic over a phase's windows, or the first
/// window's reason it has none.
fn window_median(
    windows: &stats::Windows,
    stat: impl Fn(&stats::WindowStats) -> Result<f64, String>,
) -> Result<f64, String> {
    let values = windows
        .closed
        .iter()
        .map(stat)
        .collect::<Result<Vec<f64>, String>>()?;
    if values.is_empty() {
        return Err("the phase is shorter than one window".to_string());
    }
    Ok(stats::median(&values))
}

/// The end-to-end metrics of one phase. A percentile with fewer than
/// ten samples beyond it is an error, never a number.
fn end_to_end(
    phase: &Phase,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<(Metric, Result<(), String>)> {
    let win = &phase.windows;
    let us = |r: &Result<u64, String>| r.clone().map(|ns| ns as f64 / 1e3);
    let checked = |name: &str, unit, value: Result<f64, String>| match value {
        Ok(v) => (metric(name, v, unit), Ok(())),
        Err(e) => (metric(name, f64::NAN, unit), Err(format!("{name}: {e}"))),
    };
    vec![
        checked(
            "throughput_rps",
            "req/s",
            window_median(win, |s| Ok(s.ok as f64 / win.width_s())),
        ),
        checked("p50_us", "us", window_median(win, |s| us(&s.p50_ns))),
        checked("p99_us", "us", window_median(win, |s| us(&s.p99_ns))),
        checked(
            "interactive_p99_us",
            "us",
            window_median(win, |s| us(&s.interactive_p99_ns)),
        ),
        checked(
            "cpu_us_per_req",
            "us",
            Ok(
                phase.process_cpu_us.saturating_sub(phase.client_cpu_us) as f64
                    / phase.ok().max(1) as f64,
            ),
        ),
        checked("setup_s", "s", Ok(stats::median(setup_s))),
        checked("peak_rss_mb", "MB", Ok(peak_rss_mb)),
    ]
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{label} {} = {} {}", m.name, m.value, m.unit);
    }
}

fn json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn phase_summary(phase: &Phase) {
    println!(
        "timed: {:.3} s, {} OK answers ({} interactive), generator thread CPU {} us, process CPU {} us, {} threads",
        phase.elapsed_s,
        phase.ok(),
        phase.counts.ok[JobClass::Interactive.band()],
        phase.client_cpu_us,
        phase.process_cpu_us,
        phase.threads,
    );
    let win = &phase.windows;
    println!(
        "windows: {} of {} s, OK answers per window {:?}",
        win.closed.len(),
        win.width_s(),
        win.closed.iter().map(|s| s.ok).collect::<Vec<_>>()
    );
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let noise = host::Noise::start();
    let (mut ready, mut setup_s) = setup(w, args.seed, SETUP_REPEATS)?;
    println!("{}", ready.warm.line("setup"));
    let mut stream = Stream::new(w, args.seed);
    if !args.trace {
        let phase = timed_phase(w, &mut ready, &mut stream, args.seconds, "timed", None)?;
        let peak_rss_mb = host::peak_rss_mb();
        phase_summary(&phase);
        teardown(ready)?;
        setup_after(w, args.seed, &mut setup_s)?;
        print_setup(&setup_s);
        let mut metrics = Vec::new();
        for (m, valid) in end_to_end(&phase, &setup_s, peak_rss_mb) {
            valid?;
            metrics.push(m);
        }
        let (specs, hashes): (Vec<Spec>, Vec<Option<u64>>) = phase.verify.iter().cloned().unzip();
        ladder::verify_levels(&specs, &hashes)?;
        println!("correctness: every answer checked; levels agree; ledgers balance");
        println!("{}", noise.finish());
        print_metrics("metric", &metrics);
        return Ok(json(
            Counts::total(&phase.counts.sent),
            phase.counts.not_ok(),
            &metrics,
        ));
    }
    traced(args, ready, stream, setup_s, noise)
}

/// The traced run: an untraced and a traced timed phase side by side
/// (their difference is the tracing overhead), the program's counters,
/// the ladder, and the compute reference; the spans go to a file.
fn traced(
    args: &Args,
    mut ready: Ready,
    mut stream: Stream,
    mut setup_s: Vec<f64>,
    noise: host::Noise,
) -> Result<String, String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let untraced = timed_phase(w, &mut ready, &mut stream, half, "untraced", None)?;
    let mut timed_spans = Spans::new("timed", "request");
    let traced = timed_phase(
        w,
        &mut ready,
        &mut stream,
        half,
        "traced",
        Some(&mut timed_spans),
    )?;
    let peak_rss_mb = host::peak_rss_mb();
    phase_summary(&traced);
    let stack_counters = layers::Counters::read(&ready.stack);
    let hot = std::mem::take(&mut ready.hot);
    teardown(ready)?;
    setup_after(w, args.seed, &mut setup_s)?;
    print_setup(&setup_s);
    let e2e_untraced = end_to_end(&untraced, &setup_s, peak_rss_mb);
    let e2e_traced = end_to_end(&traced, &setup_s, peak_rss_mb);
    for ((u, _), (t, _)) in e2e_untraced.iter().zip(&e2e_traced) {
        println!(
            "overhead {}: untraced {} traced {} {} ({:+.1}%)",
            u.name,
            u.value,
            t.value,
            u.unit,
            100.0 * (t.value / u.value - 1.0)
        );
    }
    // The ladder's levels run untraced, so they are held against the
    // untraced phase.
    let client_p50_us = e2e_untraced[1].0.value;

    let (warm, sample) = if w.hits() {
        let mut s = HitStream::new(args.seed ^ 0x4C41_4444);
        let sample: Vec<Spec> = (0..LADDER_HITS)
            .map(|_| hot[s.next_index()].clone())
            .collect();
        (hot.clone(), sample)
    } else {
        let mut s = MixStream::new(args.seed ^ 0x4C41_4444, LADDER_SERIAL);
        (
            warm_specs(w, args.seed),
            (0..LADDER_MIX).map(|_| s.next_spec()).collect(),
        )
    };
    let ladder = ladder::run(&warm, &sample, w.ladder_window(), w.hits())?;
    let mut reference_stream = MixStream::new(args.seed ^ 0x5245_4645, REFERENCE_SERIAL);
    let reference_sample: Vec<Spec> = (0..16 * 12).map(|_| reference_stream.next_spec()).collect();
    let reference = ladder::compute_reference(&reference_sample);

    let (specs, hashes): (Vec<Spec>, Vec<Option<u64>>) = traced.verify.iter().cloned().unzip();
    ladder::verify_levels(&specs, &hashes)?;
    println!("correctness: every answer checked; levels agree; ledgers balance");

    let medians = ladder.medians_us();
    println!(
        "ladder ({} requests, window {}): {} {:.2} us, in-process {:.2} us, tcp {:.2} us, router {:.2} us",
        sample.len(),
        w.ladder_window(),
        ladder.inner_name,
        medians[0],
        medians[1],
        medians[2],
        medians[3]
    );
    if w.hits() {
        let outer = if w == Workload::HitRouted {
            medians[3]
        } else {
            medians[2]
        };
        let off = outer / client_p50_us - 1.0;
        let check = format!(
            "in-process + net.hop_us{} = {outer:.2} us vs client p50 {client_p50_us:.2} us ({:+.1}%, tolerance ±{:.0}%)",
            if w == Workload::HitRouted { " + router.hop_us" } else { "" },
            100.0 * off,
            100.0 * layers::LADDER_TOLERANCE,
        );
        if off.abs() > layers::LADDER_TOLERANCE {
            return Err(format!("ladder check outside its tolerance: {check}"));
        }
        println!("ladder check: {check}: within");
    }

    let metrics = layers::per_layer(&layers::Inputs {
        workload_routed: w == Workload::HitRouted,
        untraced: &untraced,
        traced: &traced,
        timed_spans: &timed_spans,
        counters: &stack_counters,
        ladder: &ladder,
        reference: &reference,
    });
    for (name, value, unit, note) in metrics.iter().map(|(m, n)| (&m.name, m.value, m.unit, n)) {
        match note {
            Some(note) => println!("layer {name} = {value} {unit} ({note})"),
            None => println!("layer {name} = {value} {unit}"),
        }
    }
    let path = write_spans(w, &[&timed_spans, &ladder.spans])?;
    println!(
        "spans: {} written to {path}",
        timed_spans.spans.len() + ladder.spans.spans.len()
    );
    println!("{}", noise.finish());
    let failed = untraced.counts.not_ok() + traced.counts.not_ok();
    let attempted = Counts::total(&untraced.counts.sent) + Counts::total(&traced.counts.sent);
    let metrics: Vec<Metric> = metrics.into_iter().map(|(m, _)| m).collect();
    Ok(json(attempted, failed, &metrics))
}

/// Writes the spans under `perfbench/out/` in the working directory,
/// one file per workload that the next traced run of it replaces (a
/// 20 s hit run writes about 200 MB).
fn write_spans(w: Workload, sets: &[&Spans]) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.jsonl", w.name()));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for set in sets {
        set.write_jsonl(&mut out, w.name())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    std::io::Write::flush(&mut out).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}
