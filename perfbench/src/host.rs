//! Process and host readings: CPU time, memory, threads, and the noise
//! diagnostics printed beside every run.

use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn rusage_cpu_us(who: i32) -> u64 {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage`, and `who` is one of the two constants the
    // call accepts; getrusage writes only within that struct.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    us(&usage.ru_utime) + us(&usage.ru_stime)
}

/// User + system CPU time of the whole process, in microseconds.
pub fn process_cpu_us() -> u64 {
    rusage_cpu_us(RUSAGE_SELF)
}

/// User + system CPU time of the calling thread, in microseconds.
pub fn thread_cpu_us() -> u64 {
    rusage_cpu_us(RUSAGE_THREAD)
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads in this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Cumulative (steal, total) jiffies over all CPUs, from /proc/stat.
fn steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// A fixed Life kernel (64x64, 32 steps, serial), median of three
/// timings in ms. The same work before and after a run shows whether
/// the host slowed down while the run was measuring.
fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let grid = life::grid::Grid::random(64, 64, 0.35, 1, life::grid::Boundary::Toroidal)
                .expect("valid calibration grid");
            let start = Instant::now();
            let (last, _) = life::serial::run(grid, 32);
            std::hint::black_box(last.population());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Host-noise readings bracketing a run. Printed, never compared.
pub struct Noise {
    calib_before_ms: f64,
    steal_before: Option<(u64, u64)>,
}

impl Noise {
    pub fn start() -> Noise {
        Noise {
            calib_before_ms: calibration_ms(),
            steal_before: steal_jiffies(),
        }
    }

    /// One line for the run log: calibration kernel before and after,
    /// steal share over the run, and the CPUs this process sees.
    pub fn finish(self) -> String {
        let calib_after_ms = calibration_ms();
        let steal = match (self.steal_before, steal_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                format!("{:.2}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => "n/a".to_string(),
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "host: nproc {nproc}, calibration kernel {:.2} ms before / {calib_after_ms:.2} ms after, steal {steal}",
            self.calib_before_ms
        )
    }
}
