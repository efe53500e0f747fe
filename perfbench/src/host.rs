//! Host-side readings of this process: CPU time, peak memory, and the
//! per-call timer the timed loops use.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of the whole process, every thread
/// including exited ones, in seconds (nanosecond resolution).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that lives across the call, and the clock
    // id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall and CPU seconds of each call a timed unit made, in call order.
#[derive(Default)]
pub struct Calls(pub Vec<(f64, f64)>);

impl Calls {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let r = f();
        let wall = t0.elapsed().as_secs_f64();
        self.0.push((wall, cpu_seconds() - c0));
        r
    }
}
