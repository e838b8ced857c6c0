//! Host clocks that leave out time the host withheld from the benchmark.
//!
//! On a virtual machine whose CPUs are shared, a vCPU can be ready to run
//! and still wait for the hypervisor; `/proc/stat` counts that wait per
//! CPU as *steal*. Steal comes in bursts that double a repetition's wall
//! time, so the timed section subtracts it ([`HostTimer`]), and the
//! single-threaded set-up is timed on its thread's CPU clock
//! ([`thread_cpu_seconds`]), which does not advance while the thread
//! waits. On a host without steal both equal plain wall time.

use std::time::Instant;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Seconds of steal per CPU so far; empty when `/proc/stat` has none.
fn steal_per_cpu() -> Vec<f64> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map(|ticks| ticks / USER_HZ)
        .collect()
}

/// Wall time of a section that keeps every CPU busy, minus the largest
/// steal any one CPU suffered meanwhile (the section ends when its most
/// delayed thread does).
pub struct HostTimer {
    start: Instant,
    steal: Vec<f64>,
}

impl HostTimer {
    /// Starts timing now.
    pub fn start() -> Self {
        HostTimer {
            steal: steal_per_cpu(),
            start: Instant::now(),
        }
    }

    /// Seconds since [`HostTimer::start`], steal removed.
    pub fn seconds(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        let stolen = steal_per_cpu()
            .iter()
            .zip(&self.steal)
            .map(|(now, then)| now - then)
            .fold(0.0, f64::max);
        if stolen < wall {
            wall - stolen
        } else {
            wall
        }
    }
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds every thread of this process has used, including threads
/// that have ended.
pub fn process_cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock of the Linux kernel.
#[allow(unsafe_code)]
fn cpu_clock(clock: i32) -> f64 {
    /// `struct timespec` of a 64-bit Linux target.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of the 64-bit Linux targets this crate compiles for, and `clock` is
    // one of the two CPU-time clocks every Linux kernel provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_advances_with_work() {
        let t0 = thread_cpu_seconds();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        assert!(thread_cpu_seconds() > t0);
    }

    #[test]
    fn host_timer_never_exceeds_wall() {
        let wall = Instant::now();
        let t = HostTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let s = t.seconds();
        assert!(s > 0.0 && s <= wall.elapsed().as_secs_f64());
    }
}
