//! Steal-free timing.
//!
//! On a shared virtual machine the hypervisor takes a vCPU away for
//! milliseconds at a time ("steal"). Wall time then measures the
//! neighbours as much as the program, and run-to-run spread swamps any
//! change worth detecting. So every benchmark time excludes steal:
//!
//! - an interval run on one thread is read on that thread's CPU clock,
//!   which under paravirtual time accounting stops while the vCPU is
//!   stolen;
//! - an interval that keeps several threads busy is wall time minus
//!   the steal the kernel reports for the vCPUs over it (in `/proc/stat`
//!   ticks), divided by the number of busy threads.
//!
//! On a dedicated host both equal wall time for CPU-bound work. Linux
//! only, like the rest of the benchmark (it reads `/proc`).

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// `/proc/stat` counts in `USER_HZ` ticks, fixed at 100 by the kernel ABI.
const USER_HZ: f64 = 100.0;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two i64
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Steal time of all vCPUs since boot, in seconds.
pub fn steal_s() -> f64 {
    let ticks: u64 = std::fs::read_to_string("/proc/stat")
        .map(|s| {
            s.lines()
                .filter(|l| {
                    l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit)
                })
                .filter_map(|l| l.split_whitespace().nth(8)?.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    ticks as f64 / USER_HZ
}

/// Times `f` on the calling thread's CPU clock; returns its result and
/// the seconds it took.
pub fn on_cpu<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = thread_cpu_s();
    let out = f();
    (out, thread_cpu_s() - t0)
}

/// Times `f`, which keeps `busy` threads running, as wall time less the
/// steal over it shared among those threads.
pub fn wall_less_steal<T>(busy: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let (s0, t0) = (steal_s(), Instant::now());
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let stolen = (steal_s() - s0) / busy.max(1) as f64;
    (out, (wall - stolen).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_clock_advances_with_work_only() {
        let (_, busy) = on_cpu(|| {
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i * i));
            }
            x
        });
        let (_, idle) = on_cpu(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(busy > 0.0);
        assert!(idle < 0.01, "sleeping costs no CPU time: {idle}");
        assert!(steal_s() >= 0.0);
    }
}
