//! Thread CPU time, the clock every serial timing reads.
//!
//! On a virtual machine the hypervisor deschedules vCPUs ("steal"). Wall
//! time counts those gaps; the thread's CPU time does not. On one shared
//! 2-vCPU host, steal grew from 9% to 26% of a busy vCPU over seven
//! back-to-back runs: the runs' median extraction wall times spread by
//! 19% while their median CPU times spread by 8%, 2% without the first.
//! On an idle host both clocks read the same for serial code.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clock reads CLOCK_THREAD_CPUTIME_ID through the 64-bit Linux ABI");

/// `struct timespec` of the 64-bit Linux ABI.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// The C library std already links on Linux.
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // the clock id is the kernel's per-thread CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A started stopwatch on this thread's CPU clock.
#[derive(Clone, Copy)]
pub struct CpuTimer(u64);

impl CpuTimer {
    pub fn start() -> CpuTimer {
        CpuTimer(thread_ns())
    }

    pub fn secs(self) -> f64 {
        (thread_ns() - self.0) as f64 * 1e-9
    }

    pub fn us(self) -> f64 {
        (thread_ns() - self.0) as f64 * 1e-3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn counts_work_but_not_sleep() {
        let t = CpuTimer::start();
        let w = Instant::now();
        let mut x = 0_u64;
        while w.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = t.secs();
        assert!(busy > 0.01, "30 ms of spinning read as {busy} s");
        let t = CpuTimer::start();
        std::thread::sleep(Duration::from_millis(50));
        let slept = t.secs();
        assert!(slept < 0.01, "50 ms asleep read as {slept} s of CPU");
    }
}
