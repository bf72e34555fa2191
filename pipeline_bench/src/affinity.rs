//! Spreads a run's serial work over every CPU the process may use.
//!
//! On a shared host each vCPU runs on a physical core that other tenants
//! also load, and the contention differs from vCPU to vCPU for a minute
//! at a time: two copies of the same extraction loop, one pinned to each
//! of two vCPUs, read 1.1–1.2 s and 1.5 s at the same moment. Left alone,
//! the scheduler keeps a busy thread on one vCPU for the whole run, so
//! the run's figure would be that one vCPU's. Moving the timing thread to
//! the next allowed CPU every round samples all of them alike.

/// CPUs a `cpu_set_t` holds.
const MAX_CPUS: usize = 1024;

/// `cpu_set_t` of the Linux C library.
#[repr(C)]
struct CpuSet {
    bits: [u64; MAX_CPUS / 64],
}

// The C library std already links on Linux.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending. Empty if the
/// kernel does not say.
pub fn allowed() -> Vec<usize> {
    let mut set = CpuSet { bits: [0; MAX_CPUS / 64] };
    // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MAX_CPUS).filter(|&c| set.bits[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restricts the calling thread to `cpus`; false if the kernel refuses
/// (the thread then keeps its mask).
pub fn pin(cpus: &[usize]) -> bool {
    let mut set = CpuSet { bits: [0; MAX_CPUS / 64] };
    for &c in cpus.iter().filter(|&&c| c < MAX_CPUS) {
        set.bits[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a live `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_each_allowed_cpu_and_back() {
        let all = allowed();
        assert!(!all.is_empty(), "no CPU allowed");
        for &c in &all {
            assert!(pin(&[c]), "could not pin to CPU {c}");
            assert_eq!(allowed(), vec![c]);
        }
        assert!(pin(&all));
        assert_eq!(allowed(), all);
    }
}
