//! Placement of the benchmark's threads on CPUs.
//!
//! Every round runs on one CPU: the serving workload's client, reactor
//! and shard threads then hand requests to each other on that CPU
//! instead of waking each other across CPUs, which on a small virtual
//! machine varies from run to run. Successive rounds take the allowed
//! CPUs in turn, because on the test host each vCPU is slowed down by
//! the host on its own schedule (see [`crate::run`]): one round in two
//! is placed on each, so a run is not wholly slow because one vCPU was.

/// The CPUs this process may run on, in ascending order; empty where
/// the platform does not say.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    // Room for 1024 CPUs, the size glibc's `cpu_set_t` uses.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is valid for writes of `size_of_val(&mask)` bytes,
    // the size passed, and the kernel writes no more than that.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread, and so every thread it spawns later, to
/// `cpu`. Returns whether the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut one = [0u64; 16];
    if cpu >= one.len() * 64 {
        return false;
    }
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is valid for reads of the size passed; the kernel
    // only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    rc == 0
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> bool {
    false
}
