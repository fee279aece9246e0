//! Pin the harness to one CPU before anything is spawned.
//!
//! Unpinned, a one-connection proxy round trip on this 2-vCPU sandbox
//! bounces between CPUs on every wake-up and its throughput ranges 2× inside
//! one run (see README "Why pinned"). Threads inherit the affinity mask of
//! the thread that spawns them, so pinning the main thread first puts the
//! proxy, the executor pool and the client on the same CPU.

use std::io;

/// `cpu_set_t` is 1024 bits on Linux.
const MASK_WORDS: usize = 16;

/// `SCHED_BATCH` on Linux.
const SCHED_BATCH: i32 = 3;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte length passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restrict the calling thread (and every thread it spawns afterwards) to
/// the highest-numbered CPU it is allowed on; returns that CPU, read back
/// from the kernel.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let cpu = *allowed_cpus()?
        .last()
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the byte length passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    match allowed_cpus()?.as_slice() {
        [only] if *only == cpu => Ok(cpu),
        other => Err(io::Error::other(format!(
            "asked for CPU {cpu}, kernel reports {other:?}"
        ))),
    }
}

/// Put the calling thread (and every thread it spawns afterwards) under
/// `SCHED_BATCH`: a thread that wakes up does not preempt the one running.
/// On one CPU that makes a proxy round trip cost two context switches, every
/// time; under the default policy the client preempts the proxy's worker
/// between its response frames, or not, as the scheduler's accounting falls
/// (see README "Why SCHED_BATCH"). Needs no privilege.
pub fn set_batch_policy() -> io::Result<()> {
    // `struct sched_param` is one int, the static priority: 0 for this policy.
    let priority = 0i32;
    // SAFETY: `priority` is a live `sched_param`-shaped value for the call's
    // duration, and pid 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_spawned_after_pinning_inherits_the_one_cpu_mask() {
        // Affinity is per thread, so pinning this test's thread leaves the
        // other tests of the process alone.
        let cpu = pin_to_one_cpu().expect("pin");
        let child = std::thread::spawn(allowed_cpus).join().expect("join");
        assert_eq!(child.expect("child mask"), vec![cpu]);
    }
}
