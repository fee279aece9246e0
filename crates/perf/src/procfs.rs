//! What `/proc` says about this process: CPU time, thread hand-offs, memory.

use std::fs;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User + system CPU time of the whole process, in microseconds
/// (`/proc/self/stat` utime + stime, one tick = 10 ms on this kernel).
pub fn cpu_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ")".
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let field = |n: usize| -> u64 {
        after_comm
            .split_ascii_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse().ok())
            .expect("numeric stat field")
    };
    // SAFETY: sysconf takes no pointers and has no preconditions.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    (field(14) + field(15)) * 1_000_000 / ticks_per_s
}

fn status_value(status: &str, key: &str) -> Option<String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Voluntary context switches summed over the process's live threads: each
/// is a thread giving up the CPU to wait for another.
pub fn voluntary_ctx_switches() -> u64 {
    fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|entry| fs::read_to_string(entry.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            status_value(&status, "voluntary_ctxt_switches")?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status_value(&status, "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM");
    kb / 1024.0
}

/// The calling thread's `Cpus_allowed_list`, as the kernel prints it.
pub fn cpus_allowed_list() -> String {
    let status =
        fs::read_to_string("/proc/thread-self/status").expect("read /proc/thread-self/status");
    status_value(&status, "Cpus_allowed_list").expect("Cpus_allowed_list")
}
