//! A sampling profiler for a machine that has no `perf`: preload this
//! library (`LD_PRELOAD`) into a process and it records where that process's
//! CPU time goes. `scripts/profile.sh` drives it against the benchmark.
//!
//! When the library is loaded, an `.init_array` constructor checks
//! `SHARD_SAMPLER_OUT` (the file to write; unset = stay inert) and
//! `SHARD_SAMPLER_EXE` (if set, arm only in a process whose executable has
//! this file name — the preload is inherited by every child of the shell
//! that set it). Armed, it installs a `SIGPROF` handler and starts
//! `setitimer(ITIMER_PROF)`; each tick stores glibc's `backtrace()` frames
//! into a fixed static buffer. At exit it writes the process's file
//! mappings (`/proc/self/maps`, from which the reader takes each object's
//! load base) followed by one line of return addresses per sample,
//! innermost frame first.
//!
//! What it cannot see:
//!
//! - **Resolution.** The timer asks for 1 kHz and gets the kernel's tick —
//!   about 250 Hz here — so a 20 s run is ~5 000 samples and a function
//!   under 0.1 % is noise.
//! - **Inlined frames.** `backtrace()` walks real frames only; the reader
//!   (`addr2line -i`) attributes inlined callees from line tables, which is
//!   as good as the build's debug info.
//! - **Waiting.** `ITIMER_PROF` counts CPU time of the whole process: time
//!   blocked on a lock, a socket or a sleep is not sampled at all, and a
//!   tick lands on whichever thread was running.
//! - **More than [`MAX_SAMPLES`] samples or [`MAX_FRAMES`] frames**: later
//!   ticks and deeper callers are dropped (the sample count says so).
//!
//! `backtrace()` is not formally async-signal-safe: its first call loads the
//! unwinder and allocates, so one call is made before the handler is
//! installed; after that it only reads unwind tables.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use std::cell::UnsafeCell;
use std::ffi::{c_int, c_long, c_void};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Ticks kept (two minutes of one busy CPU at 250 Hz).
pub const MAX_SAMPLES: usize = 1 << 15;
/// Return addresses kept per tick, the handler's own two included.
pub const MAX_FRAMES: usize = 40;

const SIGPROF: c_int = 27;
const ITIMER_PROF: c_int = 2;
const TICK_MICROS: c_long = 1_000;

#[repr(C)]
struct TimeVal {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
struct ITimerVal {
    interval: TimeVal,
    value: TimeVal,
}

extern "C" {
    fn backtrace(buffer: *mut *mut c_void, size: c_int) -> c_int;
    /// glibc's `signal` has BSD semantics: the handler stays installed and
    /// interrupted system calls restart (`SA_RESTART`).
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    fn setitimer(which: c_int, new: *const ITimerVal, old: *mut ITimerVal) -> c_int;
    fn atexit(hook: extern "C" fn()) -> c_int;
    fn __errno_location() -> *mut c_int;
}

#[derive(Clone, Copy)]
struct Sample {
    depth: usize,
    frames: [*mut c_void; MAX_FRAMES],
}

struct Samples(UnsafeCell<[Sample; MAX_SAMPLES]>);

// SAFETY: a slot is written by exactly one handler invocation — the one
// that drew its index from `NEXT` — and read only by the exit hook, after
// the timer is stopped; the raw frame pointers are addresses, never
// dereferenced.
unsafe impl Sync for Samples {}

static SAMPLES: Samples = Samples(UnsafeCell::new(
    [Sample {
        depth: 0,
        frames: [std::ptr::null_mut(); MAX_FRAMES],
    }; MAX_SAMPLES],
));
/// Ticks seen, kept or not.
static NEXT: AtomicUsize = AtomicUsize::new(0);

extern "C" fn on_tick(_signum: c_int) {
    let i = NEXT.fetch_add(1, Ordering::Relaxed);
    if i >= MAX_SAMPLES {
        return;
    }
    // SAFETY: `i` is this invocation's alone (see `Samples`) and in bounds;
    // `backtrace` writes at most `MAX_FRAMES` pointers into the slot's
    // array; `__errno_location` returns this thread's errno, which the
    // interrupted code may be about to read.
    unsafe {
        let errno = *__errno_location();
        let slot = SAMPLES.0.get().cast::<Sample>().add(i);
        let frames = (&raw mut (*slot).frames).cast::<*mut c_void>();
        let depth = backtrace(frames, MAX_FRAMES as c_int);
        (*slot).depth = usize::try_from(depth).unwrap_or(0);
        *__errno_location() = errno;
    }
}

fn set_timer(micros: c_long) {
    let tick = || TimeVal {
        sec: 0,
        usec: micros,
    };
    let timer = ITimerVal {
        interval: tick(),
        value: tick(),
    };
    // SAFETY: `timer` is a valid `struct itimerval` for the call's duration
    // and the old value is not asked for.
    unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
}

extern "C" fn arm() {
    if std::env::var_os("SHARD_SAMPLER_OUT").is_none() {
        return;
    }
    if let Some(wanted) = std::env::var_os("SHARD_SAMPLER_EXE") {
        let exe = std::env::current_exe().ok();
        if exe.as_deref().and_then(|p| p.file_name()) != Some(&wanted) {
            return;
        }
    }
    let mut warm_up = [std::ptr::null_mut(); 4];
    // SAFETY: `backtrace` gets a buffer of the length it is told; the
    // handler and the exit hook are `extern "C"` functions that live as
    // long as this library, which is never unloaded.
    unsafe {
        backtrace(warm_up.as_mut_ptr(), warm_up.len() as c_int);
        atexit(write_out);
        signal(SIGPROF, on_tick);
    }
    set_timer(TICK_MICROS);
}

extern "C" fn write_out() {
    set_timer(0);
    let Some(path) = std::env::var_os("SHARD_SAMPLER_OUT") else {
        return;
    };
    let seen = NEXT.load(Ordering::Relaxed);
    let kept = seen.min(MAX_SAMPLES);
    let mut out = format!("samples {kept} ticks {seen}\n");
    for line in std::fs::read_to_string("/proc/self/maps")
        .unwrap_or_default()
        .lines()
    {
        // File mappings only: `lo-hi perms offset dev inode path`. The one
        // at offset 0 is the object's load base.
        let mut fields = line.split_whitespace();
        let (Some(range), Some(offset)) = (fields.next(), fields.nth(1)) else {
            continue;
        };
        if let Some(path) = fields.nth(2).filter(|p| p.starts_with('/')) {
            let _ = writeln!(out, "map {range} {offset} {path}");
        }
    }
    // SAFETY: the timer is stopped, so no handler writes any more; a tick
    // already in flight on another thread at most leaves its own slot
    // half-written, one sample in thousands.
    let samples = unsafe { std::slice::from_raw_parts(SAMPLES.0.get().cast::<Sample>(), kept) };
    for sample in samples {
        for frame in &sample.frames[..sample.depth.min(MAX_FRAMES)] {
            let _ = write!(out, "{:x} ", *frame as usize);
        }
        out.push('\n');
    }
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("shard-sampler: cannot write {path:?}: {e}");
    }
}

/// Run [`arm`] when the library is loaded, before the program's `main`.
#[used]
#[link_section = ".init_array"]
static ARM: extern "C" fn() = arm;
