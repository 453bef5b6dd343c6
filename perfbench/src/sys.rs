//! Process-level probes: CPU time (`getrusage`), peak resident memory
//! (`VmHWM`), and the build/machine fingerprint every run prints.

use std::time::Duration;

#[cfg(target_os = "linux")]
mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
    #[repr(C)]
    #[derive(Default, Clone, Copy)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub rest: [i64; 14],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// User + system CPU time of the whole process (every thread, live or
/// joined) so far.
#[cfg(target_os = "linux")]
pub fn process_cpu() -> Duration {
    let mut usage = ffi::Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for 64-bit
    // Linux (layout above), and RUSAGE_SELF is a valid `who`; getrusage
    // writes only into that struct.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let tv = |t: ffi::Timeval| Duration::new(t.tv_sec as u64, (t.tv_usec * 1000) as u32);
    tv(usage.ru_utime) + tv(usage.ru_stime)
}

/// CPU time is only probed on Linux; elsewhere the metric reads zero.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu() -> Duration {
    Duration::ZERO
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`), 0 when
/// the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free pages back to the system. A recovered
/// exchange lives for one recovery, between steps of the live one; without
/// this, the allocator keeps its freed pages scattered among the live
/// exchange's, and peak memory moves with how the two interleaved rather
/// than with what either holds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_memory() {
    // SAFETY: malloc_trim only walks the allocator's own free lists; it
    // takes no pointer from the caller and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Only glibc has `malloc_trim`; elsewhere this does nothing.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_memory() {}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set of up to 1024 CPUs, as `sched_{get,set}affinity` take it.
type CpuSet = [u64; 16];

/// Keeps the calling thread on the CPU it was running on, and with it every
/// thread it spawns meanwhile (threads inherit the set): the exchange's
/// drain workers then start on a CPU that is awake rather than waiting for
/// the other one to be woken, which on a shared VM takes as long as the
/// work itself. Dropping it restores the thread's previous CPU set.
pub struct Pin(Option<CpuSet>);

impl Pin {
    /// Pins the calling thread where it runs; does nothing when the CPU
    /// set cannot be read or written.
    #[cfg(target_os = "linux")]
    pub fn here() -> Pin {
        let mut before: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `before` is a writable CPU set of `size` bytes and pid 0
        // names the calling thread; sched_getaffinity writes only into it.
        if unsafe { sched_getaffinity(0, size, before.as_mut_ptr()) } != 0 {
            return Pin(None);
        }
        // SAFETY: sched_getcpu takes no arguments.
        let Ok(cpu) = usize::try_from(unsafe { sched_getcpu() }) else {
            return Pin(None);
        };
        let mut here: CpuSet = [0; 16];
        let Some(word) = here.get_mut(cpu / 64) else {
            return Pin(None);
        };
        *word |= 1 << (cpu % 64);
        // SAFETY: `here` is a readable CPU set of `size` bytes and pid 0
        // names the calling thread.
        let rc = unsafe { sched_setaffinity(0, size, here.as_ptr()) };
        Pin((rc == 0).then_some(before))
    }

    /// Pinning is only done on Linux.
    #[cfg(not(target_os = "linux"))]
    pub fn here() -> Pin {
        Pin(None)
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(before) = &self.0 {
            // SAFETY: `before` is the readable CPU set read in `here`, and
            // pid 0 names the calling thread.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), before.as_ptr()) };
        }
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line naming the machine and build that produced a result.
pub fn fingerprint() -> String {
    format!(
        "{{\"nproc\": {}, \"git_rev\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"}}",
        nproc(),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}
