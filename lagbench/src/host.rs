//! Host facts recorded with every result, and the process's peak memory.

use std::path::{Path, PathBuf};

pub struct Host {
    pub cpus: usize,
    pub rev: String,
    pub rustc: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rev: git_rev(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
            rustc: rustc_version().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// A row with more jobs or shards than CPUs measures contention, not
    /// scaling.
    pub fn scaling_note(&self, parallelism: usize) -> &'static str {
        if parallelism > self.cpus {
            " non_scaling"
        } else {
            ""
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host: host_cpus={} rev={} rustc=\"{}\"",
            self.cpus, self.rev, self.rustc
        )
    }
}

/// The checked-out commit, read from `.git` in `root` itself (a checkout
/// without one reports `None`; parent directories are not searched).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage([i64; 18]);

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// Seconds on a CPU-time clock. These clocks read the scheduler's
    /// running total up to now (nanoseconds); `getrusage` would only see
    /// it as of the last tick or context switch.
    pub fn cpu_seconds(clock: i32) -> Option<f64> {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a writable `struct timespec` for this target and
        // `clock_gettime` writes only into it.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        (rc == 0).then(|| ts.sec as f64 + ts.nsec as f64 / 1e9)
    }

    /// This process's (user CPU seconds, system CPU seconds, peak RSS
    /// in KiB).
    pub fn rusage_self() -> Option<(f64, f64, i64)> {
        const RUSAGE_SELF: i32 = 0;
        let mut usage = RUsage([0; 18]);
        // SAFETY: `usage` is a writable buffer with the size and alignment
        // of `struct rusage` on this target; `getrusage` writes only into it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        let u = &usage.0;
        let seconds = |sec: i64, usec: i64| sec as f64 + usec as f64 / 1e6;
        (rc == 0).then(|| (seconds(u[0], u[1]), seconds(u[2], u[3]), u[4]))
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    pub fn cpu_seconds(_clock: i32) -> Option<f64> {
        None
    }

    pub fn rusage_self() -> Option<(f64, f64, i64)> {
        None
    }
}

/// CPU seconds used by the calling thread so far.
///
/// Timings are CPU time, not wall time, wherever the measured work runs
/// on threads the benchmark can account for: this is a shared virtual
/// machine whose vCPUs lose time to other guests ("steal", up to a
/// quarter of all CPU time in observed runs). The kernel accounts steal
/// apart from task time, so CPU time excludes it; wall time does not.
pub fn thread_cpu_s() -> f64 {
    sys::cpu_seconds(sys::CLOCK_THREAD_CPUTIME_ID).unwrap_or(f64::NAN)
}

/// CPU seconds used by every thread of this process so far.
pub fn process_cpu_s() -> f64 {
    sys::cpu_seconds(sys::CLOCK_PROCESS_CPUTIME_ID).unwrap_or(f64::NAN)
}

/// (user, system) CPU seconds used by this process so far.
pub fn process_user_sys_s() -> (f64, f64) {
    sys::rusage_self().map_or((f64::NAN, f64::NAN), |(user, sys, _)| (user, sys))
}

/// Peak resident set size of this process in MiB. Every workload runs
/// in this one process (gateway shards are in-process), so this covers
/// all the work.
pub fn peak_rss_mb() -> Option<f64> {
    sys::rusage_self().map(|(_, _, kib)| kib as f64 / 1024.0)
}

/// Scratch space for one run, inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(out: &Path, tag: &str) -> std::io::Result<WorkDir> {
        let dir = out.join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
