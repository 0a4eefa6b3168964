//! Runs a child process to completion and reports its wall time, CPU time
//! and peak resident set, through `wait4(2)`.
//!
//! The kernel carries the resident-set high-water mark of the *spawning*
//! process into the child across `exec` (measured here: a parent that once
//! held 600 MiB makes every later child report ≥ 600 MiB). A process that
//! measures `max_rss_kib` of its children therefore has to stay small until
//! its last measured child has exited: the benchmark generates its inputs in
//! a child of its own and loads graphs for verification only after the
//! timed reps.

use oms_obs::Stopwatch;
use std::io;
use std::process::Command;

/// What one finished child cost.
#[derive(Clone, Copy, Debug)]
pub struct ChildUsage {
    /// Wall seconds from just before `spawn` to the return of `wait4`.
    pub wall_s: f64,
    /// User + system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set of the child in KiB (`ru_maxrss`).
    pub max_rss_kib: u64,
    /// Whether the child exited normally with code 0.
    pub success: bool,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s, of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    // std links libc already; this is the one symbol the bin needs from it.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Spawns `command`, waits for it and returns its usage.
pub fn run(command: &mut Command) -> io::Result<ChildUsage> {
    let clock = Stopwatch::start();
    let child = command.spawn()?;
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and of the layout
        // wait4 expects on this target (checked by the cfg above); `pid` is
        // a child of this process that nobody else waits for, because
        // `child` is never waited on through std.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = clock.seconds();
    // The pid is reaped; dropping the handle neither waits nor kills.
    drop(child);
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(ChildUsage {
        wall_s,
        cpu_s: seconds(&usage.ru_utime) + seconds(&usage.ru_stime),
        max_rss_kib: u64::try_from(usage.ru_maxrss).unwrap_or(0),
        // WIFEXITED(status) && WEXITSTATUS(status) == 0
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Not a test of its own: when `PIPELINE_TEST_ALLOC_MIB` is set, this is
    /// the body of the child that `child_peak_rss_is_reported` spawns (the
    /// test harness re-executed with a filter selecting only this function).
    #[test]
    fn allocating_child_helper() {
        let Some(mib) = std::env::var("PIPELINE_TEST_ALLOC_MIB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        else {
            return;
        };
        let mut block = vec![0u8; mib << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&block);
    }

    #[test]
    fn child_peak_rss_is_reported() {
        let exe = std::env::current_exe().unwrap();
        let usage = run(Command::new(exe)
            .args(["--exact", "child::tests::allocating_child_helper"])
            .env("PIPELINE_TEST_ALLOC_MIB", "64")
            .stdout(std::process::Stdio::null()))
        .unwrap();
        assert!(usage.success);
        let mib = usage.max_rss_kib as f64 / 1024.0;
        assert!(
            (64.0..=96.0).contains(&mib),
            "a child touching 64 MiB reported {mib:.1} MiB"
        );
        assert!(usage.wall_s > 0.0 && usage.cpu_s > 0.0);
    }

    #[test]
    fn failing_child_is_not_a_success() {
        let exe = std::env::current_exe().unwrap();
        let usage = run(Command::new(exe)
            .arg("--no-such-harness-flag")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null()))
        .unwrap();
        assert!(!usage.success);
    }
}
