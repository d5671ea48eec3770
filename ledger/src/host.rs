//! What the host did to the measurement: CPU pinning, time on CPU, memory.

use std::process::Command;

/// Hidden argument marking the re-executed, pinned process.
pub const PINNED_ARG: &str = "--pinned";

/// The last CPU this process may run on (CPU 0 takes most interrupts).
fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let last = list.trim().rsplit(',').next()?;
    last.rsplit('-').next()?.trim().parse().ok()
}

/// Re-executes this process under `taskset -c <one cpu>` and returns the
/// child's exit code, or `None` when pinning is unavailable (no
/// `taskset`, no `/proc`) and the caller should run unpinned.
///
/// On one core, wall time is the sum of every thread's CPU time, which
/// is what lets per-layer costs add up to the end-to-end row.
pub fn reexec_pinned(args: &[String]) -> Option<i32> {
    let cpu = last_allowed_cpu()?;
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(args)
        .arg(PINNED_ARG)
        .spawn()
        .ok()?;
    let status = child.wait().ok()?;
    Some(status.code().unwrap_or(1))
}

/// Nanoseconds all threads of this process have spent on a CPU.
pub fn on_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
