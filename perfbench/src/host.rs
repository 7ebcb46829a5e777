//! Host readings from `/proc` and the provenance block every result carries.
//!
//! Linux only: CPU time, peak RSS and the allowed-CPU count come from
//! `/proc/self`, which keeps the benchmark free of a libc dependency.

use hyppi_netsim::json::{Json, Obj};
use std::path::Path;

/// Clock ticks per second of the `/proc/self/stat` CPU counters
/// (`USER_HZ`, 100 on every mainstream Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `) `.
    let rest = &stat[stat.rfind(')').expect("stat line has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("stat CPU field is an integer") as f64
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// A `kB` line of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("/proc/self/status has no {key} line"));
    let kb: u64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("status memory field is an integer");
    kb as f64 / 1024.0
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resets the peak-RSS high-water mark to the current RSS (Linux 4.0+).
/// Returns false where the kernel refuses; `VmHWM` then keeps the
/// process's peak so far.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPUs this process may run on (what `nproc` prints): the size of
/// `Cpus_allowed_list` in `/proc/self/status`.
pub fn nproc() -> usize {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .expect("/proc/self/status has a Cpus_allowed_list line");
    list.trim()
        .split(',')
        .map(|range| match range.split_once('-') {
            Some((a, b)) => {
                let a: usize = a.parse().expect("CPU range start is an integer");
                let b: usize = b.parse().expect("CPU range end is an integer");
                b - a + 1
            }
            None => 1,
        })
        .sum()
}

/// `std::thread::available_parallelism`, which also honours cgroup quotas.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The commit of the checkout, read from `.git` without running git; the
/// benchmark usually runs from an exported tree, which has none.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host and provenance block of one result.
pub fn provenance(workload: &str, seed: u64, threads: &[(&str, usize)]) -> Json {
    let used = threads
        .iter()
        .fold(Obj::new(), |o, &(name, t)| o.field(name, t))
        .build();
    Obj::new()
        .field("workload", workload)
        .field("seed", seed)
        .field("nproc", nproc())
        .field("available_parallelism", available_parallelism())
        .field("threads", used)
        .field("git_commit", git_commit())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
