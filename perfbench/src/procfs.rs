//! CPU time and peak resident memory of a process, read from `/proc`.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 for user space).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid` (`"self"`
/// for this one), summed over all its threads, living and exited.
///
/// # Errors
///
/// The process is gone or its stat line is malformed.
pub fn cpu_s(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("stat line without a command")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("/proc/{pid}/stat: no field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
///
/// # Errors
///
/// The process is gone or reports no `VmHWM`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    status_mb(pid, "VmHWM:")
}

/// Current resident set size (`VmRSS`) of process `pid`, in MiB.
///
/// # Errors
///
/// The process is gone or reports no `VmRSS`.
pub fn rss_mb(pid: &str) -> Result<f64, String> {
    status_mb(pid, "VmRSS:")
}

fn status_mb(pid: &str, field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status: no {field}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_reports_cpu_and_memory() {
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s("self").unwrap() > 0.0);
        let rss = rss_mb("self").unwrap();
        assert!(rss > 0.0);
        assert!(
            peak_rss_mb("self").unwrap() >= rss,
            "the peak read later covers the earlier size"
        );
        assert!(cpu_s("0").is_err());
    }
}
