//! Peak resident memory from `/proc` (Linux).

/// Resets the process's peak-RSS mark to its current RSS. Where the
/// kernel refuses, the peak stays the process-lifetime one.
pub fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MB (10⁶ bytes); `None` where `/proc` is unavailable.
pub fn peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}
