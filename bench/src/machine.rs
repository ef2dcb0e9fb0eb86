//! Facts about the host: peak memory of this process and the
//! fingerprint stored with a baseline.

use crate::json::Value;

/// `VmHWM` of this process in MB (0 where `/proc` does not say).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model name as `/proc/cpuinfo` gives it.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc -V` of the toolchain on the path (the one that built this
/// binary, unless the path changed since).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine fingerprint stored in result files.
pub fn fingerprint() -> Value {
    Value::obj()
        .with("cpu", cpu_model())
        .with("nproc", nproc())
        .with("rustc", rustc_version())
        .with("calib_ms", crate::calib::calib_ms())
}
