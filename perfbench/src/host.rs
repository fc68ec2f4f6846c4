//! Host facts recorded with every report, the ambient knobs the harness
//! refuses, and the peak-RSS reading of the memory pass.

use crate::json::Json;
use std::process::Command;

/// Environment variables that would change what is measured behind the
/// harness's back. Parallelism is pinned with `with_threads` /
/// `with_workers`, never through the environment.
const REFUSED_ENV: &[&str] =
    &["CUBEBENCH_THREADS", "CUBERUN_WORKERS", "CUBEBENCH_INPLACE_MIN", "CUBERUN_STALL_TIMEOUT_MS"];

/// The first refused variable that is set, if any.
pub fn ambient_knob() -> Option<&'static str> {
    REFUSED_ENV.iter().copied().find(|var| std::env::var_os(var).is_some())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    cubesync::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The `host` object of the report.
pub fn facts(threads: usize) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("T", Json::Num(threads as f64)),
        ("par_threads", Json::Num(cubesim::par::num_threads() as f64)),
        ("cpu", Json::Str(cpu_model())),
        ("rustc", Json::Str(rustc_version())),
        ("os", Json::str(std::env::consts::OS)),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_host_facts() {
        assert!(peak_rss_mib().unwrap() > 1.0);
        let host = facts(2);
        assert!(host.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(host.get("rustc").and_then(Json::as_str).is_some());
    }
}
