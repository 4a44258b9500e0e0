//! Host facts recorded with every run, and process memory.

use std::path::Path;

use crate::report::Report;

/// Records CPU model, SIMD level, hardware threads and OS in `report`.
pub fn record(report: &mut Report) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    report.note("host.cpu", cpu);
    report.note("host.simd", mdz_core::kernel::detected_level().name());
    report.note("host.threads", threads().to_string());
    report.note("host.os", format!("{} {}", std::env::consts::OS, release.trim()));
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `VmHWM`: since the last [`reset_peak_rss`], or since the process
/// started. `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Returns freed heap pages to the OS where the C library allows it, then
/// lowers the peak resident set size to the current one (Linux 4.0 and
/// later), so that [`peak_rss_mb`] covers only what runs after this call
/// and not memory that earlier work freed. Returns whether the reset took
/// effect.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free memory.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Filesystem type holding `path`: the longest mount point that prefixes it
/// in `/proc/self/mountinfo`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent major:minor root mount-point options ... - fstype source ...
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else { continue };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
