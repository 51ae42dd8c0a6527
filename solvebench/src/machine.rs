//! Machine header: what the numbers were measured on, including a
//! STREAM-triad bandwidth taken in the same run, and the computed bytes a
//! kernel moves, which that bandwidth divides.

use std::process::Command;
use std::time::Instant;

/// Cache sizes read from `/sys/devices/system/cpu/cpu0/cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caches {
    /// Level-2 cache bytes, if reported.
    pub l2: Option<u64>,
    /// Last-level cache bytes, if reported.
    pub llc: Option<u64>,
}

/// Parses a sysfs cache size such as `"2048K"` or `"105M"`.
pub fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// Reads the L2 and last-level data/unified cache sizes of cpu0.
pub fn read_caches() -> Caches {
    let mut l2 = None;
    let mut llc: Option<(u32, u64)> = None;
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_cache_size(&size)) else {
            continue;
        };
        if level == 2 {
            l2 = Some(size);
        }
        if llc.is_none_or(|(l, _)| level > l) {
            llc = Some((level, size));
        }
    }
    Caches {
        l2,
        llc: llc.map(|(_, s)| s),
    }
}

/// LLC assumed for sizing the triad when sysfs reports none.
pub const FALLBACK_LLC: u64 = 64 << 20;

/// Bytes of each triad array: four times the last-level cache, so no
/// array stays cache resident (the STREAM rule).
pub fn triad_array_bytes(caches: &Caches) -> u64 {
    4 * caches.llc.unwrap_or(FALLBACK_LLC)
}

/// STREAM triad `a = b + q·c` over three arrays of `bytes` each on one
/// thread; returns the best of five passes in bytes per second, counting
/// 24 bytes per element (two reads, one write) as STREAM does.
pub fn triad_bandwidth(bytes: u64) -> f64 {
    let n = usize::try_from(bytes / 8).expect("triad array fits in memory");
    let mut a = vec![1.0f64; n];
    let b = vec![2.0f64; n];
    let c = vec![0.5f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..5 {
        let q = 3.0 + pass as f64 * 1e-3;
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + q * ci;
        }
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    assert!(
        (a[n / 2] - (2.0 + (3.0 + 4e-3) * 0.5)).abs() < 1e-12,
        "triad produced a wrong value"
    );
    24.0 * n as f64 / best
}

/// Measures the triad in a child process of this executable, so the
/// workload process's peak RSS does not include the triad arrays.
pub fn triad_in_child(bytes: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--triad", &bytes.to_string()])
        .output()
        .map_err(|e| format!("triad child: {e}"))?;
    if !out.status.success() {
        return Err(format!("triad child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("triad child output: {e}"))
}

/// Computed bytes one SELL-C-σ SpMV moves: each stored entry (padding
/// included) once as an 8-byte value plus a 2-byte compressed column
/// index, the 8-byte row permutation, `x` read once and `y` written once.
/// The 2-byte index is the banded case every probe operator here hits; it
/// is a computed figure, not a measured one.
pub fn sell_spmv_bytes(n: usize, padded_nnz: usize) -> f64 {
    10.0 * padded_nnz as f64 + 8.0 * n as f64 + 16.0 * n as f64
}

/// The commit of the checkout, when the working directory is the root of
/// a git work tree (a checkout nested in another repository must not
/// report that repository's commit).
pub fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the CPU reports AVX2 (the SELL and SpMM kernels' fast path).
pub fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// First CPU of a `Cpus_allowed_list` such as `"0-1"` or `"3,5-7"`.
pub fn first_allowed_cpu(list: &str) -> Option<usize> {
    let digits: String = list
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Pins this process, and every thread it starts later, to the first CPU
/// it may run on (`taskset -a -cp`). A run that wants two CPUs at once
/// gets them only when the host's other guests leave both free, and on a
/// shared host that moved the 2-thread timings by up to 3× between runs;
/// on one CPU the ranks of the ranked workload take turns instead.
/// Returns the CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let cpu = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(first_allowed_cpu)
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let out = Command::new("taskset")
        .args([
            "-a",
            "-cp",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(cpu)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_cache_size("107520K"), Some(105 << 20));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("K"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn first_cpu_of_an_allowed_list() {
        assert_eq!(first_allowed_cpu("0-1"), Some(0));
        assert_eq!(first_allowed_cpu(" 3,5-7\n"), Some(3));
        assert_eq!(first_allowed_cpu("12"), Some(12));
        assert_eq!(first_allowed_cpu(""), None);
    }

    #[test]
    fn triad_arrays_are_four_llcs() {
        let c = Caches {
            l2: Some(2 << 20),
            llc: Some(105 << 20),
        };
        assert_eq!(triad_array_bytes(&c), 420 << 20);
        let none = Caches {
            l2: None,
            llc: None,
        };
        assert_eq!(triad_array_bytes(&none), 4 * FALLBACK_LLC);
    }

    #[test]
    fn sell_bytes_formula() {
        // 7-point Poisson 32³ without padding: 10 B per entry + 24 B per row.
        let n = 32 * 32 * 32;
        let nnz = 7 * n - 6 * 32 * 32;
        assert_eq!(sell_spmv_bytes(n, nnz), 10.0 * nnz as f64 + 24.0 * n as f64);
        // About 10 B/nnz plus vectors, as documented.
        let per_nnz = sell_spmv_bytes(n, nnz) / nnz as f64;
        assert!(per_nnz > 13.0 && per_nnz < 14.0, "{per_nnz}");
    }

    #[test]
    fn triad_counts_three_streams() {
        // A tiny triad still reports a positive, finite rate.
        let bw = triad_bandwidth(1 << 16);
        assert!(bw.is_finite() && bw > 0.0);
    }
}
