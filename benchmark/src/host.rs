//! The host record printed beside every result, the build-parity guard, and
//! the two roofline probes (multiply-add peak, stream triad).

use std::hint::black_box;
use std::time::Instant;

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runtime workers every workload uses.
pub fn workers() -> usize {
    available_parallelism().min(4)
}

/// One line naming the machine and build a result came from.
pub fn record(workers: usize, smoke: bool) -> String {
    format!(
        "host: available_parallelism={} workers={} profile={} arch={} os={}{}",
        available_parallelism(),
        workers,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::env::consts::ARCH,
        std::env::consts::OS,
        if smoke {
            " SMOKE (sizes mean nothing)"
        } else {
            ""
        }
    )
}

/// The `key = value` lines of one `[section]` of a manifest, whitespace
/// and comments stripped, sorted.
fn manifest_section(toml: &str, section: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut inside = false;
    for raw in toml.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == format!("[{section}]");
        } else if inside && !line.is_empty() {
            lines.push(line.split_whitespace().collect::<String>());
        }
    }
    lines.sort();
    lines
}

/// Errors unless both manifests give `[profile.release]` the same keys: a
/// foreign workspace's profile is ignored, so this package has to repeat
/// the root's and must not drift from it.
pub fn profile_parity(root_toml: &str, bench_toml: &str) -> Result<(), String> {
    let root = manifest_section(root_toml, "profile.release");
    let bench = manifest_section(bench_toml, "profile.release");
    if root == bench {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: root has {root:?}, benchmark has {bench:?}"
        ))
    }
}

/// Refuses a build that does not measure what users run: a debug build, or
/// a release profile that differs from the repository's.
pub fn refuse_foreign_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("debug build: run with --release (only --smoke runs unoptimized)".into());
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    profile_parity(
        &read(dir.join("../Cargo.toml"))?,
        &read(dir.join("Cargo.toml"))?,
    )
}

const LANES: usize = 32;

/// One thread's multiply-add rate in GF/s: `LANES` independent `a·b + c`
/// chains, enough to cover the add latency at any vector width the build
/// targets. This is the peak of *this build* (baseline x86-64 has no fused
/// multiply-add), which is the ceiling the `exa-linalg` kernels compile
/// against.
fn fma_thread_gflops(seconds: f64) -> f64 {
    let mut acc = [1.0f64; LANES];
    let b: [f64; LANES] = std::array::from_fn(|i| 1.0 + 1e-9 * i as f64);
    let c = black_box(1e-12);
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        for _ in 0..4096 {
            for i in 0..LANES {
                acc[i] = acc[i] * b[i] + c;
            }
        }
        iters += 4096;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    black_box(acc);
    2.0 * LANES as f64 * iters as f64 / elapsed / 1e9
}

/// Multiply-add peak over `threads` concurrent threads, GF/s.
pub fn fma_peak_gflops(threads: usize, seconds: f64) -> f64 {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(move || fma_thread_gflops(seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fma probe thread"))
            .sum()
    })
}

/// f64 elements per triad array: 3 × 64 MiB in flight, 8× the 2 × 4 MiB of
/// L2 this host reports. Its L3 belongs to the hypervisor's socket and is
/// shared with other guests, so it is not counted as this run's cache.
pub const TRIAD_ELEMS: usize = 8 << 20;

/// Stream triad `a = b + s·c` over `threads` threads, GB/s (24 bytes per
/// element: two reads, one write).
pub fn triad_gbs(threads: usize, elems: usize, repeats: usize) -> f64 {
    let mut a = vec![0.0f64; elems];
    let b = vec![1.0f64; elems];
    let c = vec![2.0f64; elems];
    let chunk = elems.div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
    }
    black_box(&a);
    24.0 * elems as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_ignores_comments_and_spacing_but_not_values() {
        let root = "[package]\nname='x'\n[profile.release]\n# why\nlto = \"thin\"\n[profile.test]\nopt-level=2\n";
        let same = "[profile.release]\nlto=\"thin\"  # repeated\n";
        let other = "[profile.release]\nlto = \"fat\"\n";
        assert!(profile_parity(root, same).is_ok());
        assert!(profile_parity(root, other).is_err());
        assert!(profile_parity(root, "[package]\n").is_err());
    }
}
