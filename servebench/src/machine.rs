//! Machine metadata recorded with every result.

use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Machine {
    /// CPUs this process may run on, as `nproc` reports them.
    pub nproc: usize,
    /// `std::thread::available_parallelism()`.
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub kernel: String,
    /// Median time of one step of a fixed pure-CPU loop, ns.
    pub calibration_ns: f64,
}

impl Machine {
    pub fn probe() -> Self {
        let available_parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let nproc = std::process::Command::new("nproc")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok()?.trim().parse().ok())
            .unwrap_or(available_parallelism);
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim())
            })
            .unwrap_or("unknown")
            .to_string();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Self {
            nproc,
            available_parallelism,
            cpu_model,
            kernel,
            calibration_ns: calibrate(),
        }
    }

    /// Whether the two CPU counts disagree (a cgroup quota or affinity
    /// mask the standard library reads differently from `nproc`).
    pub fn cpu_counts_disagree(&self) -> bool {
        self.nproc != self.available_parallelism
    }
}

/// A dependent chain of integer mixing steps: no memory traffic, no
/// allocation, so it tracks only the core's speed.
fn calibrate() -> f64 {
    const STEPS: u64 = 2_000_000;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
