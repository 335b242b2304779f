//! # gables-soc-sim
//!
//! An execution-driven, rate-based SoC simulator — the substrate this
//! reproduction substitutes for the Qualcomm Snapdragon 835/821 hardware
//! the Gables paper (HPCA 2019) benchmarks (see the repository DESIGN.md).
//!
//! The simulator models IP blocks (compute engine + private caches +
//! optional scratchpad + a port onto an interconnect fabric), the fabrics,
//! and a DRAM controller whose bandwidth is shared among all concurrently
//! active IPs under max-min arbitration. It executes the paper's
//! Algorithm-1 roofline microbenchmark and the Section IV-C CPU/GPU
//! "mixing" experiment.
//!
//! ## Example
//!
//! ```
//! use gables_soc_sim::{presets, Job, RooflineKernel, Simulator};
//!
//! let sim = Simulator::new(presets::snapdragon_835_like())?;
//! let run = sim.run(&[Job {
//!     ip: presets::CPU,
//!     kernel: RooflineKernel::dram_resident(1024),
//! }])?;
//! // Compute-bound at the calibrated 7.5 GFLOPS/s ceiling.
//! assert!((run.jobs[0].achieved_flops_per_sec / 1e9 - 7.5).abs() < 0.1);
//! # Ok::<(), gables_soc_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbiter;
pub mod cache_sim;
pub mod config;
pub mod energy;
pub mod engine;
pub mod error;
pub mod kernel;
pub mod presets;
pub mod run;
pub mod telemetry;
pub mod thermal;
pub mod trace;

pub use arbiter::ArbiterPolicy;
pub use cache_sim::{
    measure_bandwidth_ladder, sweep_block_sizes, BlockSweepPoint, HierarchyConfig, HierarchySim,
    HierarchyStats, LevelBandwidth, LevelConfig, LevelStats, ReplacementPolicy,
};
pub use config::{SocConfig, TrafficPattern};
pub use engine::{Job, JobResult, RunResult, ServedFrom, Simulator};
pub use error::SimError;
pub use kernel::RooflineKernel;
pub use run::{
    gables_jobs, run_gables_batch, run_gables_workload, run_serialized, run_single,
    CoordinationOverhead, MixHarness, MixPoint, SerializedRun,
};
pub use telemetry::{
    BindingConstraint, BottleneckBreakdown, Epoch, EpochFlow, NullRecorder, Recorder,
    TimelineRecorder,
};

#[cfg(test)]
mod invariant_tests {
    //! Invariants from DESIGN.md: the simulator never exceeds its
    //! configured rooflines, and agrees with the analytical model on
    //! cacheless single-IP runs. Deterministic seeded sweeps stand in for
    //! the original property-based tests (no registry deps offline).

    use gables_model::rng::SplitMix64;

    use crate::config::TrafficPattern;
    use crate::engine::{Job, Simulator};
    use crate::kernel::RooflineKernel;
    use crate::presets;

    fn random_kernel(rng: &mut SplitMix64) -> RooflineKernel {
        let patterns = [
            TrafficPattern::ReadModifyWrite,
            TrafficPattern::StreamCopy,
            TrafficPattern::StreamRead,
        ];
        let bytes = rng.range_u64(64 << 10, 64 << 20);
        RooflineKernel {
            trials: rng.range_u64(1, 3),
            words: bytes / 4,
            word_bytes: 4,
            flops_per_word: rng.range_u64(1, 2047) as u32,
            pattern: patterns[rng.range_usize(0, patterns.len() - 1)],
            data_type: crate::kernel::DataType::Fp32,
        }
    }

    /// No job ever exceeds its engine peak or its DRAM-path ceiling.
    #[test]
    fn rooflines_are_respected() {
        let mut rng = SplitMix64::new(0x50C5);
        let sim = Simulator::new(presets::snapdragon_835_like()).unwrap();
        for _ in 0..64 {
            let kernel = random_kernel(&mut rng);
            let ip = rng.range_usize(0, 2);
            let run = sim.run(&[Job { ip, kernel }]).unwrap();
            let job = &run.jobs[0];
            let cfg = &sim.soc().ips[ip];
            assert!(
                job.achieved_flops_per_sec <= cfg.engine.peak_ops_per_sec() * (1.0 + 1e-9),
                "{kernel:?} on IP {ip}"
            );
            if job.served_from == crate::engine::ServedFrom::Dram {
                let path = cfg.port_bandwidth * cfg.pattern_efficiency.factor(kernel.pattern);
                assert!(
                    job.achieved_bytes_per_sec <= path * (1.0 + 1e-9),
                    "{kernel:?} on IP {ip}"
                );
                assert!(
                    job.achieved_bytes_per_sec
                        <= sim.soc().dram.effective_bandwidth() * (1.0 + 1e-9),
                    "{kernel:?} on IP {ip}"
                );
            }
        }
    }

    /// On a cacheless SoC built from a Gables spec, a single-IP run
    /// achieves exactly min(peak, Bi·I) — the IP's roofline.
    #[test]
    fn single_ip_matches_analytical_roofline() {
        use gables_model::two_ip::TwoIpModel;
        let spec = TwoIpModel::figure_6a().soc().unwrap();
        let sim = Simulator::new(presets::from_gables_spec(&spec)).unwrap();
        let mut rng = SplitMix64::new(0x51A7);
        for _ in 0..64 {
            let fpw = rng.range_u64(1, 4095) as u32;
            let kernel = RooflineKernel::dram_resident(fpw);
            let run = sim.run(&[Job { ip: 0, kernel }]).unwrap();
            let i = kernel.intensity();
            let expected = (40.0e9f64).min(6.0e9 * i);
            let got = run.jobs[0].achieved_flops_per_sec;
            assert!(
                (got - expected).abs() / expected < 1e-6,
                "I={i}: expected {expected}, got {got}"
            );
        }
    }
}
