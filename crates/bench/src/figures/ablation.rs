//! Ablation studies of the reproduction's own design choices (DESIGN.md)
//! plus the paper's cross-platform claim.
//!
//! * [`ablation_arbiter`] — max-min vs proportional DRAM arbitration on
//!   the Figure 8 experiment (does the conclusion depend on the arbiter?).
//! * [`ablation_thermal`] — the thermal chamber assumption: what the
//!   Figure 7a CPU ceiling would look like without it.
//! * [`soc_821`] — the Snapdragon-821-like preset: "our findings hold
//!   true for both systems" (Section IV-A).
//! * [`energy_budget`] — the 3 W TDP motivation of Section I, accounted
//!   on simulator runs.
//! * [`measured_miss_ratios`] — Section V-A's `mi` measured from traces
//!   with the 3C cache simulator instead of assumed.

use gables_ert::{measure, SweepConfig};
use gables_model::ext::sram::MemorySideSram;
use gables_model::two_ip::TwoIpModel;
use gables_model::units::MissRatio;
use gables_soc_sim::cache_sim::{
    measure_miss_ratio, CacheConfig, HierarchyConfig, HierarchySim, LevelConfig, ReplacementPolicy,
};
use gables_soc_sim::energy::EnergyModel;
use gables_soc_sim::thermal::ThermalConfig;
use gables_soc_sim::trace::TracePattern;
use gables_soc_sim::{presets, ArbiterPolicy, Job, MixHarness, RooflineKernel, Simulator};

use crate::report::Report;

/// Arbiter-policy ablation: the Figure 8 endpoints under max-min vs
/// proportional DRAM sharing.
pub fn ablation_arbiter() -> Report {
    let mut rep = Report::new(
        "ablation_arbiter",
        "DRAM arbitration policy ablation on the Figure 8 sweep",
    );
    rep.line("policy        f     I     normalized perf");
    let mut endpoints = Vec::new();
    for (name, policy) in [
        ("maxmin", ArbiterPolicy::MaxMin),
        ("proportional", ArbiterPolicy::Proportional),
    ] {
        let sim = Simulator::new(presets::snapdragon_835_like())
            .expect("valid preset")
            .with_policy(policy);
        let harness = MixHarness::new(&sim, presets::CPU, presets::GPU);
        let k1 = harness.kernel_at_intensity(1.0).expect("representable");
        let k1024 = harness.kernel_at_intensity(1024.0).expect("representable");
        let base = harness.run(k1, 0.0).expect("runs").flops_per_sec;
        for (kernel, intensity, f) in [(k1, 1.0, 0.5), (k1, 1.0, 1.0), (k1024, 1024.0, 1.0)] {
            let p = harness.run(kernel, f).expect("runs").flops_per_sec / base;
            rep.line(format!("{name:<12} {f:<5} {intensity:<5} {p:>10.3}"));
            endpoints.push((name, intensity, f, p));
        }
    }
    // The headline conclusions are arbiter-invariant: high-I offload wins
    // big under both policies, low-I full offload loses under both.
    let speedup = |name: &str, i: f64, f: f64| {
        endpoints
            .iter()
            .find(|(n, ii, ff, _)| *n == name && *ii == i && *ff == f)
            .map(|(_, _, _, p)| *p)
            .expect("endpoint recorded")
    };
    rep.row(
        "I=1024 f=1 speedup ratio (prop/maxmin)",
        1.0,
        speedup("proportional", 1024.0, 1.0) / speedup("maxmin", 1024.0, 1.0),
    );
    rep.line(format!(
        "low-I slowdown holds under both policies: maxmin {:.3}, proportional {:.3}",
        speedup("maxmin", 1.0, 1.0),
        speedup("proportional", 1.0, 1.0)
    ));
    rep
}

/// Thermal ablation: the sustained CPU ceiling with and without the
/// paper's thermal chamber.
pub fn ablation_thermal() -> Report {
    let mut rep = Report::new(
        "ablation_thermal",
        "Why the paper benchmarks in a thermal chamber",
    );
    let long = RooflineKernel {
        trials: 400,
        ..RooflineKernel::dram_resident(1024)
    };
    let chamber = Simulator::new(presets::snapdragon_835_like()).expect("valid preset");
    let cool = chamber
        .run(&[Job {
            ip: presets::CPU,
            kernel: long,
        }])
        .expect("runs");
    let phone = Simulator::new(presets::snapdragon_835_like())
        .expect("valid preset")
        .with_thermal(ThermalConfig::phone_default());
    let hot = phone
        .run(&[Job {
            ip: presets::CPU,
            kernel: long,
        }])
        .expect("runs");
    rep.row(
        "chamber: sustained CPU GFLOPS/s",
        7.5,
        cool.jobs[0].achieved_flops_per_sec / 1e9,
    );
    rep.line(format!(
        "throttled: sustained {:.2} GFLOPS/s at peak junction {:.1} C",
        hot.jobs[0].achieved_flops_per_sec / 1e9,
        hot.peak_temperature_c.expect("thermal model on")
    ));
    rep.line("without thermal control the measured 'roofline' would be a moving target —");
    rep.line("the paper's methodology note reproduced mechanically.");
    rep
}

/// The Snapdragon-821-like preset: same qualitative findings (Section
/// IV-A's "our findings hold true for both systems").
pub fn soc_821() -> Report {
    let mut rep = Report::new("soc_821", "Cross-check on the Snapdragon-821-like preset");
    let sim = Simulator::new(presets::snapdragon_821_like()).expect("valid preset");
    let cpu = measure(&sim, presets::CPU, &SweepConfig::cpu_default()).expect("sweeps");
    let gpu = measure(&sim, presets::GPU, &SweepConfig::gpu_default()).expect("sweeps");
    let dsp = measure(&sim, presets::DSP, &SweepConfig::cpu_default()).expect("sweeps");
    rep.line(format!("CPU: {cpu}"));
    rep.line(format!("GPU: {gpu}"));
    rep.line(format!("DSP: {dsp}"));

    let harness = MixHarness::new(&sim, presets::CPU, presets::GPU);
    let k1 = harness.kernel_at_intensity(1.0).expect("representable");
    let k1024 = harness.kernel_at_intensity(1024.0).expect("representable");
    let base = harness.run(k1, 0.0).expect("runs").flops_per_sec;
    let low = harness.run(k1, 1.0).expect("runs").flops_per_sec / base;
    let high = harness.run(k1024, 1.0).expect("runs").flops_per_sec / base;
    rep.line(format!(
        "mixing endpoints: I=1 f=1 -> {low:.3}x, I=1024 f=1 -> {high:.1}x"
    ));
    // The qualitative findings, encoded as anchors of 1.0 = "holds".
    rep.row(
        "821: GPU >> CPU peak",
        1.0,
        f64::from(gpu.peak_gflops > 10.0 * cpu.peak_gflops),
    );
    rep.row(
        "821: DSP on slow fabric (< CPU bw)",
        1.0,
        f64::from(dsp.dram_gbps < cpu.dram_gbps),
    );
    rep.row("821: low-I offload slows down", 1.0, f64::from(low < 1.0));
    rep.row(
        "821: high-I offload speeds up >10x",
        1.0,
        f64::from(high > 10.0),
    );
    rep
}

/// Energy accounting under the 3 W thermal design point the paper's
/// introduction motivates.
pub fn energy_budget() -> Report {
    let mut rep = Report::new(
        "energy_budget",
        "Energy/TDP accounting (Section I motivation)",
    );
    let soc = presets::snapdragon_835_like();
    let sim = Simulator::new(soc.clone()).expect("valid preset");
    let model = EnergyModel::snapdragon_835_like();
    rep.line("workload                      GFLOPS/s     watts  ops/nJ   fits 3 W?");
    let mut cpu_eff = 0.0;
    let mut gpu_eff = 0.0;
    for (name, ip, fpw) in [
        ("CPU scalar FP (I=128)", presets::CPU, 1024u32),
        ("GPU stream FP (I=128)", presets::GPU, 1024),
        ("DSP scalar FP (I=128)", presets::DSP, 1024),
        ("CPU streaming (I=0.125)", presets::CPU, 1),
    ] {
        let kernel = if ip == presets::GPU {
            RooflineKernel {
                pattern: gables_soc_sim::TrafficPattern::StreamCopy,
                ..RooflineKernel::dram_resident(fpw)
            }
        } else {
            RooflineKernel::dram_resident(fpw)
        };
        let run = sim.run(&[Job { ip, kernel }]).expect("runs");
        let report = model.account(&soc, &run).expect("accounts");
        if name.starts_with("CPU scalar") {
            cpu_eff = report.ops_per_joule;
        }
        if name.starts_with("GPU") {
            gpu_eff = report.ops_per_joule;
        }
        rep.line(format!(
            "{name:<28} {:>9.1} {:>9.2} {:>7.2}   {}",
            run.jobs[0].achieved_flops_per_sec / 1e9,
            report.average_watts,
            report.ops_per_joule / 1e9,
            if report.within_tdp(3.0) { "yes" } else { "NO" }
        ));
    }
    // Section II: IPs deliver "an order of magnitude improvement in
    // performance and power efficiency" vs the AP.
    rep.row(
        "GPU/CPU efficiency ratio (order of magnitude)",
        10.0,
        gpu_eff / cpu_eff,
    );
    rep
}

/// Section V-A `mi` measured from reference traces via the 3C cache
/// simulator, then fed into the SRAM extension on Figure 6b.
pub fn measured_miss_ratios() -> Report {
    let mut rep = Report::new(
        "measured_miss_ratios",
        "SRAM-extension miss ratios measured with the 3C cache model",
    );
    let sram = CacheConfig {
        capacity_bytes: 512 << 10,
        line_bytes: 64,
        associativity: 16,
    };
    rep.line("pattern                               measured mi   Fig6b Pattainable");
    let model = TwoIpModel::figure_6b();
    let soc = model.soc().expect("valid");
    let w = model.workload().expect("valid");
    let mut rescued = 0.0;
    for (name, pattern) in [
        (
            "stream 8 MiB x2 (no reuse)",
            TracePattern::Stream {
                bytes: 8 << 20,
                stride: 64,
                passes: 2,
                write_back: false,
            },
        ),
        (
            "tiled 4 MiB, 128 KiB tiles, 7x reuse",
            TracePattern::Tiled {
                bytes: 4 << 20,
                tile_bytes: 128 << 10,
                stride: 64,
                reuse: 7,
            },
        ),
        (
            "random chase 8 MiB",
            TracePattern::RandomChase {
                bytes: 8 << 20,
                stride: 64,
                count: 100_000,
            },
        ),
    ] {
        let mi = measure_miss_ratio(sram, &pattern).expect("valid geometry");
        let ext = MemorySideSram::new(vec![MissRatio::CERTAIN, mi]);
        let p = ext
            .evaluate(&soc, &w)
            .expect("valid")
            .attainable()
            .to_gops();
        if name.starts_with("tiled") {
            rescued = p;
        }
        rep.line(format!("{name:<38} {:>10.4} {:>14.4}", mi.value(), p));
    }
    rep.row("tiled reuse rescues Fig 6b to the IP bound", 2.0, rescued);
    rep.line("streaming and random patterns cannot use the added capacity —");
    rep.line("the paper's fourth conjecture ('adding more IP-local memory even when");
    rep.line("important usecases don't/can't use the added capacity') made measurable.");
    rep
}

/// Cross-checks the engine's working-set-threshold cache model against
/// the trace-driven multi-level hierarchy (the CARM simulator) on the
/// streaming kernel — the regime where the threshold model claims to be
/// exact.
pub fn cache_fidelity() -> Report {
    let mut rep = Report::new(
        "cache_fidelity",
        "Threshold cache model vs trace-driven hierarchy",
    );
    let soc = presets::snapdragon_835_like();
    let cpu = &soc.ips[presets::CPU];
    // Only traffic counts are read, so the latencies are placeholders.
    let config = HierarchyConfig {
        levels: cpu
            .caches
            .iter()
            .map(|c| LevelConfig {
                name: c.name.clone(),
                geometry: CacheConfig {
                    capacity_bytes: c.capacity_bytes,
                    line_bytes: 64,
                    associativity: 16,
                },
                latency_ns: 1.0,
                policy: ReplacementPolicy::Lru,
                victim_lines: 0,
            })
            .collect(),
        dram_latency_ns: 1.0,
    };

    rep.line("working set  threshold-model level  steady-state DRAM fraction (trace)");
    for (ws, expect_dram_fraction) in [(64u64 << 10, 0.0), (1 << 20, 0.0), (8 << 20, 1.0)] {
        let serving = cpu
            .serving_cache(ws)
            .map(|c| c.name.clone())
            .unwrap_or_else(|| "DRAM".into());
        // Warm the hierarchy with one pass, then measure a steady pass.
        let mut h = HierarchySim::new(config.clone()).expect("valid geometry");
        let pass = TracePattern::Stream {
            bytes: ws,
            stride: 64,
            passes: 1,
            write_back: false,
        }
        .generate();
        h.run_trace(&pass);
        h.reset_stats();
        h.run_trace(&pass);
        let steady = h.stats();
        let fraction = ((steady.dram_accesses + steady.dram_writebacks) * 64) as f64 / ws as f64;
        rep.line(format!("{ws:>11}  {serving:>20}  {fraction:>10.4}"));
        rep.row(
            format!("steady DRAM fraction at ws={ws}"),
            expect_dram_fraction,
            fraction,
        );
    }
    rep.line("the threshold model's serving-level prediction matches the trace-driven");
    rep.line("hierarchy in both regimes, validating the fast tier the engine uses.");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_fidelity_tiers_agree() {
        let rep = cache_fidelity();
        assert!(rep.max_relative_error() < 0.01, "{rep}");
        assert!(rep.body.contains("L2"));
    }

    #[test]
    fn arbiter_conclusions_are_policy_invariant() {
        let rep = ablation_arbiter();
        assert!(rep.max_relative_error() < 0.25, "{rep}");
        assert!(rep.body.contains("maxmin"));
        assert!(rep.body.contains("proportional"));
    }

    #[test]
    fn thermal_ablation_shows_throttling() {
        let rep = ablation_thermal();
        assert!(rep.max_relative_error() < 0.01, "{rep}");
        assert!(rep.body.contains("throttled"));
    }

    #[test]
    fn findings_hold_on_the_821() {
        let rep = soc_821();
        assert!(rep.max_relative_error() < 1e-9, "{rep}");
    }

    #[test]
    fn energy_budget_shows_efficiency_gap() {
        let rep = energy_budget();
        // GPU/CPU efficiency within 2x of "an order of magnitude".
        assert!(rep.max_relative_error() < 1.0, "{rep}");
        assert!(rep.body.contains("fits 3 W?"));
    }

    #[test]
    fn miss_ratio_study_rescues_with_reuse_only() {
        let rep = measured_miss_ratios();
        assert!(rep.max_relative_error() < 0.01, "{rep}");
        assert!(rep.body.contains("tiled"));
    }
}
