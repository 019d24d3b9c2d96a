//! `app_pipeline`: a subset of the Fig. 10 Table 1 workloads at bench
//! scale on all four architectures (baseline, oracle, software NDS,
//! hardware NDS) with the `fig10` bench bin's configuration.
//!
//! A pass builds each system and times `Workload::run` on it; population
//! happens inside `run`. The front-end sits behind a [`Traced`] wrapper in
//! every run (spans are recorded only while tracing): it counts front-end
//! operations and payload bytes, and splits the run's wall time into
//! units — each front-end call and each gap between calls — that repeat
//! identically in every pass. Correctness: every run's checksum equals the workload's
//! in-memory reference checksum.

use std::time::{Duration, Instant};

use nds_system::{
    BaselineSystem, HardwareNds, OracleSystem, SoftwareNds, StorageFrontEnd, SystemConfig,
};
use nds_workloads::{all_workloads, Workload, WorkloadParams};

use crate::spans::{self, Traced};
use crate::{add_device_counts, timed, Exact, Pass, Phase};

/// The Table 1 workloads run: I/O-heavy SSSP (graph), KMeans (data
/// mining) and compute-heavy Conv2D (image processing).
pub const SUBSET: [&str; 3] = ["SSSP", "KMeans", "Conv2D"];

/// The `fig10` bench bin's system configuration (cost scale 2).
pub fn config() -> SystemConfig {
    let mut config = SystemConfig::paper_scale();
    config.stl.block_multiplier = 1;
    config.with_scaled_command_costs(2)
}

/// The subset's workloads at `WorkloadParams::bench(seed)`.
pub fn workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    all_workloads(WorkloadParams::bench(seed))
        .into_iter()
        .filter(|w| SUBSET.contains(&w.name()))
        .collect()
}

/// Builds one system and times the workload on it behind the counting
/// wrapper.
fn run_on<S: StorageFrontEnd>(
    phase: &mut Phase,
    pass: &mut Pass,
    exact: &mut Exact,
    workload: &dyn Workload,
    reference: u64,
    build: impl FnOnce() -> S,
) -> f64 {
    let start = Instant::now();
    let mut sys = Traced::new(build());
    pass.setup.push(start.elapsed());
    let start = Instant::now();
    sys.start_units(start);
    let run = spans::span("workloads.run", || workload.run(&mut sys));
    let end = Instant::now();
    pass.measured += end - start;
    pass.units.extend(sys.finish_units(end));
    let ok = run.is_ok_and(|r| {
        pass.modeled_ns += r.total.as_nanos();
        *exact.entry("system.commands").or_default() += r.commands as f64;
        r.checksum == reference
    });
    pass.ops += sys.ops;
    pass.bytes += sys.bytes;
    phase.attempted += sys.ops.max(1);
    phase.failed += if ok { 0 } else { sys.ops.max(1) };
    *exact.entry("workloads.frontend_ops").or_default() += sys.ops as f64;
    add_device_counts(exact, &sys.stats());
    (end - start).as_secs_f64()
}

/// Runs `app_pipeline` passes until `budget` of measured time.
///
/// # Errors
///
/// A changed exact count.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Result<Phase, String> {
    let config = config();
    let workloads = workloads(seed);
    let mut verify = Duration::ZERO;
    let references: Vec<u64> = timed(&mut verify, || {
        workloads.iter().map(|w| w.reference_checksum()).collect()
    });
    let mut phase = crate::run_passes(config.clone(), budget, traced, |phase| {
        let mut pass = Pass::default();
        let mut exact = Exact::new();
        let mut run_s = 0.0;
        for (w, &r) in workloads.iter().zip(&references) {
            let (w, c) = (w.as_ref(), &config);
            let (p, e) = (&mut pass, &mut exact);
            run_s += run_on(phase, p, e, w, r, || BaselineSystem::new(c.clone()));
            run_s += run_on(phase, p, e, w, r, || {
                OracleSystem::with_tile(c.clone(), w.kernel_tile())
            });
            run_s += run_on(phase, p, e, w, r, || SoftwareNds::new(c.clone()));
            run_s += run_on(phase, p, e, w, r, || HardwareNds::new(c.clone()));
        }
        phase.sample("workloads.run_s", run_s);
        exact.insert("system.modeled_ms", pass.modeled_ns as f64 / 1e6);
        phase.push(pass, exact)
    })?;
    phase.verify += verify;
    Ok(phase)
}
