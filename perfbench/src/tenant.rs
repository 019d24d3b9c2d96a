//! `tenant_mix`: 16 tenants with mixed open/closed arrivals share one
//! hardware-NDS device (the `tenants` bench bin's geometry) through the
//! WFQ traffic engine.
//!
//! A pass runs [`RUNS`] engines, each over its own seeded tenant set: it
//! builds a fresh device and engine (creating and populating every
//! tenant's dataset), then times `TrafficEngine::run`. Correctness is the
//! engine's own byte-exact read check (`Completion::data_ok`).

use std::time::{Duration, Instant};

use nds_system::{HardwareNds, StorageFrontEnd, SystemConfig, TenantSet, TrafficEngine};
use nds_workloads::tenants::mixed_open_closed;

use crate::spans::{self, Traced};
use crate::{add_device_counts, mix, timed, Exact, Pass, Phase};

/// Tenants sharing the device.
pub const TENANTS: u32 = 16;
/// Operations each tenant completes per engine run.
pub const OPS_PER_TENANT: u64 = 128;
/// Engine runs per pass, each over its own tenant set, so that a pass's
/// work averages over several seeded mixes.
pub const RUNS: u64 = 16;

/// The tenant set of engine run `k` of a pass.
pub fn tenant_set(seed: u64, k: u64) -> TenantSet {
    mixed_open_closed(mix(seed ^ (k << 40)), TENANTS, OPS_PER_TENANT)
}

/// Builds one engine (set-up) and times its run (one unit of the pass).
fn engine_run<S: StorageFrontEnd>(
    phase: &mut Phase,
    pass: &mut Pass,
    exact: &mut Exact,
    per_tenant: &mut [u64],
    set: &TenantSet,
    sys: impl FnOnce() -> S,
) -> Result<(), String> {
    let start = Instant::now();
    let mut engine = spans::paused(|| TrafficEngine::new(sys(), set))
        .map_err(|e| format!("tenant setup: {e}"))?;
    let setup = start.elapsed();
    pass.setup.push(setup);
    let populated: u64 = set
        .tenants
        .iter()
        .flat_map(|t| &t.datasets)
        .map(|(shape, element)| shape.volume() * element.size() as u64)
        .sum();
    let mib = populated as f64 / (1 << 20) as f64;
    phase.sample("system.populate.mib_per_s", mib / setup.as_secs_f64());

    let attempted = u64::from(TENANTS) * OPS_PER_TENANT;
    phase.attempted += attempted;
    let run = pass.unit(|| spans::span("tenants.run", || engine.run()));
    timed(&mut phase.verify, || {
        if run.is_err() {
            phase.failed += attempted;
            return Ok(());
        }
        let done = engine.completions();
        let ok = done.iter().filter(|c| c.data_ok).count() as u64;
        phase.failed += attempted.saturating_sub(ok);
        pass.ops += ok;
        pass.bytes += done.iter().map(|c| c.bytes).sum::<u64>();
        pass.modeled_ns += engine.makespan().as_nanos();
        let mut ops = vec![0u64; TENANTS as usize];
        for c in done {
            if let (Some(b), Some(n)) = (
                per_tenant.get_mut(c.tenant as usize),
                ops.get_mut(c.tenant as usize),
            ) {
                *b += c.bytes;
                *n += 1;
            }
        }
        if ops.iter().any(|&n| n != OPS_PER_TENANT) {
            return Err(format!(
                "tenant_mix: not every tenant completed its {OPS_PER_TENANT} ops: {ops:?}"
            ));
        }
        let commands: u64 = done.iter().map(|c| c.commands).sum();
        *exact.entry("system.commands").or_default() += commands as f64;
        add_device_counts(exact, &engine.system().stats());
        Ok(())
    })
}

/// Runs `tenant_mix` passes until `budget` of measured time.
///
/// # Errors
///
/// A failed setup, an incomplete tenant, or a changed exact count.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Result<Phase, String> {
    let config = SystemConfig::small_test();
    let sets: Vec<TenantSet> = (0..RUNS).map(|k| tenant_set(seed, k)).collect();
    crate::run_passes(config.clone(), budget, traced, |phase| {
        let mut pass = Pass::default();
        let mut exact = Exact::new();
        let mut per_tenant = vec![0u64; TENANTS as usize];
        for set in &sets {
            let (p, e, t) = (&mut pass, &mut exact, &mut per_tenant[..]);
            let sys = || HardwareNds::new(config.clone());
            if traced {
                engine_run(phase, p, e, t, set, || Traced::new(sys()))?;
            } else {
                engine_run(phase, p, e, t, set, sys)?;
            }
        }
        phase.sample("tenants.run_s", pass.measured.as_secs_f64());
        let modeled_ms = pass.modeled_ns as f64 / 1e6;
        exact.insert("tenants.makespan_ms", modeled_ms);
        exact.insert("system.modeled_ms", modeled_ms);
        exact.insert(
            "tenants.jain_milli",
            nds_prof::jain_milli(&per_tenant) as f64,
        );
        phase.push(pass, exact)
    })
}
