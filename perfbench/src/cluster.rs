//! `cluster_churn`: a write-heavy mix on a 4-device, 2-replica
//! `NdsCluster` of hardware-NDS devices (the `tenants` bench bin's 16 MiB
//! geometry) with full observability and windowed metrics on.
//!
//! A pass runs [`RUNS`] clusters, each with its own seeded placement. The
//! fault plan takes one replica holder's link down and back up (its
//! stale replicas resync) and later kills another holder (its shards
//! re-replicate onto spares). The pass ends by rendering the full report
//! and the metrics JSON in memory. Reads are checked against a mirror of
//! the acknowledged writes; a `ShardUnavailable` counts as a failed op.

use std::time::{Duration, Instant};

use nds_faults::{ClusterFaultPlan, DeviceFault, DeviceFaultKind};
use nds_sim::ObsConfig;
use nds_system::{
    ClusterConfig, DatasetId, HardwareNds, NdsCluster, StorageFrontEnd, SystemConfig,
};
use nds_workloads::cluster::{cluster_dataset, cluster_mix, ClusterOp};

use crate::spans::{self, Traced};
use crate::{add_device_counts, fill_payload, for_each_row, timed, Exact, Pass, Phase};

/// Devices in the cluster.
pub const DEVICES: usize = 4;
/// Replicas per shard.
pub const REPLICAS: usize = 2;
/// Last-dimension rows per shard (three shards of the 64×64 dataset).
pub const SHARD_ROWS: u64 = 24;
/// Cluster runs per pass, each with its own seeded placement, fault plan
/// and mix, so that a pass's work averages over several placements.
pub const RUNS: u64 = 2;
/// Operations of each run's mix.
pub const OPS: usize = 2048;
/// Share of reads in the mix, in percent.
pub const READ_PCT: u32 = 30;

fn obs() -> ObsConfig {
    ObsConfig::full().with_metrics()
}

/// The cluster configuration of every pass (without the fault plan).
pub fn cluster_config(seed: u64) -> ClusterConfig {
    ClusterConfig::new(DEVICES, REPLICAS)
        .with_shard_rows(SHARD_ROWS)
        .with_seed(seed)
        .with_observability(obs())
}

fn device() -> HardwareNds {
    HardwareNds::new(SystemConfig::small_test().with_observability(obs()))
}

/// Cluster op index of mix op `i` (the populating write is op 0).
fn at(i: usize) -> u64 {
    i as u64 + 1
}

/// The fault plan for a mix of `ops` operations: the device holding the
/// most replicas (`flap`) loses its link a quarter into the mix and
/// regains it halfway; the next holder (`victim`) dies three quarters in.
/// Holders come from the cluster's own seeded placement.
///
/// # Errors
///
/// A failed probe, or fewer than two devices holding replicas.
pub fn fault_plan(seed: u64, ops: usize) -> Result<ClusterFaultPlan, String> {
    let mut probe = NdsCluster::new(cluster_config(seed), |_| {
        HardwareNds::new(SystemConfig::small_test())
    });
    let (shape, element) = cluster_dataset();
    let id = probe
        .create_dataset(shape, element)
        .map_err(|e| format!("cluster probe: {e}"))?;
    let mut held = [0usize; DEVICES];
    for h in 0..probe.shard_count(id).unwrap_or(0) {
        for d in probe.replica_devices(id, h) {
            if let Some(n) = held.get_mut(d as usize) {
                *n += 1;
            }
        }
    }
    let mut order: Vec<usize> = (0..DEVICES).collect();
    order.sort_by_key(|&d| (std::cmp::Reverse(held[d]), d));
    let (flap, victim) = (order[0] as u32, order[1] as u32);
    if held[victim as usize] == 0 {
        return Err("cluster probe: fewer than two replica holders".into());
    }
    let event = |i, device, kind| DeviceFault {
        at_op: at(i),
        device,
        kind,
    };
    Ok(ClusterFaultPlan::new(vec![
        event(ops / 4, flap, DeviceFaultKind::LinkDown),
        event(ops / 2, flap, DeviceFaultKind::LinkRestore),
        event(3 * ops / 4, victim, DeviceFaultKind::Kill),
    ]))
}

/// One cluster run of a pass: its seed, fault plan and operations.
pub struct ClusterRun {
    /// Seeds placement, payloads and the mix.
    pub seed: u64,
    /// The run's fault plan.
    pub plan: ClusterFaultPlan,
    /// The run's operations.
    pub mix: Vec<ClusterOp>,
}

/// The cluster runs of a pass for `seed`.
///
/// # Errors
///
/// A failed placement probe.
pub fn cluster_runs(seed: u64) -> Result<Vec<ClusterRun>, String> {
    (0..RUNS)
        .map(|k| {
            let seed = crate::mix(seed ^ (k << 40));
            Ok(ClusterRun {
                seed,
                plan: fault_plan(seed, OPS)?,
                mix: cluster_mix(seed, OPS, READ_PCT),
            })
        })
        .collect()
}

/// Builds one cluster (set-up), runs its mix and renders its report (the
/// measured units), accumulating into `pass` and `exact`.
fn cluster_run<S: StorageFrontEnd>(
    phase: &mut Phase,
    pass: &mut Pass,
    exact: &mut Exact,
    run: &ClusterRun,
    dev: impl Fn() -> S,
) -> Result<(), String> {
    let ClusterRun { seed, plan, mix } = run;
    let seed = *seed;
    let (shape, element) = cluster_dataset();
    let (esize, width) = (element.size() as u64, shape.dim(0));
    let start = Instant::now();
    let (mut cluster, id, mut mirror) = spans::paused(|| {
        let mut cluster = NdsCluster::new(cluster_config(seed).with_plan(plan.clone()), |_| dev());
        let id: DatasetId = cluster
            .create_dataset(shape.clone(), element)
            .map_err(|e| format!("cluster setup: {e}"))?;
        let mut mirror = vec![0u8; (shape.volume() * esize) as usize];
        fill_payload(&mut mirror, seed ^ 0xc1a5);
        let t = Instant::now();
        let dims = shape.dims().to_vec();
        cluster
            .write(id, &shape, &[0, 0], &dims, &mirror)
            .map_err(|e| format!("cluster populate: {e}"))?;
        let mib = mirror.len() as f64 / (1 << 20) as f64;
        phase.sample("system.populate.mib_per_s", mib / t.elapsed().as_secs_f64());
        Ok::<_, String>((cluster, id, mirror))
    })?;
    pass.setup.push(start.elapsed());

    let events: Vec<(u64, DeviceFaultKind)> =
        plan.events().iter().map(|e| (e.at_op, e.kind)).collect();
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    for (i, op) in mix.iter().enumerate() {
        phase.attempted += 1;
        let ok = if op.write {
            timed(&mut phase.verify, || {
                payload.resize((op.sub_dims.iter().product::<u64>() * esize) as usize, 0);
                fill_payload(&mut payload, op.salt);
            });
            let out = pass.unit(|| {
                spans::span("cluster.write", || {
                    cluster.write(id, &shape, &op.coord, &op.sub_dims, &payload)
                })
            });
            timed(&mut phase.verify, || match out {
                Ok(o) => {
                    for_each_row(&op.coord, &op.sub_dims, width, esize, |b, m| {
                        mirror[m].copy_from_slice(&payload[b])
                    });
                    pass.bytes += o.bytes;
                    pass.modeled_ns += o.latency.as_nanos();
                    true
                }
                Err(_) => false,
            })
        } else {
            let out = pass.unit(|| {
                spans::span("cluster.read", || {
                    cluster.read_into(id, &shape, &op.coord, &op.sub_dims, &mut buf)
                })
            });
            timed(&mut phase.verify, || match out {
                Ok(m) => {
                    pass.bytes += m.bytes;
                    pass.modeled_ns += m.latency().as_nanos();
                    let mut same = buf.len() as u64 == m.bytes;
                    for_each_row(&op.coord, &op.sub_dims, width, esize, |b, r| {
                        same &= buf.get(b) == mirror.get(r)
                    });
                    same
                }
                Err(_) => false,
            })
        };
        pass.ops += u64::from(ok);
        phase.failed += u64::from(!ok);
        for &(op_at, kind) in &events {
            if op_at == at(i) {
                let ms = pass.units.last().map_or(0.0, |d| d.as_secs_f64() * 1e3);
                match kind {
                    DeviceFaultKind::Kill => phase.sample("cluster.failover_ms", ms),
                    DeviceFaultKind::LinkRestore => phase.sample("cluster.resync_ms", ms),
                    DeviceFaultKind::LinkDown => {}
                }
            }
        }
    }

    // The run ends by rendering its artifacts, as the bench bins do.
    let report = pass.unit(|| cluster.full_report());
    let json = pass.unit(|| report.to_json());
    let metrics = pass.unit(|| report.metrics_json());
    for (name, d) in [
        "obs.full_report_ms",
        "obs.report_json_ms",
        "obs.metrics_json_ms",
    ]
    .into_iter()
    .zip(&pass.units[pass.units.len() - 3..])
    {
        phase.sample(name, d.as_secs_f64() * 1e3);
    }

    let mut add = |name, v: f64| *exact.entry(name).or_default() += v;
    add("obs.report_mib", json.len() as f64 / (1 << 20) as f64);
    add("obs.metrics_mib", metrics.len() as f64 / (1 << 20) as f64);
    let stats = cluster.stats();
    for name in [
        "cluster.rereplicated_bytes",
        "cluster.resynced_bytes",
        "cluster.degraded_reads",
        "cluster.rereplications",
        "cluster.resyncs",
        "cluster.writes",
        "cluster.write_subops",
    ] {
        add(name, stats.get(name) as f64);
    }
    for i in 0..cluster.device_count() {
        if let Some(d) = cluster.device(i) {
            let s = d.stats();
            add_device_counts(exact, &s);
            *exact.entry("system.commands").or_default() +=
                (s.get("system.read_commands") + s.get("system.write_commands")) as f64;
        }
    }
    Ok(())
}

/// Runs `cluster_churn` passes until `budget` of measured time.
///
/// # Errors
///
/// A failed setup, a plan without two replica holders, or a changed
/// exact count.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Result<Phase, String> {
    let runs = cluster_runs(seed)?;
    crate::run_passes(SystemConfig::small_test(), budget, traced, |phase| {
        let mut pass = Pass::default();
        let mut exact = Exact::new();
        for run in &runs {
            let (p, e) = (&mut pass, &mut exact);
            if traced {
                cluster_run(phase, p, e, run, || Traced::new(device()))?;
            } else {
                cluster_run(phase, p, e, run, device)?;
            }
        }
        exact.insert("system.modeled_ms", pass.modeled_ns as f64 / 1e6);
        phase.push(pass, exact)
    })
}
