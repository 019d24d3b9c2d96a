//! Self-tests of the benchmark: the tracing wrapper changes no modeled
//! output, exact counts repeat for a seed and change with it, and every
//! metric is well named, printed with its unit and listed in
//! `BENCHMARK.json`. Run with `cargo test --release`.

use std::time::Duration;

use nds_system::{
    BaselineSystem, HardwareNds, NdsCluster, StorageFrontEnd, SystemConfig, TrafficEngine,
};
use nds_workloads::cluster::{cluster_dataset, cluster_mix};
use nds_workloads::{all_workloads, WorkloadParams, WorkloadRun};
use perfbench::report::{self, Metric, END_TO_END, PER_LAYER};
use perfbench::spans::{self, Traced};
use perfbench::{app, bulk, cluster, fill_payload, guard, run, tenant, WORKLOADS};

#[test]
fn wrapper_leaves_tenant_completions_unchanged() {
    let set = nds_workloads::tenants::mixed_open_closed(5, 16, 64);
    let mut plain = TrafficEngine::new(HardwareNds::new(SystemConfig::small_test()), &set).unwrap();
    plain.run().unwrap();
    spans::start();
    let sys = Traced::new(HardwareNds::new(SystemConfig::small_test()));
    let mut wrapped = TrafficEngine::new(sys, &set).unwrap();
    wrapped.run().unwrap();
    let (recorded, stream) = spans::stop();
    assert!(
        recorded["system.read"].samples.len() > 100,
        "wrapper not in the path"
    );
    assert!(!stream.is_empty());
    assert_eq!(plain.completions(), wrapped.completions());
    assert_eq!(plain.journal_lines(), wrapped.journal_lines());
}

/// Replays a faulted cluster mix; returns the journal and every read.
fn cluster_run<S: StorageFrontEnd>(dev: impl Fn() -> S) -> (String, Vec<u8>) {
    let (seed, ops) = (7, 512);
    let plan = cluster::fault_plan(seed, ops).unwrap();
    let mut c = NdsCluster::new(cluster::cluster_config(seed).with_plan(plan), |_| dev());
    let (shape, element) = cluster_dataset();
    let id = c.create_dataset(shape.clone(), element).unwrap();
    let (mut reads, mut buf, mut payload) = (Vec::new(), Vec::new(), Vec::new());
    for op in cluster_mix(seed, ops, cluster::READ_PCT) {
        if op.write {
            payload.resize(
                op.sub_dims.iter().product::<u64>() as usize * element.size(),
                0,
            );
            fill_payload(&mut payload, op.salt);
            c.write(id, &shape, &op.coord, &op.sub_dims, &payload)
                .unwrap();
        } else {
            c.read_into(id, &shape, &op.coord, &op.sub_dims, &mut buf)
                .unwrap();
            reads.extend_from_slice(&buf);
        }
    }
    assert!(
        c.stats().get("cluster.rereplications") > 0,
        "no failover exercised"
    );
    (c.journal_lines(), reads)
}

#[test]
fn wrapper_leaves_cluster_journal_unchanged() {
    let device = || HardwareNds::new(SystemConfig::small_test());
    let plain = cluster_run(device);
    spans::start();
    let wrapped = cluster_run(|| Traced::new(device()));
    let (recorded, _) = spans::stop();
    assert!(
        recorded.contains_key("system.write"),
        "wrapper not in the path"
    );
    assert_eq!(plain, wrapped);
}

fn workload_runs<S: StorageFrontEnd>(sys: impl Fn() -> S) -> Vec<WorkloadRun> {
    all_workloads(WorkloadParams::tiny_test(3))
        .into_iter()
        .filter(|w| app::SUBSET.contains(&w.name()))
        .map(|w| w.run(&mut sys()).unwrap())
        .collect()
}

#[test]
fn wrapper_leaves_workload_runs_unchanged() {
    for (plain, wrapped) in [
        (
            workload_runs(|| BaselineSystem::new(SystemConfig::small_test())),
            workload_runs(|| Traced::new(BaselineSystem::new(SystemConfig::small_test()))),
        ),
        (
            workload_runs(|| HardwareNds::new(SystemConfig::small_test())),
            workload_runs(|| Traced::new(HardwareNds::new(SystemConfig::small_test()))),
        ),
    ] {
        assert_eq!(plain.len(), app::SUBSET.len());
        assert_eq!(plain, wrapped);
    }
}

#[test]
fn exact_counts_repeat_for_a_seed_and_change_with_it() {
    for w in WORKLOADS {
        // A zero budget runs exactly one pass.
        let a = run(w, 7, Duration::ZERO, false).unwrap();
        let b = run(w, 7, Duration::ZERO, false).unwrap();
        let traced = run(w, 7, Duration::ZERO, true).unwrap();
        let other = run(w, 8, Duration::ZERO, false).unwrap();
        assert_eq!(a.failed, 0, "{w}");
        assert!(a.exact.len() > 5, "{w}: {:?}", a.exact);
        assert_eq!(a.exact, b.exact, "{w}: same seed");
        assert_eq!(
            a.exact, traced.exact,
            "{w}: traced run changed modeled counts"
        );
        assert_ne!(
            a.exact, other.exact,
            "{w}: seed 8 ran the same mix as seed 7"
        );
        guard(w, &a).unwrap();
    }
    assert_ne!(bulk::ops(7), bulk::ops(8));
    assert_ne!(
        tenant::tenant_set(7, 0).tenants[0].ops,
        tenant::tenant_set(8, 0).tenants[0].ops
    );
}

#[test]
fn bulk_offsets_miss_the_block_grid() {
    for seed in 0..32 {
        let ops = bulk::ops(seed);
        assert_eq!(ops.len(), 60);
        for op in &ops {
            assert!(
                op.sub_dims.iter().all(|&d| d % 256 != 0 || d == bulk::N),
                "seed {seed}: {op:?} is block-aligned"
            );
        }
        let writes = ops.iter().filter(|op| op.kind == bulk::Kind::SubWrite);
        assert_eq!(writes.count(), 12);
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, in order.
fn section(json: &str, key: &str, until: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).unwrap();
    let end = json[start..]
        .find(&format!("\"{until}\""))
        .map_or(json.len(), |e| start + e);
    let field = |s: &str, f: &str| -> Option<String> {
        let at = s.find(&format!("\"{f}\": \""))? + f.len() + 5;
        Some(s[at..at + s[at..].find('"')?].to_owned())
    };
    json[start..end]
        .split('{')
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

#[test]
fn metric_names_units_and_benchmark_json_agree() {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(name_ok(name) && unit_ok(unit), "{name} {unit}");
        assert!(seen.insert(*name), "{name} listed twice");
    }
    let json =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let listed = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        section(&json, "end_to_end", "per_layer"),
        listed(&END_TO_END)
    );
    assert_eq!(section(&json, "per_layer", "\u{0}"), listed(&PER_LAYER));
    assert!(json.contains("\"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: 1.25,
            unit,
            note: String::new(),
        })
        .collect();
    let text = report::render(&metrics, true, 3, 0).unwrap();
    let last = text.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    for m in &metrics {
        assert!(text
            .lines()
            .any(|l| l.starts_with(m.name) && l.contains(&format!(" {} ", m.unit))));
        assert!(last.contains(&format!(
            "\"{}\": {{\"value\": 1.25, \"unit\": \"{}\"}}",
            m.name, m.unit
        )));
    }
    let bad = [Metric {
        name: "x",
        value: f64::NAN,
        unit: "s",
        note: String::new(),
    }];
    assert!(report::render(&bad, true, 1, 0).is_err());
}

#[test]
fn tails_keep_ten_samples_beyond() {
    let samples: Vec<u64> = (1..=1000).collect();
    let (p50, tail, note) = report::p50_tail(&samples).unwrap();
    assert_eq!((p50, tail), (500, 990));
    assert!(note.starts_with("p99 of 1000 samples, 10 beyond"), "{note}");
    let (_, tail, note) = report::p50_tail(&samples[..50]).unwrap();
    assert_eq!(tail, 25);
    assert!(note.starts_with("p50"), "{note}");
    assert!(report::p50_tail(&[]).is_none());
}
