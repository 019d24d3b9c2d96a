//! Criterion benches over the full simulated systems: the Fig. 9 fetch
//! patterns (row / column / submatrix) on each architecture, plus per-layer
//! benches of the flash timing engine, the WFQ scheduler and the
//! multi-tenant traffic engine. Wall-clock here measures the *simulator's*
//! cost, complementing the `fig9` harness which reports *simulated*
//! bandwidths.

// Benches are operator tools, not simulation data path: panicking on a
// malformed run is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use nds_core::{ElementType, Shape};
use nds_flash::{FlashConfig, FlashDevice, PageAddr};
use nds_interconnect::WfqScheduler;
use nds_sim::SimTime;
use nds_system::{
    BaselineSystem, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig, TrafficEngine,
};
use nds_workloads::tenants::mixed_open_closed;
use nds_workloads::{Gemm, Workload, WorkloadParams};

const N: u64 = 1024;

fn prepared<S: StorageFrontEnd>(mut sys: S) -> (S, nds_system::DatasetId, Shape) {
    let shape = Shape::new([N, N]);
    let id = sys
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    let data = vec![3u8; (N * N * 4) as usize];
    sys.write(id, &shape, &[0, 0], &[N, N], &data)
        .expect("write");
    (sys, id, shape)
}

fn bench_fetch_patterns(c: &mut Criterion) {
    let config = SystemConfig::paper_scale();
    let mut group = c.benchmark_group("fetch_patterns");
    group.sample_size(20);

    let patterns: [(&str, Vec<u64>, Vec<u64>); 3] = [
        ("row_panel", vec![0, 1], vec![N, 128]),
        ("column_panel", vec![1, 0], vec![128, N]),
        ("tile", vec![1, 1], vec![256, 256]),
    ];

    let (mut base, base_id, shape) = prepared(BaselineSystem::new(config.clone()));
    for (name, coord, sub) in &patterns {
        group.bench_with_input(BenchmarkId::new("baseline", name), name, |b, _| {
            b.iter(|| base.read(base_id, &shape, coord, sub).expect("read"))
        });
    }
    let (mut sw, sw_id, shape) = prepared(SoftwareNds::new(config.clone()));
    for (name, coord, sub) in &patterns {
        group.bench_with_input(BenchmarkId::new("software", name), name, |b, _| {
            b.iter(|| sw.read(sw_id, &shape, coord, sub).expect("read"))
        });
    }
    let (mut hw, hw_id, shape) = prepared(HardwareNds::new(config));
    for (name, coord, sub) in &patterns {
        group.bench_with_input(BenchmarkId::new("hardware", name), name, |b, _| {
            b.iter(|| hw.read(hw_id, &shape, coord, sub).expect("read"))
        });
    }
    group.finish();
}

fn bench_flash_timing(c: &mut Criterion) {
    let mut group = c.benchmark_group("flash_timing");
    group.bench_function("schedule_1024_striped_reads", |b| {
        let mut device = FlashDevice::new(FlashConfig::datacenter_32ch());
        let g = *device.geometry();
        let addrs: Vec<PageAddr> = (0..1024)
            .map(|i| PageAddr {
                channel: i % g.channels,
                bank: (i / g.channels) % g.banks_per_channel,
                block: 0,
                page: i / (g.channels * g.banks_per_channel),
            })
            .collect();
        b.iter(|| {
            device.reset_timing();
            device.schedule_reads(&addrs, SimTime::ZERO)
        })
    });
    group.finish();
}

fn bench_wfq(c: &mut Criterion) {
    // Steady state of the tenant engine's admission queue: 16 flows with 4
    // operations each in the queue; every iteration serves the head and
    // re-admits one operation for the same flow.
    let mut group = c.benchmark_group("interconnect");
    group.bench_function("wfq_enqueue_pop", |b| {
        let mut wfq = WfqScheduler::new();
        for flow in 0..16u32 {
            wfq.register(flow, 1 + u64::from(flow % 3));
            for k in 0..4u64 {
                wfq.enqueue(flow, 1024 << (k % 2), k).expect("enqueue");
            }
        }
        b.iter(|| {
            let (flow, k) = wfq.pop().expect("non-empty");
            wfq.enqueue(flow, 1024 << (k % 2), k + 1).expect("enqueue");
        })
    });
    group.finish();
}

fn bench_tenant_engine(c: &mut Criterion) {
    // One complete 16-tenant mixed open/closed run (128 ops per tenant) on
    // a hardware-NDS device: WFQ admission, dispatch, pattern build and
    // verify, and the device path. Construction (dataset creation and the
    // populating writes) is outside the timed region.
    let mut group = c.benchmark_group("tenants");
    group.sample_size(10);
    let set = mixed_open_closed(42, 16, 128);
    let config = SystemConfig::small_test();
    group.bench_function("engine_run_16x128", |b| {
        b.iter_batched(
            || TrafficEngine::new(HardwareNds::new(config.clone()), &set).expect("setup"),
            |mut engine| {
                engine.run().expect("run");
                engine
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    // One complete (tiny) GEMM run per architecture: measures the whole
    // simulator stack — translation, assembly, timing, pipeline, kernel.
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let gemm = Gemm::new(WorkloadParams::tiny_test(5));
    let config = SystemConfig::small_test();
    group.bench_function("gemm_tiny_baseline", |b| {
        b.iter(|| {
            let mut sys = BaselineSystem::new(config.clone());
            gemm.run(&mut sys).expect("run")
        })
    });
    group.bench_function("gemm_tiny_hardware", |b| {
        b.iter(|| {
            let mut sys = HardwareNds::new(config.clone());
            gemm.run(&mut sys).expect("run")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fetch_patterns,
    bench_flash_timing,
    bench_wfq,
    bench_tenant_engine,
    bench_end_to_end
);
criterion_main!(benches);
