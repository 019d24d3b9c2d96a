//! Wall-clock benchmark of the NDS simulator.
//!
//! Four workloads (`bulk_matrix`, `tenant_mix`, `cluster_churn`,
//! `app_pipeline`) each repeat a fixed, seeded *pass* — set up fresh
//! systems, run a closed loop of front-end operations with one client,
//! check every output — until the measured time reaches the budget.
//! End-to-end metrics come from untraced passes; per-layer metrics from
//! traced passes (spans recorded around calls into each layer, see
//! [`spans`]) and from replays of the recorded request stream into the
//! core, flash and interconnect APIs (see [`replay`]). `README.md` in this
//! directory documents the workloads and metrics.

pub mod app;
pub mod bulk;
pub mod cluster;
pub mod replay;
pub mod report;
pub mod spans;
pub mod tenant;

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use nds_sim::Stats;
use nds_system::SystemConfig;

/// The workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 4] = ["bulk_matrix", "tenant_mix", "cluster_churn", "app_pipeline"];

/// Runs `workload` (one of [`WORKLOADS`]) until `budget` of measured
/// time, traced or not.
///
/// # Errors
///
/// An unknown workload, or the workload's own error.
pub fn run(workload: &str, seed: u64, budget: Duration, traced: bool) -> Result<Phase, String> {
    match workload {
        "bulk_matrix" => bulk::run(seed, budget, traced),
        "tenant_mix" => tenant::run(seed, budget, traced),
        "cluster_churn" => cluster::run(seed, budget, traced),
        "app_pipeline" => app::run(seed, budget, traced),
        _ => Err(format!("unknown workload {workload}")),
    }
}

/// Fails unless the workload's target layer did the work it was chosen
/// for (counts are those of one pass).
///
/// # Errors
///
/// Which guard failed.
pub fn guard(workload: &str, phase: &Phase) -> Result<(), String> {
    let get = |n: &str| phase.exact.get(n).copied().unwrap_or(0.0);
    let (hits, misses) = (get("stl.plan_cache.hits"), get("stl.plan_cache.misses"));
    let hit_ratio = hits / (hits + misses).max(1.0);
    let check = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("{workload}: non-vacuity guard failed: {what}"))
        }
    };
    match workload {
        "bulk_matrix" => check(
            hit_ratio < 0.1,
            &format!("plan-cache hit ratio {hit_ratio} >= 0.1"),
        ),
        "tenant_mix" => check(
            hit_ratio > 0.9,
            &format!("plan-cache hit ratio {hit_ratio} <= 0.9"),
        ),
        "cluster_churn" => {
            check(get("cluster.rereplications") > 0.0, "no re-replication")?;
            check(get("cluster.resyncs") > 0.0, "no resync")?;
            check(get("backend.gc_runs") > 0.0, "no garbage collection")
        }
        _ => Ok(()),
    }
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of each set-up step (building a system, generating its
    /// inputs, creating and populating its datasets), in the same order
    /// every pass.
    pub setup: Vec<Duration>,
    /// Wall time of the measured closed loop: the sum of `units`.
    pub measured: Duration,
    /// Wall time of each repeatable unit of measured work (an operation,
    /// an engine run, a workload run), in the same order every pass.
    pub units: Vec<Duration>,
    /// Front-end operations completed.
    pub ops: u64,
    /// Application payload bytes read plus written.
    pub bytes: u64,
    /// Modeled nanoseconds the measured operations simulated.
    pub modeled_ns: u64,
}

impl Pass {
    /// Runs `f` as the pass's next unit of measured work, timing it.
    pub fn unit<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.measured += elapsed;
        self.units.push(elapsed);
        out
    }
}

/// Deterministic counts of one pass: a pure function of the seed.
pub type Exact = BTreeMap<&'static str, f64>;

/// Everything one phase (a run of passes) measured.
#[derive(Debug)]
pub struct Phase {
    /// Per-pass measurements.
    pub passes: Vec<Pass>,
    /// Exact counts of the first pass (every later pass must repeat them).
    pub exact: Exact,
    /// Per-pass wall-clock samples of workload-specific quantities.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Operations attempted and failed (typed error or wrong payload).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Wall time spent checking outputs, outside every measured span.
    pub verify: Duration,
    /// Spans recorded while tracing (empty otherwise).
    pub spans: BTreeMap<&'static str, spans::SpanAcc>,
    /// The device request stream recorded while tracing.
    pub stream: Vec<spans::Request>,
    /// The system configuration the workload's devices use.
    pub config: SystemConfig,
}

impl Phase {
    /// Total measured wall time.
    pub fn measured(&self) -> Duration {
        self.passes.iter().map(|p| p.measured).sum()
    }

    /// The best-case time of one pass: the sum, over the pass's units of
    /// work, of the fastest time each took in any pass. Every pass repeats
    /// the same units, and contention on a shared host only ever slows a
    /// unit down, so this estimate is far steadier than any one pass's time.
    pub fn best_pass_time(&self) -> Duration {
        best_sum(&self.passes, |p| &p.units)
    }

    /// The best-case set-up time of one pass, as [`Phase::best_pass_time`]
    /// over the set-up steps. The first pass sets up on a fresh heap and is
    /// left out as a warm-up when there are later passes.
    pub fn best_setup_time(&self) -> Duration {
        let warm = match self.passes.get(1..) {
            Some(later) if !later.is_empty() => later,
            _ => &self.passes[..],
        };
        best_sum(warm, |p| &p.setup)
    }

    /// Adds a wall-clock sample of `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Records one pass and its exact counts, failing if the counts differ
    /// from the first pass's: the same inputs must reproduce them.
    ///
    /// # Errors
    ///
    /// A description of the first count that changed.
    pub fn push(&mut self, pass: Pass, exact: Exact) -> Result<(), String> {
        if self.passes.is_empty() {
            self.exact = exact;
        } else if exact != self.exact {
            let diff = exact
                .iter()
                .find(|(k, v)| self.exact.get(*k) != Some(v))
                .map(|(k, v)| format!("{k}: {v} vs {:?}", self.exact.get(*k)))
                .unwrap_or_else(|| "key set".to_owned());
            return Err(format!("exact counts changed between passes ({diff})"));
        }
        self.passes.push(pass);
        Ok(())
    }
}

/// The sum over positions `i` of the smallest `steps(pass)[i]` of any pass.
fn best_sum(passes: &[Pass], steps: impl Fn(&Pass) -> &Vec<Duration>) -> Duration {
    let n = passes.first().map_or(0, |p| steps(p).len());
    (0..n)
        .filter_map(|i| passes.iter().filter_map(|p| steps(p).get(i)).min())
        .sum()
}

/// Runs `pass` until the measured time reaches `budget` (at least once)
/// on devices configured by `config`. With `traced`, spans and the request
/// stream are recorded meanwhile.
///
/// # Errors
///
/// The first error a pass returns.
pub fn run_passes(
    config: SystemConfig,
    budget: Duration,
    traced: bool,
    mut pass: impl FnMut(&mut Phase) -> Result<(), String>,
) -> Result<Phase, String> {
    let mut phase = Phase {
        passes: Vec::new(),
        exact: Exact::new(),
        samples: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        verify: Duration::ZERO,
        spans: BTreeMap::new(),
        stream: Vec::new(),
        config,
    };
    let wall = Instant::now();
    if traced {
        spans::start();
    }
    let result = loop {
        if let Err(e) = pass(&mut phase) {
            break Err(e);
        }
        // The wall-clock cap keeps a run inside its time limit when setup
        // and checking dominate the measured loop.
        if phase.measured() >= budget || wall.elapsed() >= budget * 4 {
            break Ok(());
        }
    };
    if traced {
        let (spans, stream) = spans::stop();
        phase.spans = spans;
        phase.stream = stream;
    }
    result.map(|()| phase)
}

/// Times `f`, adding its wall time to `total`.
pub fn timed<R>(total: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

/// SplitMix64 finalizer: the benchmark's only source of variation.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills `buf` with the payload of a write salted by `salt`: byte `i` is
/// byte `i % 8` of `mix(salt ^ (i / 8))`.
pub fn fill_payload(buf: &mut [u8], salt: u64) {
    for (w, chunk) in buf.chunks_mut(8).enumerate() {
        let word = mix(salt ^ w as u64).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Calls `f(buffer_range, mirror_range)` for each row of the 2-D
/// partition `(coord, sub_dims)` (fastest dimension first), mapping the
/// request's dense buffer onto a row-major mirror `width` elements wide.
pub fn for_each_row(
    coord: &[u64],
    sub_dims: &[u64],
    width: u64,
    esize: u64,
    mut f: impl FnMut(Range<usize>, Range<usize>),
) {
    let (w, h) = (sub_dims[0], sub_dims[1]);
    let (x0, y0) = (coord[0] * w, coord[1] * h);
    let row = (w * esize) as usize;
    for r in 0..h {
        let m = (((y0 + r) * width + x0) * esize) as usize;
        let b = r as usize * row;
        f(b..b + row, m..m + row);
    }
}

/// Adds the device counters the per-layer metrics use from `stats` into
/// `exact` (summing over systems).
pub fn add_device_counts(exact: &mut Exact, stats: &Stats) {
    for name in [
        "flash.pages_programmed",
        "flash.blocks_erased",
        "backend.gc_runs",
        "backend.gc_relocated",
        "link.commands",
        "link.bytes",
        "nvme.wire_bytes",
        "stl.plan_cache.hits",
        "stl.plan_cache.misses",
    ] {
        *exact.entry(name).or_default() += stats.get(name) as f64;
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), if known.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
