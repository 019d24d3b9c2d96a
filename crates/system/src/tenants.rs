//! The deterministic multi-tenant traffic engine.
//!
//! The paper evaluates each front-end one command stream at a time; the
//! roadmap's array scenarios need many clients sharing one device. This
//! module turns any [`StorageFrontEnd`] into a discrete-event traffic
//! engine: a [`TenantSet`] describes N tenants — each with its own
//! *namespace* (a disjoint set of dataspaces), an open (seeded
//! inter-arrival) or closed (fixed outstanding) arrival process, and a
//! cyclic command mix — and [`TrafficEngine::run`] interleaves their
//! operations through a deterministic virtual-time WFQ scheduler
//! ([`WfqScheduler`]) in front of the device, with per-tenant admission
//! depth limits.
//!
//! # Determinism
//!
//! Every source of ordering is a pure function of the tenant set and its
//! seed: arrivals come from a splitmix-style hash of `(seed, tenant,
//! index)`, admission scans tenants in id order, the WFQ breaks finish-tag
//! ties on `(tenant id, arrival order)`, and the engine's clock only
//! advances by front-end modeled latencies and arrival instants. Two runs
//! of the same set produce byte-identical completion journals, reports,
//! and traces — with observability on or off, because the engine's
//! [`report`](TrafficEngine::report) is built exclusively from always-on
//! engine-side accounting.
//!
//! # Namespace model
//!
//! The engine creates every tenant's dataspaces and records their owner.
//! All data-path entry points ([`read_as`](TrafficEngine::read_as),
//! [`write_as`](TrafficEngine::write_as), and the engine's own dispatch)
//! pass through the same ownership guard, which rejects cross-tenant
//! access with [`SystemError::TenantIsolation`]. Tenant data is a
//! positional byte pattern keyed by `(seed, tenant, dataset, offset)`, so
//! any cross-tenant corruption is detectable byte-exactly.

use std::collections::{BTreeMap, VecDeque};

use nds_core::{ElementType, Region, Shape};
use nds_interconnect::WfqScheduler;
use nds_sim::{
    LatencyHistogram, MetricSet, ObsConfig, RunReport, SimDuration, SimTime, TraceExport,
};

use crate::error::SystemError;
use crate::frontend::{DatasetId, ReadMetrics, StorageFrontEnd, WriteOutcome};

/// The direction of a tenant operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A multi-dimensional read of a region of one of the tenant's
    /// dataspaces, verified against the tenant's byte pattern.
    Read,
    /// A multi-dimensional write of the tenant's byte pattern into a
    /// region of one of its dataspaces.
    Write,
}

impl OpKind {
    fn letter(self) -> char {
        match self {
            OpKind::Read => 'R',
            OpKind::Write => 'W',
        }
    }
}

/// One operation of a tenant's command mix, addressed in the canonical
/// view of the tenant's dataset `dataset` (an index into
/// [`TenantSpec::datasets`], never a raw [`DatasetId`] — the mix cannot
/// name another tenant's data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantOp {
    /// Read or write.
    pub kind: OpKind,
    /// Index into the tenant's dataset list.
    pub dataset: usize,
    /// Block coordinate in the canonical view.
    pub coord: Vec<u64>,
    /// Block shape in the canonical view.
    pub sub_dims: Vec<u64>,
}

/// A tenant's arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Open: operations arrive on their own clock with seeded
    /// inter-arrival gaps uniform in `[0, 2 × mean_gap)`, regardless of
    /// completions.
    Open {
        /// Mean inter-arrival gap.
        mean_gap: SimDuration,
    },
    /// Closed: a fixed population of `outstanding` requests; each
    /// completion immediately issues the tenant's next operation.
    Closed {
        /// Requests in flight from t = 0 (clamped to at least 1).
        outstanding: u32,
    },
}

/// The static description of one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// WFQ weight (0 is clamped to 1): the tenant's configured share of
    /// device service.
    pub weight: u64,
    /// Admission depth limit: operations admitted to the scheduler but
    /// not yet completed never exceed this (0 is clamped to 1).
    pub depth: u32,
    /// Open or closed arrival process.
    pub arrival: Arrival,
    /// The tenant's namespace: dataspaces created for it at engine
    /// construction, each initialized with the tenant's byte pattern.
    pub datasets: Vec<(Shape, ElementType)>,
    /// The command mix, cycled until `total_ops` operations have run.
    pub ops: Vec<TenantOp>,
    /// Operations the tenant issues over the run.
    pub total_ops: u64,
}

/// A seeded set of tenants — the complete input of a traffic-engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSet {
    /// Seed for arrivals and data patterns.
    pub seed: u64,
    /// Tenant descriptions; the index is the tenant id.
    pub tenants: Vec<TenantSpec>,
}

impl TenantSet {
    /// An empty set with the given seed.
    pub fn new(seed: u64) -> Self {
        TenantSet {
            seed,
            tenants: Vec::new(),
        }
    }

    /// Adds a tenant, returning the set for chaining.
    pub fn with_tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }
}

/// One finished operation in the engine's completion journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Tenant id.
    pub tenant: u32,
    /// Operation index within the tenant's run (0-based issue order).
    pub op_index: u64,
    /// Read or write.
    pub kind: OpKind,
    /// When the operation arrived (entered the tenant's pending queue).
    pub arrived: SimTime,
    /// When admission passed it to the WFQ scheduler.
    pub admitted: SimTime,
    /// When the device started serving it.
    pub started: SimTime,
    /// When service finished.
    pub finished: SimTime,
    /// I/O commands the front-end issued for it.
    pub commands: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// For reads: whether every byte matched the tenant's pattern.
    /// Always true for writes.
    pub data_ok: bool,
    /// Trace ids allocated during the operation, as a `(before, after]`
    /// cursor range (empty when tracing is off).
    pub trace_range: (u64, u64),
}

/// splitmix64-style finalizer: the engine's only source of "randomness",
/// a pure function of its input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The byte of tenant `tenant`'s pattern at linear byte `offset` of its
/// dataset `dataset` — positional, so reads verify without tracking
/// history and cross-tenant writes are detectable byte-exactly. This is
/// the per-byte reference: isolation tests use it to verify final dataset
/// contents from outside the engine, and the engine's word-wise fill and
/// verify must agree with it byte for byte.
pub fn tenant_pattern_byte(seed: u64, tenant: u32, dataset: usize, offset: u64) -> u8 {
    let shift = (offset & 7) * 8;
    (mix(pattern_key(seed, tenant, dataset) ^ (offset >> 3)) >> shift) as u8
}

/// The pattern key of one tenant dataset: the little-endian bytes of
/// `mix(key ^ w)` are the pattern's 8-byte word `w` (bytes `8w..8w + 8`).
fn pattern_key(seed: u64, tenant: u32, dataset: usize) -> u64 {
    seed ^ (u64::from(tenant) << 40) ^ ((dataset as u64) << 32)
}

/// Pattern word `lane` (bytes `8 × lane ..`) of the dataset keyed `key`.
fn pattern_word(key: u64, lane: u64) -> [u8; 8] {
    mix(key ^ lane).to_le_bytes()
}

/// Bytes from dataset-linear offset `base` up to the next word edge,
/// capped at `len`: the unaligned head of a run.
fn head_len(base: u64, len: usize) -> usize {
    ((8 - (base & 7) as usize) & 7).min(len)
}

/// Fills `out` with the pattern starting at dataset-linear byte `base`,
/// one `mix` per 8-byte word: a partial head word, whole words, then a
/// partial tail word.
fn fill_pattern(key: u64, base: u64, out: &mut [u8]) {
    let Some((head, body)) = out.split_at_mut_checked(head_len(base, out.len())) else {
        return;
    };
    let first = pattern_word(key, base >> 3);
    for (d, s) in head.iter_mut().zip(first.iter().skip((base & 7) as usize)) {
        *d = *s;
    }
    let mut lane = (base + head.len() as u64) >> 3;
    let mut words = body.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&pattern_word(key, lane));
        lane += 1;
    }
    for (d, s) in words
        .into_remainder()
        .iter_mut()
        .zip(pattern_word(key, lane))
    {
        *d = s;
    }
}

/// Whether every byte of `got` is the pattern starting at dataset-linear
/// byte `base` — the same head/words/tail walk as [`fill_pattern`].
fn pattern_matches(key: u64, base: u64, got: &[u8]) -> bool {
    let Some((head, body)) = got.split_at_checked(head_len(base, got.len())) else {
        return false;
    };
    let first = pattern_word(key, base >> 3);
    let mut ok = head
        .iter()
        .zip(first.iter().skip((base & 7) as usize))
        .all(|(g, s)| g == s);
    let mut lane = (base + head.len() as u64) >> 3;
    let mut words = body.chunks_exact(8);
    for word in &mut words {
        ok &= *word == pattern_word(key, lane);
        lane += 1;
    }
    let tail = words.remainder();
    ok & tail
        .iter()
        .zip(pattern_word(key, lane))
        .all(|(g, s)| *g == s)
}

/// Seeded inter-arrival gap `index` for an open tenant: uniform in
/// `[0, 2 × mean)` with 1/65536 resolution.
fn arrival_gap(seed: u64, tenant: u32, index: u64, mean: SimDuration) -> SimDuration {
    let f = mix(seed ^ 0xa11c_e000 ^ (u64::from(tenant) << 32) ^ index) & 0x1_ffff;
    mean * f / 65536
}

/// Payload routed through the WFQ: `(op index, arrival, admitted)`.
type OpRef = (u64, SimTime, SimTime);

#[derive(Debug)]
struct TenantRuntime {
    spec: TenantSpec,
    /// `(id, shape, element)` of the tenant's dataspaces, in creation
    /// order (the namespace).
    datasets: Vec<(DatasetId, Shape, ElementType)>,
    /// Arrived-but-not-admitted operations: `(op index, arrival)`.
    pending: VecDeque<(u64, SimTime)>,
    /// Operations released into `pending` so far.
    released: u64,
    outstanding: u32,
    max_outstanding: u32,
    completed: u64,
    bytes: u64,
    commands: u64,
    busy: SimDuration,
    /// Response time (finish − arrival) histogram, engine-owned and
    /// always on — independent of the front-end's observability config.
    response: LatencyHistogram,
}

impl TenantRuntime {
    /// Operations the tenant runs: `total_ops`, or none for an empty mix.
    fn total(&self) -> u64 {
        if self.spec.ops.is_empty() {
            0
        } else {
            self.spec.total_ops
        }
    }

    /// Operation `index` of the tenant's run: the command mix, cycled.
    fn op(&self, index: u64) -> Option<&TenantOp> {
        let len = self.spec.ops.len() as u64;
        self.spec.ops.get(index.checked_rem(len)? as usize)
    }
}

/// The traffic engine: drives a [`TenantSet`] through any front-end.
///
/// # Example
///
/// ```
/// use nds_core::{ElementType, Shape};
/// use nds_sim::SimDuration;
/// use nds_system::{
///     Arrival, BaselineSystem, OpKind, SystemConfig, TenantOp, TenantSet, TenantSpec,
///     TrafficEngine,
/// };
///
/// # fn main() -> Result<(), nds_system::SystemError> {
/// let spec = TenantSpec {
///     weight: 1,
///     depth: 4,
///     arrival: Arrival::Closed { outstanding: 2 },
///     datasets: vec![(Shape::new([32, 32]), ElementType::F32)],
///     ops: vec![TenantOp {
///         kind: OpKind::Read,
///         dataset: 0,
///         coord: vec![0, 0],
///         sub_dims: vec![32, 32],
///     }],
///     total_ops: 4,
/// };
/// let set = TenantSet::new(7).with_tenant(spec.clone()).with_tenant(spec);
/// let sys = BaselineSystem::new(SystemConfig::small_test());
/// let mut engine = TrafficEngine::new(sys, &set)?;
/// engine.run()?;
/// assert_eq!(engine.completions().len(), 8);
/// assert!(engine.completions().iter().all(|c| c.data_ok));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TrafficEngine<S> {
    sys: S,
    seed: u64,
    tenants: Vec<TenantRuntime>,
    /// Owner of every dataspace the engine created: `(tenant, index into
    /// that tenant's namespace)`.
    owners: BTreeMap<DatasetId, (u32, usize)>,
    wfq: WfqScheduler<OpRef>,
    now: SimTime,
    completions: Vec<Completion>,
    /// Trace-cursor ranges of the setup writes, per tenant.
    setup_traces: Vec<(u64, u64, u32)>,
    /// Reused per-op buffer: read destination or write payload.
    scratch: Vec<u8>,
    /// Engine-owned windowed telemetry on the engine's absolute clock
    /// (per-tenant achieved bytes and backlog). Disabled by default;
    /// surfaces only through [`full_report`](TrafficEngine::full_report),
    /// keeping [`report`](TrafficEngine::report) obs-invariant.
    metrics: MetricSet,
}

impl<S: StorageFrontEnd> TrafficEngine<S> {
    /// Builds the engine: creates every tenant's dataspaces on `sys`,
    /// initializes them with the tenant's byte pattern, and releases each
    /// tenant's initial arrivals.
    ///
    /// # Errors
    ///
    /// Propagates front-end errors from dataset creation or the
    /// initializing writes.
    pub fn new(mut sys: S, set: &TenantSet) -> Result<Self, SystemError> {
        let mut tenants = Vec::with_capacity(set.tenants.len());
        let mut owners = BTreeMap::new();
        let mut wfq = WfqScheduler::new();
        let mut setup_traces = Vec::new();
        for (t, spec) in set.tenants.iter().enumerate() {
            let tenant = t as u32;
            wfq.register(tenant, spec.weight.max(1));
            let before = sys.trace_cursor();
            let mut datasets = Vec::with_capacity(spec.datasets.len());
            for (d, (shape, element)) in spec.datasets.iter().enumerate() {
                let id = sys.create_dataset(shape.clone(), *element)?;
                owners.insert(id, (tenant, d));
                let bytes = shape.volume() * element.size() as u64;
                let mut payload = vec![0u8; bytes as usize];
                fill_pattern(pattern_key(set.seed, tenant, d), 0, &mut payload);
                let coord = vec![0u64; shape.ndims()];
                // nds-lint: allow(D6, setup writes seed freshly created datasets before ownership is registered with a guard)
                sys.write(id, shape, &coord, shape.dims(), &payload)?;
                datasets.push((id, shape.clone(), *element));
            }
            let after = sys.trace_cursor();
            if after > before {
                setup_traces.push((before, after, tenant));
            }
            let mut rt = TenantRuntime {
                spec: spec.clone(),
                datasets,
                pending: VecDeque::new(),
                released: 0,
                outstanding: 0,
                max_outstanding: 0,
                completed: 0,
                bytes: 0,
                commands: 0,
                busy: SimDuration::ZERO,
                response: LatencyHistogram::default(),
            };
            let total = rt.total();
            rt.released = match spec.arrival {
                Arrival::Open { mean_gap } => {
                    let mut at = SimTime::ZERO;
                    for i in 0..total {
                        at += arrival_gap(set.seed, tenant, i, mean_gap);
                        rt.pending.push_back((i, at));
                    }
                    total
                }
                Arrival::Closed { outstanding } => {
                    let initial = u64::from(outstanding.max(1)).min(total);
                    for i in 0..initial {
                        rt.pending.push_back((i, SimTime::ZERO));
                    }
                    initial
                }
            };
            tenants.push(rt);
        }
        Ok(TrafficEngine {
            sys,
            seed: set.seed,
            tenants,
            owners,
            wfq,
            now: SimTime::ZERO,
            completions: Vec::new(),
            setup_traces,
            scratch: Vec::new(),
            metrics: MetricSet::disabled(),
        })
    }

    /// Enables the engine's own windowed telemetry when `config.metrics`
    /// is set (window width and cap follow the timeline settings). The
    /// sampler runs on the engine's absolute clock — no epoch folding —
    /// and is observe-only: it never influences admission or scheduling.
    pub fn configure_metrics(&mut self, config: &ObsConfig) {
        self.metrics = if config.metrics {
            MetricSet::enabled(config.timeline_window, config.timeline_buckets)
        } else {
            MetricSet::disabled()
        };
    }

    /// The owning tenant of a dataspace, if the engine created it.
    pub fn owner_of(&self, id: DatasetId) -> Option<u32> {
        self.owners.get(&id).map(|&(tenant, _)| tenant)
    }

    /// The `index`-th dataspace id of `tenant`'s namespace.
    pub fn dataset_id(&self, tenant: u32, index: usize) -> Option<DatasetId> {
        self.tenants
            .get(tenant as usize)
            .and_then(|rt| rt.datasets.get(index))
            .map(|(id, _, _)| *id)
    }

    /// The namespace isolation guard every data-path entry point passes
    /// through: `tenant` may only touch dataspaces it owns.
    ///
    /// # Errors
    ///
    /// [`SystemError::TenantIsolation`] when `id` belongs to another
    /// tenant (or to no tenant the engine knows).
    pub fn guard(&self, tenant: u32, id: DatasetId) -> Result<(), SystemError> {
        match self.owner_of(id) {
            Some(owner) if owner == tenant => Ok(()),
            _ => Err(SystemError::TenantIsolation {
                tenant,
                dataset: id,
            }),
        }
    }

    /// Reads a region of `id` in its canonical view on behalf of
    /// `tenant`, through the isolation guard.
    ///
    /// # Errors
    ///
    /// [`SystemError::TenantIsolation`] for foreign dataspaces; otherwise
    /// front-end errors.
    pub fn read_as(
        &mut self,
        tenant: u32,
        id: DatasetId,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        self.guard(tenant, id)?;
        let shape = shape_of(&self.tenants, &self.owners, id)?;
        self.sys.read_into(id, shape, coord, sub_dims, buf)
    }

    /// Writes `data` into a region of `id` in its canonical view on
    /// behalf of `tenant`, through the isolation guard.
    ///
    /// # Errors
    ///
    /// [`SystemError::TenantIsolation`] for foreign dataspaces; otherwise
    /// front-end errors.
    pub fn write_as(
        &mut self,
        tenant: u32,
        id: DatasetId,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteOutcome, SystemError> {
        self.guard(tenant, id)?;
        let shape = shape_of(&self.tenants, &self.owners, id)?;
        self.sys.write(id, shape, coord, sub_dims, data)
    }

    /// Runs the whole tenant set to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first front-end error; the engine's modeled faults
    /// (when the front-end carries a fault plan) are recovered inside the
    /// front-end and do not surface here.
    pub fn run(&mut self) -> Result<(), SystemError> {
        loop {
            self.admit()?;
            if let Some((tenant, opref)) = self.wfq.pop() {
                self.serve(tenant, opref)?;
            } else if let Some(next) = self.next_arrival() {
                // Device idle and nothing admitted: jump to the next
                // arrival instant.
                self.now = self.now.max(next);
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Admits every arrived operation whose tenant has depth headroom, in
    /// tenant-id order (the deterministic tie-break for same-instant
    /// arrivals). Surfaces the scheduler's finish-tag overflow as a typed
    /// error instead of wrapping the virtual clock.
    fn admit(&mut self) -> Result<(), SystemError> {
        let now = self.now;
        for (t, rt) in self.tenants.iter_mut().enumerate() {
            while rt.outstanding < rt.spec.depth.max(1) {
                let Some(&(index, arrival)) = rt.pending.front() else {
                    break;
                };
                if arrival > now {
                    break;
                }
                rt.pending.pop_front();
                rt.outstanding += 1;
                rt.max_outstanding = rt.max_outstanding.max(rt.outstanding);
                let cost = rt
                    .op(index)
                    .map_or(1, |op| op_volume(op) * element_bytes(rt, op));
                self.wfq.enqueue(t as u32, cost, (index, arrival, now))?;
            }
        }
        Ok(())
    }

    /// The earliest arrival instant among all tenants' pending queues.
    fn next_arrival(&self) -> Option<SimTime> {
        self.tenants
            .iter()
            .filter_map(|rt| rt.pending.front().map(|&(_, at)| at))
            .min()
    }

    /// Serves one admitted operation on the device and records its
    /// completion.
    fn serve(&mut self, tenant: u32, (index, arrived, admitted): OpRef) -> Result<(), SystemError> {
        // Everything the op needs is borrowed from the tenant's runtime;
        // the per-op buffer is the engine's reused scratch.
        let Some(rt) = self.tenants.get(tenant as usize) else {
            return Ok(());
        };
        let Some(op) = rt.op(index) else {
            return Ok(());
        };
        let Some((id, shape, element)) = rt.datasets.get(op.dataset) else {
            return Err(SystemError::TenantIsolation {
                tenant,
                dataset: DatasetId(0),
            });
        };
        let id = *id;
        self.guard(tenant, id)?;
        let started = self.now;
        let before = self.sys.trace_cursor();
        let key = pattern_key(self.seed, tenant, op.dataset);
        let elem = element.size() as u64;
        let kind = op.kind;
        let (latency, commands, bytes, data_ok) = match kind {
            OpKind::Read => {
                let metrics =
                    self.sys
                        .read_into(id, shape, &op.coord, &op.sub_dims, &mut self.scratch)?;
                let ok = verify_pattern(key, shape, &op.coord, &op.sub_dims, elem, &self.scratch)?;
                (metrics.latency(), metrics.commands, metrics.bytes, ok)
            }
            OpKind::Write => {
                build_pattern(key, shape, &op.coord, &op.sub_dims, elem, &mut self.scratch)?;
                let outcome = self
                    .sys
                    .write(id, shape, &op.coord, &op.sub_dims, &self.scratch)?;
                (outcome.latency, outcome.commands, outcome.bytes, true)
            }
        };
        let after = self.sys.trace_cursor();
        let finished = started + latency;
        self.now = finished;
        if let Some(rt) = self.tenants.get_mut(tenant as usize) {
            rt.outstanding = rt.outstanding.saturating_sub(1);
            rt.completed += 1;
            rt.bytes += bytes;
            rt.commands += commands;
            rt.busy += latency;
            rt.response.record(finished.saturating_since(arrived));
            // Closed arrival: the completion releases the tenant's next
            // operation at this instant.
            if matches!(rt.spec.arrival, Arrival::Closed { .. }) && rt.released < rt.total() {
                rt.pending.push_back((rt.released, finished));
                rt.released += 1;
            }
            if self.metrics.is_enabled() {
                // Per-window achieved bytes drive the dashboard's WFQ
                // share plot; the backlog gauge is the tenant's admitted
                // but uncompleted depth at this completion.
                self.metrics.add(finished, "engine.ops", 1);
                self.metrics.add(finished, "engine.bytes", bytes);
                self.metrics
                    .add(finished, &format!("tenant[{tenant}].bytes"), bytes);
                self.metrics.sample(
                    finished,
                    &format!("tenant[{tenant}].backlog"),
                    u64::from(rt.outstanding),
                );
            }
        }
        self.completions.push(Completion {
            tenant,
            op_index: index,
            kind,
            arrived,
            admitted,
            started,
            finished,
            commands,
            bytes,
            data_ok,
            trace_range: (before, after),
        });
        Ok(())
    }

    /// The completion journal, in service order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// The engine clock after the last completion.
    pub fn makespan(&self) -> SimDuration {
        self.now.saturating_since(SimTime::ZERO)
    }

    /// The largest number of simultaneously admitted operations `tenant`
    /// ever had (for asserting depth limits).
    pub fn max_outstanding(&self, tenant: u32) -> u32 {
        self.tenants
            .get(tenant as usize)
            .map_or(0, |rt| rt.max_outstanding)
    }

    /// The underlying front-end.
    pub fn system(&self) -> &S {
        &self.sys
    }

    /// Consumes the engine, returning the front-end.
    pub fn into_system(self) -> S {
        self.sys
    }

    /// The engine's deterministic completion journal as text: one line
    /// per completion, in service order. Byte-identical across runs of
    /// the same tenant set and seed, with observability on or off.
    pub fn journal_lines(&self) -> String {
        let mut out = String::with_capacity(self.completions.len() * 96);
        for c in &self.completions {
            out.push_str(&format!(
                "tenant={} op={} kind={} arrive={} admit={} start={} finish={} cmds={} bytes={} ok={}\n",
                c.tenant,
                c.op_index,
                c.kind.letter(),
                c.arrived.as_nanos(),
                c.admitted.as_nanos(),
                c.started.as_nanos(),
                c.finished.as_nanos(),
                c.commands,
                c.bytes,
                c.data_ok,
            ));
        }
        out
    }

    /// The engine's run artifact, built **exclusively** from always-on
    /// engine-side accounting (completion log, per-tenant histograms and
    /// counters) so it is byte-identical across observability settings.
    /// Per-tenant sections are scoped as `tenant[N].*`.
    pub fn report(&self) -> RunReport {
        let mut report = RunReport::new();
        report.set_meta("arch", self.sys.name());
        report.set_meta("engine", "tenants");
        report.set_meta("seed", self.seed.to_string());
        report.set_meta("tenants", self.tenants.len().to_string());
        let makespan = self.makespan();
        report.add_duration("engine.makespan", makespan);
        let total_bytes: u64 = self.tenants.iter().map(|rt| rt.bytes).sum();
        let weight_total: u64 = self.tenants.iter().map(|rt| rt.spec.weight.max(1)).sum();
        report
            .counters
            .insert("engine.bytes".to_owned(), total_bytes);
        report
            .counters
            .insert("engine.ops".to_owned(), self.completions.len() as u64);
        for (t, rt) in self.tenants.iter().enumerate() {
            let scope = format!("tenant[{t}]");
            report.counters.insert(format!("{scope}.ops"), rt.completed);
            report.counters.insert(format!("{scope}.bytes"), rt.bytes);
            report
                .counters
                .insert(format!("{scope}.commands"), rt.commands);
            report.counters.insert(
                format!("{scope}.max_outstanding"),
                u64::from(rt.max_outstanding),
            );
            report
                .counters
                .insert(format!("{scope}.weight"), rt.spec.weight.max(1));
            // Achieved throughput share in milli-units of the run total,
            // next to the configured weight share — the achieved-vs-
            // configured comparison of the QoS contract.
            let achieved = rt
                .bytes
                .saturating_mul(1000)
                .checked_div(total_bytes)
                .unwrap_or(0);
            report
                .counters
                .insert(format!("{scope}.share_milli"), achieved);
            let configured = rt.spec.weight.max(1).saturating_mul(1000) / weight_total.max(1);
            report
                .counters
                .insert(format!("{scope}.weight_share_milli"), configured);
            report.add_duration(format!("{scope}.busy"), rt.busy);
            report
                .histograms
                .insert(format!("{scope}.response"), rt.response.clone());
        }
        report
    }

    /// The engine report merged with the front-end's own
    /// [`run_report`](StorageFrontEnd::run_report) (under the `system.`
    /// prefix). Unlike [`report`](TrafficEngine::report), this varies
    /// with the observability configuration.
    pub fn full_report(&self) -> RunReport {
        let mut report = self.report();
        report.absorb_metrics(&self.metrics);
        report.merge_prefixed("system.", &self.sys.run_report());
        report
    }

    /// The front-end's causal trace with per-tenant attribution filled
    /// in: every trace id allocated during a tenant's setup or
    /// operations maps to that tenant in
    /// [`TraceExport::tenants`]. `None` when tracing is off.
    pub fn trace_export(&self) -> Option<TraceExport> {
        let mut export = self.sys.trace_export()?;
        let mut tenants: Vec<(u64, u32)> = Vec::new();
        for &(before, after, tenant) in &self.setup_traces {
            for id in before + 1..=after {
                tenants.push((id, tenant));
            }
        }
        for c in &self.completions {
            let (before, after) = c.trace_range;
            for id in before + 1..=after {
                tenants.push((id, c.tenant));
            }
        }
        tenants.sort_unstable();
        tenants.dedup();
        export.tenants = tenants;
        Some(export)
    }
}

/// Elements touched by an operation (product of its block shape).
fn op_volume(op: &TenantOp) -> u64 {
    op.sub_dims.iter().product::<u64>().max(1)
}

fn element_bytes(rt: &TenantRuntime, op: &TenantOp) -> u64 {
    rt.datasets
        .get(op.dataset)
        .map_or(1, |(_, _, e)| e.size() as u64)
}

/// The shape of dataspace `id`, resolved through its owner entry (owner
/// → tenant → namespace index) rather than a scan of every namespace.
/// Callers pass the isolation guard first.
fn shape_of<'a>(
    tenants: &'a [TenantRuntime],
    owners: &BTreeMap<DatasetId, (u32, usize)>,
    id: DatasetId,
) -> Result<&'a Shape, SystemError> {
    owners
        .get(&id)
        .and_then(|&(tenant, index)| tenants.get(tenant as usize)?.datasets.get(index))
        .map(|(_, shape, _)| shape)
        .ok_or(SystemError::UnknownDataset(id))
}

/// Builds the pattern payload for a region write into `payload`: byte `k`
/// is the pattern byte (dataset key `key`) at the region's dataset-linear
/// offset for `k`.
fn build_pattern(
    key: u64,
    shape: &Shape,
    coord: &[u64],
    sub_dims: &[u64],
    elem: u64,
    payload: &mut Vec<u8>,
) -> Result<(), SystemError> {
    let region = Region::from_request(shape, coord, sub_dims).map_err(SystemError::from)?;
    payload.clear();
    payload.resize((region.volume() * elem) as usize, 0);
    region.for_each_run(shape, |buf_off, linear, len| {
        let start = (buf_off * elem) as usize;
        let end = payload.len().min(start + (len * elem) as usize);
        if let Some(run) = payload.get_mut(start..end) {
            fill_pattern(key, linear * elem, run);
        }
    });
    Ok(())
}

/// Verifies a read buffer against the pattern (dataset key `key`),
/// byte-exactly: a buffer of the wrong length never verifies.
fn verify_pattern(
    key: u64,
    shape: &Shape,
    coord: &[u64],
    sub_dims: &[u64],
    elem: u64,
    buf: &[u8],
) -> Result<bool, SystemError> {
    let region = Region::from_request(shape, coord, sub_dims).map_err(SystemError::from)?;
    let mut ok = buf.len() as u64 == region.volume() * elem;
    region.for_each_run(shape, |buf_off, linear, len| {
        let start = (buf_off * elem) as usize;
        let end = buf.len().min(start + (len * elem) as usize);
        if let Some(run) = buf.get(start..end) {
            ok &= pattern_matches(key, linear * elem, run);
        }
    });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineSystem;
    use crate::config::SystemConfig;

    fn spec(kind: OpKind, total: u64) -> TenantSpec {
        TenantSpec {
            weight: 1,
            depth: 2,
            arrival: Arrival::Closed { outstanding: 1 },
            datasets: vec![(Shape::new([16, 16]), ElementType::F32)],
            ops: vec![TenantOp {
                kind,
                dataset: 0,
                coord: vec![0, 0],
                sub_dims: vec![16, 16],
            }],
            total_ops: total,
        }
    }

    fn engine(set: &TenantSet) -> TrafficEngine<BaselineSystem> {
        TrafficEngine::new(BaselineSystem::new(SystemConfig::small_test()), set).unwrap()
    }

    #[test]
    fn closed_pair_completes_all_ops_in_order() {
        let set = TenantSet::new(42)
            .with_tenant(spec(OpKind::Read, 3))
            .with_tenant(spec(OpKind::Write, 3));
        let mut e = engine(&set);
        e.run().unwrap();
        assert_eq!(e.completions().len(), 6);
        assert!(e.completions().iter().all(|c| c.data_ok));
        // Per-tenant op indices are monotone (closed, depth 2).
        for t in 0..2 {
            let idx: Vec<u64> = e
                .completions()
                .iter()
                .filter(|c| c.tenant == t)
                .map(|c| c.op_index)
                .collect();
            assert_eq!(idx, vec![0, 1, 2]);
        }
    }

    #[test]
    fn open_arrivals_are_seeded_and_deterministic() {
        let mut spec = spec(OpKind::Read, 5);
        spec.arrival = Arrival::Open {
            mean_gap: SimDuration::from_micros(50),
        };
        let set = TenantSet::new(7).with_tenant(spec);
        let mut a = engine(&set);
        a.run().unwrap();
        let mut b = engine(&set);
        b.run().unwrap();
        assert_eq!(a.completions(), b.completions());
        assert_eq!(a.journal_lines(), b.journal_lines());
        // Arrivals are strictly increasing sums of hashed gaps.
        let arrivals: Vec<SimTime> = a.completions().iter().map(|c| c.arrived).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().any(|&at| at > SimTime::ZERO));
    }

    #[test]
    fn guard_rejects_foreign_dataset() {
        let set = TenantSet::new(1)
            .with_tenant(spec(OpKind::Read, 1))
            .with_tenant(spec(OpKind::Read, 1));
        let e = engine(&set);
        let own = e.dataset_id(0, 0).unwrap();
        let foreign = e.dataset_id(1, 0).unwrap();
        assert!(e.guard(0, own).is_ok());
        let err = e.guard(0, foreign).unwrap_err();
        assert!(matches!(
            err,
            SystemError::TenantIsolation { tenant: 0, .. }
        ));
    }

    #[test]
    fn report_is_engine_side_and_scoped() {
        let set = TenantSet::new(3)
            .with_tenant(spec(OpKind::Read, 2))
            .with_tenant(spec(OpKind::Write, 2));
        let mut e = engine(&set);
        e.run().unwrap();
        let report = e.report();
        assert_eq!(report.counters.get("tenant[0].ops"), Some(&2));
        assert_eq!(report.counters.get("tenant[1].ops"), Some(&2));
        assert!(report.histograms.contains_key("tenant[0].response"));
        let shares: u64 = (0..2)
            .map(|t| {
                report
                    .counters
                    .get(&format!("tenant[{t}].share_milli"))
                    .copied()
                    .unwrap()
            })
            .sum();
        assert!(
            (999..=1001).contains(&shares),
            "shares sum to ~1000: {shares}"
        );
    }

    #[test]
    fn depth_limit_is_respected() {
        let mut s = spec(OpKind::Read, 8);
        s.depth = 2;
        s.arrival = Arrival::Closed { outstanding: 4 };
        let set = TenantSet::new(9).with_tenant(s);
        let mut e = engine(&set);
        e.run().unwrap();
        assert_eq!(e.completions().len(), 8);
        assert!(e.max_outstanding(0) <= 2);
    }

    /// The per-byte reference for dataset-linear bytes `[base, base + len)`.
    fn reference(key_args: (u64, u32, usize), base: u64, len: usize) -> Vec<u8> {
        let (seed, tenant, dataset) = key_args;
        (base..base + len as u64)
            .map(|off| tenant_pattern_byte(seed, tenant, dataset, off))
            .collect()
    }

    #[test]
    fn word_wise_pattern_matches_the_per_byte_reference() {
        let args = (0x5eed, 3, 1);
        let key = pattern_key(args.0, args.1, args.2);
        // Every start alignment, on the first word and further in, and
        // lengths that end inside, on, and past word edges.
        for base in (0..8).chain(8 * 37..8 * 37 + 8) {
            for len in 0..=70 {
                let want = reference(args, base, len);
                let mut got = vec![0xa5; len];
                fill_pattern(key, base, &mut got);
                assert_eq!(got, want, "fill base={base} len={len}");
                assert!(
                    pattern_matches(key, base, &want),
                    "verify base={base} len={len}"
                );
            }
        }
    }

    #[test]
    fn word_wise_verify_rejects_any_single_flipped_byte() {
        let args = (11, 0, 0);
        let key = pattern_key(args.0, args.1, args.2);
        for base in 0..8 {
            let good = reference(args, base, 40);
            for k in 0..good.len() {
                let mut bad = good.clone();
                bad[k] ^= 1;
                assert!(
                    !pattern_matches(key, base, &bad),
                    "flip at {k}, base {base}"
                );
            }
        }
    }

    #[test]
    fn region_pattern_round_trips_and_rejects_wrong_buffers() {
        let (seed, tenant, dataset) = (9, 2, 0);
        let key = pattern_key(seed, tenant, dataset);
        let shape = Shape::new([16, 16]);
        let (coord, sub_dims, elem) = ([1u64, 2], [4u64, 4], 4u64);
        let mut payload = Vec::new();
        build_pattern(key, &shape, &coord, &sub_dims, elem, &mut payload).unwrap();
        // Byte k of the payload is the reference byte at the region's
        // dataset-linear offset for k (runs along dimension 0).
        let want: Vec<u8> = (0..payload.len() as u64)
            .map(|k| {
                let (e, b) = (k / elem, k % elem);
                let linear = (coord[0] * 4 + e % 4) + 16 * (coord[1] * 4 + e / 4);
                tenant_pattern_byte(seed, tenant, dataset, linear * elem + b)
            })
            .collect();
        assert_eq!(payload, want);
        let verify =
            |buf: &[u8]| verify_pattern(key, &shape, &coord, &sub_dims, elem, buf).unwrap();
        assert!(verify(&payload));
        for k in 0..payload.len() {
            let mut bad = payload.clone();
            bad[k] ^= 0x80;
            assert!(!verify(&bad), "flipped byte {k} verified");
        }
        assert!(
            !verify(&payload[..payload.len() - 1]),
            "short buffer verified"
        );
        let mut long = payload.clone();
        long.push(0);
        assert!(!verify(&long), "long buffer verified");
        // Another tenant's bytes for the same region never verify.
        let mut foreign = Vec::new();
        let other = pattern_key(seed, tenant + 1, dataset);
        build_pattern(other, &shape, &coord, &sub_dims, elem, &mut foreign).unwrap();
        assert!(!verify(&foreign));
    }

    #[test]
    fn pattern_is_per_tenant_and_positional() {
        assert_ne!(
            tenant_pattern_byte(1, 0, 0, 0),
            tenant_pattern_byte(1, 1, 0, 0),
            "tenants have distinct patterns"
        );
        assert_eq!(
            tenant_pattern_byte(5, 3, 2, 77),
            tenant_pattern_byte(5, 3, 2, 77)
        );
    }
}
