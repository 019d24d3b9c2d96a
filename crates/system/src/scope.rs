//! The per-operation instrumentation shared by every front-end.
//!
//! A front-end models each operation in its own timing epoch anchored at
//! [`SimTime::ZERO`]: [`OpScope::reset_timing`] opens it, the cost model
//! schedules the device and the link, and `record_write`/`record_read`
//! account the outcome and fold its span into the run-long clocks. With
//! tracing on, [`OpScope::begin`]/[`OpScope::finish`] bracket the operation
//! with a trace id. Where the traced window sits differs per architecture
//! (DESIGN.md "Architecture notes"); the scope keeps each one's order.

use nds_flash::FlashDevice;
use nds_interconnect::Link;
use nds_sim::{
    record_command_partition, CommandTracer, ComponentId, Event, Observability, RunReport,
    SimDuration, SimTime, Stats, TraceContext, TraceExport, TraceStage,
};

use crate::config::SystemConfig;
use crate::frontend::{ReadMetrics, WriteOutcome};

/// Journal identity of the front-end's request-level span events.
const SYSTEM_COMPONENT: ComponentId = ComponentId::singleton("system");

/// A front-end's counters, observability and command tracer, plus the
/// host↔device link they instrument alongside the flash device.
#[derive(Debug)]
pub(crate) struct OpScope {
    /// The host↔device interconnect.
    pub(crate) link: Link,
    /// Front-end counters (commands and bytes per direction, …).
    pub(crate) stats: Stats,
    /// The front-end's own journal, histograms and metric series.
    pub(crate) obs: Observability,
    tracer: Option<CommandTracer>,
}

impl OpScope {
    /// Builds the scope for `config`: a new link, with the configured fault
    /// plan and observability installed on it and on `device`.
    pub(crate) fn new(config: &SystemConfig, device: &mut FlashDevice) -> Self {
        let mut link = Link::new(config.link);
        if let Some(faults) = config.faults {
            device.install_faults(faults);
            link.install_faults(faults);
        }
        device.configure_observability(&config.obs);
        link.configure_observability(&config.obs);
        let mut obs = Observability::disabled();
        obs.configure(&config.obs);
        OpScope {
            link,
            stats: Stats::new(),
            obs,
            tracer: config.obs.tracing.then(CommandTracer::new),
        }
    }

    /// Opens an operation's timing epoch on the device and the link.
    pub(crate) fn reset_timing(&mut self, device: &mut FlashDevice) {
        device.reset_timing();
        self.link.reset_timing();
    }

    /// Starts a traced command: allocates its trace context and tags the
    /// system, link, and device journals with it. Returns `None` (and does
    /// nothing) unless tracing is configured.
    pub(crate) fn begin(&mut self, device: &mut FlashDevice) -> Option<TraceContext> {
        let ctx = self.tracer.as_mut().map(|t| t.begin())?;
        self.obs.set_trace(ctx);
        device.begin_trace(ctx);
        self.link.begin_trace(ctx);
        Some(ctx)
    }

    /// Finishes a traced command: records its exact stage partition,
    /// clears the trace tags, and advances the trace clock by `latency`.
    pub(crate) fn finish(
        &mut self,
        device: &mut FlashDevice,
        ctx: TraceContext,
        op: &'static str,
        latency: SimDuration,
        stages: &[(TraceStage, SimDuration)],
    ) {
        record_command_partition(
            self.obs.journal_mut(),
            SYSTEM_COMPONENT,
            ctx,
            op,
            latency,
            stages,
        );
        self.obs.clear_trace();
        device.end_trace();
        self.link.end_trace();
        if let Some(t) = self.tracer.as_mut() {
            t.finish(latency);
        }
    }

    /// Accounts a finished write and ends its epoch after its latency.
    pub(crate) fn record_write(&mut self, device: &mut FlashDevice, out: &WriteOutcome) {
        self.stats.add("system.write_commands", out.commands);
        self.stats.add("system.write_bytes", out.bytes);
        self.host_op("write", out.bytes, out.latency);
        self.obs.latency("write.latency", out.latency);
        self.fold(device, out.latency);
    }

    /// Accounts a finished read and ends its epoch after its end-to-end
    /// latency.
    pub(crate) fn record_read(&mut self, device: &mut FlashDevice, out: &ReadMetrics) {
        let latency = out.latency();
        self.stats.add("system.read_commands", out.commands);
        self.stats.add("system.read_bytes", out.bytes);
        self.host_op("read", out.bytes, latency);
        self.obs.latency("read.io_latency", out.io_latency);
        self.obs.latency("read.latency", latency);
        self.fold(device, latency);
    }

    /// The host metrics and `system` span of one operation.
    fn host_op(&mut self, label: &'static str, bytes: u64, latency: SimDuration) {
        self.obs.metric_add(SimTime::ZERO, "host.ops", 1);
        self.obs.metric_add(SimTime::ZERO, "host.bytes", bytes);
        let journal = self.obs.journal_mut();
        journal.begin_span(SimTime::ZERO, SYSTEM_COMPONENT, label);
        journal.end_span(SimTime::ZERO + latency, SYSTEM_COMPONENT, label);
    }

    /// Ends the timing epoch by the operation's full span so per-lane
    /// timelines and metric series stay on the run-long clock (the link or
    /// a channel may have drained long before the operation finished).
    fn fold(&mut self, device: &mut FlashDevice, span: SimDuration) {
        device.fold_timing_epoch(span);
        self.link.fold_timing_epoch(span);
        self.obs.fold_metrics_epoch(span);
    }

    /// The front-end's counters plus the link's.
    pub(crate) fn stats(&self) -> Stats {
        let mut s = self.stats.clone();
        s.merge(self.link.stats());
        s
    }

    /// The run report of architecture `arch`: `stats` plus the journals,
    /// histograms, metric series and busy timelines of the front-end, the
    /// link and `device`.
    pub(crate) fn run_report(&self, arch: &str, stats: &Stats, device: &FlashDevice) -> RunReport {
        let mut report = stats.to_report();
        report.set_meta("arch", arch);
        report.absorb(&self.obs);
        report.absorb(self.link.observability());
        report.absorb(device.observability());
        if let Some(t) = self.link.wire_timeline() {
            report.add_timeline("link", t);
        }
        for (name, t) in device.timeline_snapshots() {
            report.add_timeline(name, t);
        }
        report
    }

    /// The run's causal trace: every trace-tagged event of the system,
    /// link and device journals, ordered by instant, plus `device`'s lane
    /// busy totals. `None` unless tracing is configured.
    pub(crate) fn trace_export(&self, device: &FlashDevice) -> Option<TraceExport> {
        let tracer = self.tracer.as_ref()?;
        let mut events: Vec<Event> = self.obs.journal().events().copied().collect();
        events.extend(self.link.observability().journal().events().copied());
        events.extend(device.observability().journal().events().copied());
        events.retain(|e| e.trace != 0);
        // Stable sort: ties keep source order (system, link, flash).
        events.sort_by_key(|e| e.at);
        let (channels, banks) = device.lane_busy_totals();
        Some(TraceExport {
            events,
            channels,
            banks,
            makespan: tracer.makespan(),
            tenants: Vec::new(),
        })
    }

    /// Trace ids allocated so far; 0 when tracing is off.
    pub(crate) fn trace_cursor(&self) -> u64 {
        self.tracer.as_ref().map_or(0, CommandTracer::commands)
    }
}
