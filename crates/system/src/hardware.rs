//! The hardware-assisted NDS system (Fig. 7c, §5.3).
//!
//! The STL runs inside the SSD controller (Fig. 8): the host issues a single
//! extended NVMe command per multi-dimensional request, the controller's
//! space translator and channel handlers fetch building blocks at full
//! internal bandwidth, the data assembler constructs the application object
//! in device DRAM, and only the finished object crosses the interconnect —
//! in saturating transfer chunks. The host never restructures anything.
//!
//! Costs unique to this architecture: the controller's per-request STL
//! latency (§7.3 measures 17 µs worst-case) and the ARM-class cores'
//! slower data handling, which shows up as the ~17% write penalty of §7.1.

use std::collections::BTreeMap;

use nds_core::{ElementType, Shape, SpaceId, Stl};
use nds_host::CpuModel;
use nds_interconnect::{wire, Link, NvmeCommand, QueuePair};
use nds_sim::{
    record_command_partition, CommandTracer, ComponentId, Event, EventKind, Observability,
    Resource, RunReport, SimDuration, SimTime, Stats, TraceContext, TraceExport, TraceStage,
};

use crate::config::{ControllerConfig, SystemConfig};
use crate::error::SystemError;
use crate::flash_backend::FlashBackend;
use crate::frontend::{DatasetId, ReadMetrics, ReadOutcome, StorageFrontEnd, WriteOutcome};

/// NDS with the STL embedded in the storage controller.
#[derive(Debug)]
pub struct HardwareNds {
    stl: Stl<FlashBackend>,
    link: Link,
    cpu: CpuModel,
    controller: ControllerConfig,
    transfer_chunk: u64,
    datasets: BTreeMap<DatasetId, SpaceId>,
    queue: QueuePair,
    next_id: u64,
    stats: Stats,
    obs: Observability,
    tracer: Option<CommandTracer>,
    /// The on-device data assembler; reset at the start of every read.
    assembler: Resource,
}

/// Journal identity of the front-end's request-level span events.
const SYSTEM_COMPONENT: ComponentId = ComponentId::singleton("system");

/// Journal identity of the NVMe submission/completion queue pair.
const QUEUE_COMPONENT: ComponentId = ComponentId::singleton("nvme.queue");

impl HardwareNds {
    /// Fixed cost of issuing one DMA descriptor in the on-device assembler.
    const DMA_DESCRIPTOR_COST: SimDuration = SimDuration::from_nanos(100);

    /// Builds a hardware-NDS system from a configuration.
    pub fn new(config: SystemConfig) -> Self {
        let mut backend = FlashBackend::new(config.flash.clone());
        let mut link = Link::new(config.link);
        if let Some(faults) = config.faults {
            backend.install_faults(faults);
            link.install_faults(faults);
        }
        backend.device_mut().configure_observability(&config.obs);
        link.configure_observability(&config.obs);
        let mut obs = Observability::disabled();
        obs.configure(&config.obs);
        HardwareNds {
            stl: Stl::new(backend, config.stl),
            link,
            cpu: config.cpu,
            controller: config.controller,
            transfer_chunk: config.nds_transfer_chunk,
            datasets: BTreeMap::new(),
            queue: QueuePair::new(64),
            next_id: 1,
            stats: Stats::new(),
            obs,
            tracer: config.obs.tracing.then(CommandTracer::new),
            assembler: Resource::new("nds.assembler"),
        }
    }

    /// Starts a traced command: allocates its trace context and tags the
    /// system, link, and device journals with it — before the NVMe queue
    /// events, so the extended command's submission is part of the trace.
    /// `None` unless tracing is configured.
    fn begin_command(&mut self) -> Option<TraceContext> {
        let ctx = self.tracer.as_mut().map(|t| t.begin())?;
        self.obs.set_trace(ctx);
        self.stl.backend_mut().device_mut().begin_trace(ctx);
        self.link.begin_trace(ctx);
        Some(ctx)
    }

    /// Finishes a traced command: records its exact stage partition,
    /// clears the trace tags, and advances the trace clock by `latency`.
    fn finish_command(
        &mut self,
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
        self.stl.backend_mut().device_mut().end_trace();
        self.link.end_trace();
        if let Some(t) = self.tracer.as_mut() {
            t.finish(latency);
        }
    }

    /// Marshals `cmd` through the real §5.3.1 wire codec and the submission
    /// queue, exactly as the host driver would: encode, submit, device pops
    /// and decodes. Returns the decoded command the controller executes.
    fn submit_command(&mut self, cmd: NvmeCommand) -> Result<NvmeCommand, SystemError> {
        let wired = wire::encode(&cmd)?;
        self.stats.add("nvme.wire_bytes", wired.wire_bytes());
        let wire_bytes = wired.wire_bytes();
        // The queue drains synchronously, so issue and completion share the
        // per-operation epoch anchor rather than carrying modeled time.
        self.obs.event(SimTime::ZERO, QUEUE_COMPONENT, || {
            EventKind::CommandIssued { bytes: wire_bytes }
        });
        self.queue.submit(cmd)?;
        if self.obs.metrics().is_enabled() {
            let depth = self.queue.in_flight() as u64;
            self.obs
                .metric_sample(SimTime::ZERO, "nvme.queue_depth", depth);
        }
        let popped = self
            .queue
            .device_pop()
            .ok_or(SystemError::Protocol("submitted command missing on pop"))?;
        let decoded = wire::decode(&wired)?;
        debug_assert_eq!(decoded, popped, "wire format must be faithful");
        self.queue.complete(popped);
        let _ = self.queue.reap();
        self.obs.event(SimTime::ZERO, QUEUE_COMPONENT, || {
            EventKind::CommandCompleted { bytes: wire_bytes }
        });
        Ok(decoded)
    }

    /// The controller-resident STL (exposed for overhead experiments).
    pub fn stl(&self) -> &Stl<FlashBackend> {
        &self.stl
    }

    fn space_of(&self, id: DatasetId) -> Result<SpaceId, SystemError> {
        self.datasets
            .get(&id)
            .copied()
            .ok_or(SystemError::UnknownDataset(id))
    }

    /// The controller pipeline's fixed per-request latency for `space`
    /// (Fig. 8; one B-tree traversal per request, §7.3).
    fn stl_latency(&self, space: SpaceId) -> SimDuration {
        let levels = self
            .stl
            .space(space)
            .map(|s| s.tree().levels())
            .unwrap_or(2);
        self.controller.pipeline.request_latency(levels)
    }

    /// Device-side assembler time: DMA descriptors per segment plus the
    /// assembler's internal bandwidth over the payload.
    fn assemble_time(&self, segments: u64, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        Self::DMA_DESCRIPTOR_COST * segments
            + self.controller.assemble_bandwidth.time_for_bytes(bytes)
    }

    /// Controller decomposition time on writes: the ARM cores scatter the
    /// incoming object into page images.
    fn decompose_time(&self, segments: u64, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.controller.scatter_chunk_overhead * segments
            + self.controller.assemble_bandwidth.time_for_bytes(bytes)
    }

    /// Link time for shipping `bytes` in saturating chunks.
    fn chunked_link_time(&mut self, bytes: u64) -> Result<SimDuration, SystemError> {
        if bytes == 0 {
            return Ok(SimDuration::ZERO);
        }
        let mut remaining = bytes;
        let mut end = SimTime::ZERO;
        while remaining > 0 {
            let take = remaining.min(self.transfer_chunk);
            end = self.link.try_transfer(take, SimTime::ZERO)?;
            remaining -= take;
        }
        Ok(end.saturating_since(SimTime::ZERO))
    }
}

impl StorageFrontEnd for HardwareNds {
    fn name(&self) -> &'static str {
        "hardware-nds"
    }

    fn create_dataset(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<DatasetId, SystemError> {
        let space = self.stl.create_space(shape, element)?;
        let id = DatasetId(self.next_id);
        self.next_id += 1;
        self.datasets.insert(id, space);
        Ok(id)
    }

    fn write(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteOutcome, SystemError> {
        let space = self.space_of(id)?;
        let ctx = self.begin_command();
        // The request travels as one extended NVMe write (§5.3.1); validate
        // it against the interface limits, then marshal it through the real
        // wire codec and submission queue.
        let cmd = NvmeCommand::NdsWrite {
            space: nds_interconnect::SpaceId(space.0),
            coord: coord.to_vec(),
            sub_dims: sub_dims.to_vec(),
        };
        cmd.validate()?;
        let (coord, sub_dims) = match self.submit_command(cmd)? {
            NvmeCommand::NdsWrite {
                coord, sub_dims, ..
            } => (coord, sub_dims),
            _ => return Err(SystemError::Protocol("decoded write changed command kind")),
        };
        let report = self.stl.write(space, view, &coord, &sub_dims, data)?;
        self.stl.backend_mut().device_mut().reset_timing();
        self.link.reset_timing();

        // One extended NVMe command; the object streams in over the link,
        // the controller decomposes it, the channel handlers program pages.
        let submit = self.cpu.submit_time(1);
        let link = self.chunked_link_time(report.access.bytes)?;
        let decompose = self.decompose_time(report.access.segments, report.access.bytes);
        let mut program_end = SimTime::ZERO;
        for block in &report.access.blocks {
            let backend = self.stl.backend_mut();
            program_end =
                program_end.max(backend.try_schedule_unit_programs(&block.units, SimTime::ZERO)?);
        }
        let stl = self.stl_latency(space);
        let program_tail = program_end.saturating_since(SimTime::ZERO);
        let latency = stl + submit + link + decompose + program_tail;

        self.stats.add("system.write_commands", 1);
        self.stats.add("system.write_bytes", report.access.bytes);
        self.obs.metric_add(SimTime::ZERO, "host.ops", 1);
        self.obs
            .metric_add(SimTime::ZERO, "host.bytes", report.access.bytes);
        self.obs
            .journal_mut()
            .begin_span(SimTime::ZERO, SYSTEM_COMPONENT, "write");
        self.obs
            .journal_mut()
            .end_span(SimTime::ZERO + latency, SYSTEM_COMPONENT, "write");
        self.obs.latency("write.latency", latency);
        if let Some(ctx) = ctx {
            // The write is a strict chronological chain: controller STL
            // lookup, NVMe submission, the object streaming over the link,
            // controller decomposition, then the channel programs.
            let stages = [
                (TraceStage::Other, stl),
                (TraceStage::Queue, submit),
                (TraceStage::Link, link),
                (TraceStage::Restructure, decompose),
                (TraceStage::Flash, program_tail),
            ];
            self.finish_command(ctx, "write", latency, &stages);
        }
        // End the timing epoch by the operation's full span so per-lane
        // timelines stay on the run-long clock.
        self.stl
            .backend_mut()
            .device_mut()
            .fold_timing_epoch(latency);
        self.link.fold_timing_epoch(latency);
        self.obs.fold_metrics_epoch(latency);
        Ok(WriteOutcome {
            latency,
            commands: 1,
            bytes: report.access.bytes,
        })
    }

    fn read(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<ReadOutcome, SystemError> {
        let mut data = Vec::new();
        let metrics = self.read_into(id, view, coord, sub_dims, &mut data)?;
        Ok(metrics.into_outcome(data))
    }

    fn read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        let space = self.space_of(id)?;
        let ctx = self.begin_command();
        // The request travels as one extended NVMe read (§5.3.1), marshalled
        // through the real wire codec and submission queue.
        let cmd = NvmeCommand::NdsRead {
            space: nds_interconnect::SpaceId(space.0),
            coord: coord.to_vec(),
            sub_dims: sub_dims.to_vec(),
        };
        cmd.validate()?;
        let (coord, sub_dims) = match self.submit_command(cmd)? {
            NvmeCommand::NdsRead {
                coord, sub_dims, ..
            } => (coord, sub_dims),
            _ => return Err(SystemError::Protocol("decoded read changed command kind")),
        };
        let report = self.stl.read_into(space, view, &coord, &sub_dims, buf)?;
        self.stl.backend_mut().device_mut().reset_timing();
        self.link.reset_timing();

        // Device: all covered blocks stream concurrently at internal
        // bandwidth; the assembler and the link pipeline behind them. The
        // assembler is reset here rather than after the read, so an error
        // part-way through leaves no state behind for the next one.
        self.assembler.reset();
        let mut first_block = SimDuration::ZERO;
        let mut dev_end = SimTime::ZERO;
        let blocks = report.blocks.len().max(1) as u64;
        let seg_per_block = report.segments.div_ceil(blocks);
        let bytes_per_block = report.bytes.div_ceil(blocks);
        let asm_per_block = self.assemble_time(seg_per_block, bytes_per_block);
        let mut asm_end = SimTime::ZERO;
        for (i, block) in report.blocks.iter().enumerate() {
            if block.units.is_empty() {
                continue;
            }
            let backend = self.stl.backend_mut();
            let end = backend.try_schedule_unit_reads(&block.units, SimTime::ZERO)?;
            if i == 0 {
                first_block = end.saturating_since(SimTime::ZERO);
            }
            dev_end = dev_end.max(end);
            asm_end = asm_end.max(self.assembler.acquire(end, asm_per_block));
        }
        let link = self.chunked_link_time(report.bytes)?;
        let submit = self.cpu.submit_time(1);
        let stl = self.stl_latency(space);
        let asm_dur = asm_end.saturating_since(SimTime::ZERO);
        let region = asm_dur.max(link + first_block);
        let io_latency = stl + submit + region;
        // Steady-state pacing: device lanes, the in-device assembler, and
        // the wire drain their aggregate work concurrently.
        let io_occupancy = self
            .stl
            .backend()
            .device()
            .throughput_occupancy()
            .max(self.assembler.busy_time())
            .max(self.link.busy_time());

        self.stats.add("system.read_commands", 1);
        self.stats.add("system.read_bytes", report.bytes);
        self.obs.metric_add(SimTime::ZERO, "host.ops", 1);
        self.obs
            .metric_add(SimTime::ZERO, "host.bytes", report.bytes);
        self.obs
            .journal_mut()
            .begin_span(SimTime::ZERO, SYSTEM_COMPONENT, "read");
        self.obs
            .journal_mut()
            .end_span(SimTime::ZERO + io_latency, SYSTEM_COMPONENT, "read");
        self.obs.latency("read.io_latency", io_latency);
        self.obs.latency("read.latency", io_latency);
        if let Some(ctx) = ctx {
            // After the fixed STL + submission prefix, the critical path of
            // the remaining region is either the in-device assembler (flash
            // streaming, then assembly) or the wire (the first block, then
            // the chunked transfer draining behind it).
            let mut stages = Vec::with_capacity(4);
            stages.push((TraceStage::Other, stl));
            stages.push((TraceStage::Queue, submit));
            if asm_dur >= link + first_block {
                let flash = dev_end.saturating_since(SimTime::ZERO).min(region);
                stages.push((TraceStage::Flash, flash));
                stages.push((TraceStage::Restructure, region - flash));
            } else {
                let flash = first_block.min(region);
                stages.push((TraceStage::Flash, flash));
                stages.push((TraceStage::Link, region - flash));
            }
            self.finish_command(ctx, "read", io_latency, &stages);
        }
        self.stl
            .backend_mut()
            .device_mut()
            .fold_timing_epoch(io_latency);
        self.link.fold_timing_epoch(io_latency);
        self.obs.fold_metrics_epoch(io_latency);
        Ok(ReadMetrics {
            io_latency,
            io_occupancy,
            restructure: SimDuration::ZERO,
            commands: 1,
            bytes: report.bytes,
        })
    }

    fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
        let space = self
            .datasets
            .remove(&id)
            .ok_or(SystemError::UnknownDataset(id))?;
        self.stl.delete_space(space)?;
        self.stats.add("system.delete_commands", 1);
        Ok(())
    }

    fn stats(&self) -> Stats {
        let mut s = self.stats.clone();
        s.merge(self.link.stats());
        s.merge(self.stl.backend().stats());
        s.merge(self.stl.backend().device().stats());
        s.add("stl.plan_cache.hits", self.stl.plan_cache().hits());
        s.add("stl.plan_cache.misses", self.stl.plan_cache().misses());
        s
    }

    fn run_report(&self) -> RunReport {
        let mut report = self.stats().to_report();
        report.set_meta("arch", self.name());
        report.absorb(&self.obs);
        report.absorb(self.link.observability());
        report.absorb(self.stl.backend().device().observability());
        if let Some(t) = self.link.wire_timeline() {
            report.add_timeline("link", t);
        }
        for (name, t) in self.stl.backend().device().timeline_snapshots() {
            report.add_timeline(name, t);
        }
        report
    }

    fn trace_export(&self) -> Option<TraceExport> {
        let tracer = self.tracer.as_ref()?;
        let mut events: Vec<Event> = self.obs.journal().events().copied().collect();
        events.extend(self.link.observability().journal().events().copied());
        events.extend(
            self.stl
                .backend()
                .device()
                .observability()
                .journal()
                .events()
                .copied(),
        );
        events.retain(|e| e.trace != 0);
        events.sort_by_key(|e| e.at);
        let (channels, banks) = self.stl.backend().device().lane_busy_totals();
        Some(TraceExport {
            events,
            channels,
            banks,
            makespan: tracer.makespan(),
            tenants: Vec::new(),
        })
    }

    fn trace_cursor(&self) -> u64 {
        self.tracer.as_ref().map_or(0, CommandTracer::commands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::software::SoftwareNds;

    fn system() -> HardwareNds {
        HardwareNds::new(SystemConfig::small_test())
    }

    #[test]
    fn round_trip_with_one_command() {
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<u8> = (0..64 * 64 * 4).map(|i| (i % 251) as u8).collect();
        let w = sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        assert_eq!(w.commands, 1, "one extended NVMe command per write");
        let r = sys.read(id, &shape, &[1, 0], &[32, 64]).unwrap();
        assert_eq!(r.commands, 1, "one extended NVMe command per read");
        assert_eq!(r.restructure, SimDuration::ZERO);
        for (i, &b) in r.data.iter().enumerate() {
            let x = (i / 4) % 32 + 32;
            let y = (i / 4) / 32;
            let src = (x + 64 * y) * 4 + i % 4;
            assert_eq!(b, (src % 251) as u8);
        }
    }

    #[test]
    fn hardware_beats_software_on_tile_reads() {
        let config = SystemConfig::small_test();
        let shape = Shape::new([128, 128]);
        let data = vec![1u8; 128 * 128 * 4];

        let mut hw = HardwareNds::new(config.clone());
        let id = hw.create_dataset(shape.clone(), ElementType::F32).unwrap();
        hw.write(id, &shape, &[0, 0], &[128, 128], &data).unwrap();
        let hw_read = hw.read(id, &shape, &[1, 1], &[64, 64]).unwrap();

        let mut sw = SoftwareNds::new(config);
        let id = sw.create_dataset(shape.clone(), ElementType::F32).unwrap();
        sw.write(id, &shape, &[0, 0], &[128, 128], &data).unwrap();
        let sw_read = sw.read(id, &shape, &[1, 1], &[64, 64]).unwrap();

        assert!(
            hw_read.latency() <= sw_read.latency(),
            "hardware {} should not trail software {}",
            hw_read.latency(),
            sw_read.latency()
        );
    }

    #[test]
    fn write_latency_exceeds_read_latency() {
        // NAND programs are far slower than reads; sanity-check the model.
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![1u8; 64 * 64 * 4];
        let w = sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[64, 64]).unwrap();
        assert!(w.latency > r.latency());
    }

    #[test]
    fn stl_latency_floor() {
        // Even a tiny read pays the controller's per-request STL latency.
        let mut sys = system();
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![1u8; 64 * 64 * 4];
        sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[1, 1]).unwrap();
        assert!(r.io_latency >= sys.controller.pipeline.request_latency(2));
    }

    #[test]
    fn empty_dataset_read_is_cheap_but_valid() {
        let mut sys = system();
        let shape = Shape::new([32, 32]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let r = sys.read(id, &shape, &[0, 0], &[32, 32]).unwrap();
        assert!(r.data.iter().all(|&b| b == 0));
        assert_eq!(r.bytes, 32 * 32 * 4);
    }
}
