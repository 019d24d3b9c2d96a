//! Layer replays: the request stream a workload's devices saw, fed into
//! the public APIs of single layers on the same geometry.
//!
//! * core — `Stl<MemBackend>`: `plan`, `plan_cached`, `read_into`, `write`.
//! * flash — a bare `FlashDevice`: `program`, `peek`, `schedule_reads`,
//!   `schedule_programs`, with each request's pages laid out round-robin
//!   over the lanes of a log-structured ring.
//! * interconnect — `Link::transfer` per request, and `WfqScheduler`
//!   `enqueue`/`pop` over the tenant weights of `tenant_mix`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use nds_core::{DeviceSpec, MemBackend, SpaceId, Stl};
use nds_flash::{FlashDevice, PageAddr};
use nds_interconnect::{Link, WfqScheduler};
use nds_sim::SimTime;
use nds_system::SystemConfig;

use crate::spans::Request;

/// Dataset bytes the core replay keeps resident; requests on datasets
/// beyond it are skipped.
const CORE_BYTES: u64 = 192 << 20;
/// Pages the flash replay's ring spans at most.
const RING_PAGES: usize = 32 * 1024;
/// Requests each replay takes from the stream at most.
const MAX_REQUESTS: usize = 20_000;

/// Per-call samples and totals of one replay.
#[derive(Debug, Default)]
pub struct Replays {
    /// `name → per-call nanoseconds`.
    pub calls: BTreeMap<&'static str, Vec<u64>>,
    /// `name → (total nanoseconds, units)` for per-unit rates.
    pub rates: BTreeMap<&'static str, (u64, u64)>,
}

impl Replays {
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.calls
            .entry(name)
            .or_default()
            .push(t.elapsed().as_nanos() as u64);
        out
    }

    fn rate(&mut self, name: &'static str, elapsed: Duration, units: u64) {
        let e = self.rates.entry(name).or_default();
        e.0 += elapsed.as_nanos() as u64;
        e.1 += units;
    }
}

/// Replays `stream` into the core, flash and interconnect layers of
/// `config`, with WFQ flows weighted by `weights`.
///
/// # Errors
///
/// The first layer call that failed.
pub fn replay(
    stream: &[Request],
    config: &SystemConfig,
    weights: &[u64],
) -> Result<Replays, String> {
    let stream = &stream[..stream.len().min(MAX_REQUESTS)];
    let mut out = Replays::default();
    core(stream, config, &mut out)?;
    flash(stream, config, &mut out)?;
    interconnect(stream, config, weights, &mut out)?;
    Ok(out)
}

fn core(stream: &[Request], config: &SystemConfig, out: &mut Replays) -> Result<(), String> {
    let g = config.flash.geometry;
    let spec = DeviceSpec::new(
        g.channels as u32,
        g.banks_per_channel as u32,
        g.page_size as u32,
    );
    let backend = MemBackend::new(spec, g.blocks_per_bank * g.pages_per_block);
    let mut stl = Stl::new(backend, config.stl);
    let mut spaces: BTreeMap<u64, Option<SpaceId>> = BTreeMap::new();
    let mut resident = 0u64;
    let mut buf = Vec::new();
    let mut payload = Vec::new();
    for req in stream {
        let (shape, element) = &req.space;
        let space = *spaces.entry(req.dataset).or_insert_with(|| {
            let bytes = shape.volume() * element.size() as u64;
            if resident + bytes > CORE_BYTES {
                return None;
            }
            resident += bytes;
            let id = stl.create_space(shape.clone(), *element).ok()?;
            let full = vec![0xa5; bytes as usize];
            let zeros = vec![0; shape.ndims()];
            stl.write(id, shape, &zeros, shape.dims(), &full).ok()?;
            Some(id)
        });
        let Some(id) = space else { continue };
        let err = |e| format!("core replay: {e}");
        out.call("core.plan", || {
            stl.plan(id, &req.view, &req.coord, &req.sub_dims)
        })
        .map(black_box)
        .map_err(err)?;
        out.call("core.plan_cached", || {
            stl.plan_cached(id, &req.view, &req.coord, &req.sub_dims)
        })
        .map(black_box)
        .map_err(err)?;
        if req.write {
            payload.resize(req.bytes() as usize, 0x5a);
            out.call("core.stl_write", || {
                stl.write(id, &req.view, &req.coord, &req.sub_dims, &payload)
            })
            .map(black_box)
            .map_err(err)?;
        } else {
            out.call("core.stl_read_into", || {
                stl.read_into(id, &req.view, &req.coord, &req.sub_dims, &mut buf)
            })
            .map(black_box)
            .map_err(err)?;
        }
    }
    Ok(())
}

/// A log-structured ring of pages striped round-robin over every lane.
struct Ring {
    channels: usize,
    banks: usize,
    pages_per_block: usize,
    per_lane: usize,
    next: usize,
    len: usize,
}

impl Ring {
    fn addr(&self, pos: usize) -> PageAddr {
        let lanes = self.channels * self.banks;
        let lane = pos % lanes;
        let q = (pos / lanes) % self.per_lane;
        PageAddr {
            channel: lane % self.channels,
            bank: lane / self.channels,
            block: q / self.pages_per_block,
            page: q % self.pages_per_block,
        }
    }

    fn capacity(&self) -> usize {
        self.channels * self.banks * self.per_lane
    }
}

fn flash(stream: &[Request], config: &SystemConfig, out: &mut Replays) -> Result<(), String> {
    let g = config.flash.geometry;
    let mut dev = FlashDevice::new(config.flash.clone());
    let lanes = g.channels * g.banks_per_channel;
    let per_lane = (RING_PAGES / lanes)
        .min(g.blocks_per_bank * g.pages_per_block)
        .max(g.pages_per_block)
        / g.pages_per_block
        * g.pages_per_block;
    let mut ring = Ring {
        channels: g.channels,
        banks: g.banks_per_channel,
        pages_per_block: g.pages_per_block,
        per_lane,
        next: 0,
        len: 0,
    };
    let template = vec![0x3c_u8; g.page_size];
    let mut pages = Vec::new();
    let mut payloads = Vec::new();
    for (i, req) in stream.iter().enumerate() {
        let count = (req.bytes().div_ceil(g.page_size as u64) as usize).min(ring.capacity());
        pages.clear();
        if req.write || ring.len == 0 {
            for _ in 0..count {
                let pos = ring.next % ring.capacity();
                let addr = ring.addr(pos);
                if addr.page == 0 && ring.len >= ring.capacity() {
                    dev.erase_block(addr.block_addr());
                }
                pages.push(addr);
                ring.next += 1;
                ring.len = (ring.len + 1).min(ring.capacity());
            }
            payloads.clear();
            payloads.resize(count, template.clone());
            let t = Instant::now();
            for (addr, data) in pages.iter().zip(payloads.drain(..)) {
                dev.program(*addr, data)
                    .map_err(|e| format!("flash replay: {e}"))?;
            }
            out.rate("flash.program", t.elapsed(), count as u64);
            let t = Instant::now();
            black_box(dev.schedule_programs(&pages, SimTime::ZERO));
            out.rate("flash.schedule_programs", t.elapsed(), count as u64);
        }
        if !req.write {
            let start = ring.next + ring.capacity() - ring.len + (i * 7919) % ring.len;
            pages.clear();
            pages.extend((0..count).map(|k| ring.addr((start + k) % ring.capacity())));
            let t = Instant::now();
            for addr in &pages {
                black_box(dev.peek(*addr));
            }
            out.rate("flash.peek", t.elapsed(), count as u64);
            let t = Instant::now();
            black_box(dev.schedule_reads(&pages, SimTime::ZERO));
            out.rate("flash.schedule_reads", t.elapsed(), count as u64);
        }
    }
    Ok(())
}

fn interconnect(
    stream: &[Request],
    config: &SystemConfig,
    weights: &[u64],
    out: &mut Replays,
) -> Result<(), String> {
    let mut link = Link::new(config.link);
    let t = Instant::now();
    for req in stream {
        black_box(link.transfer(req.bytes(), SimTime::ZERO));
    }
    out.rate("interconnect.transfer", t.elapsed(), stream.len() as u64);

    let flows = weights.len().max(1) as u32;
    let mut wfq: WfqScheduler<usize> = WfqScheduler::new();
    for (f, &w) in weights.iter().enumerate() {
        wfq.register(f as u32, w);
    }
    // Keep four operations per flow queued, as the tenants' depth does.
    let depth = 4 * flows as usize;
    let t = Instant::now();
    for (i, req) in stream.iter().enumerate() {
        wfq.enqueue(i as u32 % flows, req.bytes().max(1), i)
            .map_err(|e| format!("wfq replay: {e:?}"))?;
        if wfq.len() >= depth {
            black_box(wfq.pop());
        }
    }
    while let Some(x) = wfq.pop() {
        black_box(x);
    }
    out.rate("interconnect.wfq", t.elapsed(), stream.len() as u64);
    Ok(())
}
