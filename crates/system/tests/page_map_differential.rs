//! Differential test of the dense page maps behind `FlashBackend` and `Ftl`.
//!
//! Each production type is driven in lockstep with a reference twin that
//! keeps its maps in ordered `BTreeMap`s (the straightforward design the
//! dense tables replaced) and otherwise follows the same placement, garbage
//! collection and fault-recovery policy over its own identically configured
//! flash device. After every step both sides must agree on the physical page
//! and the bytes of every live handle or LBA. The sequences run on
//! `FlashConfig::small_test()` under GC pressure; the backend run also
//! installs a fault plan whose block retirements and read-disturb
//! migrations re-place pages across lanes.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use nds_core::{NvmBackend, UnitLocation};
use nds_faults::FaultConfig;
use nds_flash::{
    BlockAddr, FlashConfig, FlashDevice, FlashError, Ftl, FtlConfig, PageAddr, PageState,
};
use nds_sim::SimTime;
use nds_system::FlashBackend;

/// Seeded splitmix64 stream driving the operation sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A page image unique to `tag`, so a page relocated under the wrong
/// handle or LBA cannot go unnoticed.
fn image(tag: u64, len: usize) -> Vec<u8> {
    tag.to_le_bytes()
        .iter()
        .copied()
        .cycle()
        .take(len)
        .collect()
}

// ----------------------------------------------------------------------
// FlashBackend
// ----------------------------------------------------------------------

/// Reference twin of `FlashBackend`: the same policy with ordered maps.
struct MapBackend {
    device: FlashDevice,
    forward: BTreeMap<UnitLocation, PageAddr>,
    reverse: BTreeMap<PageAddr, UnitLocation>,
    next_id: Vec<u64>,
    stats: nds_sim::Stats,
}

impl MapBackend {
    fn new(config: FlashConfig) -> Self {
        let device = FlashDevice::new(config);
        let lanes = device.geometry().total_banks();
        MapBackend {
            device,
            forward: BTreeMap::new(),
            reverse: BTreeMap::new(),
            next_id: vec![0; lanes],
            stats: nds_sim::Stats::new(),
        }
    }

    fn physical_of(&self, loc: UnitLocation) -> Option<PageAddr> {
        self.forward.get(&loc).copied()
    }

    fn read_unit(&self, loc: UnitLocation) -> Option<&[u8]> {
        self.device.peek(*self.forward.get(&loc)?)
    }

    fn alloc_unit(&mut self, channel: u32, bank: u32) -> Option<UnitLocation> {
        self.maybe_gc(channel, bank).ok()?;
        if self.device.free_pages_in(channel as usize, bank as usize) == 0 {
            return None;
        }
        let lane = channel as usize * self.device.geometry().banks_per_channel + bank as usize;
        let unit = self.next_id[lane];
        self.next_id[lane] += 1;
        Some(UnitLocation {
            channel,
            bank,
            unit,
        })
    }

    fn release_unit(&mut self, loc: UnitLocation) {
        if let Some(page) = self.forward.remove(&loc) {
            self.reverse.remove(&page);
            let _ = self.device.invalidate(page);
        }
    }

    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) {
        if let Some(old) = self.forward.remove(&loc) {
            self.reverse.remove(&old);
            self.device.invalidate(old).unwrap();
            let _ = self.maybe_gc(loc.channel, loc.bank);
        }
        let page = self
            .device
            .find_free_page(loc.channel as usize, loc.bank as usize)
            .unwrap();
        self.device.program(page, data).unwrap();
        self.forward.insert(loc, page);
        self.reverse.insert(page, loc);
    }

    fn pages(&self, units: &[UnitLocation]) -> Vec<PageAddr> {
        units.iter().filter_map(|u| self.physical_of(*u)).collect()
    }

    fn try_schedule_unit_reads(
        &mut self,
        units: &[UnitLocation],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        let pages = self.pages(units);
        if pages.is_empty() {
            return Ok(ready);
        }
        let mut now = self.device.fault_read_batch(&pages, ready)?;
        for block in self.device.take_disturbed_blocks() {
            now = self.relocate_block(block, now)?;
            self.device.erase_block(block);
            now = self.device.schedule_erase(block, now);
            self.stats.add("faults.disturb_migrations", 1);
        }
        Ok(now)
    }

    fn try_schedule_unit_programs(
        &mut self,
        units: &[UnitLocation],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        let mut done = ready;
        for page in self.pages(units) {
            let mut end = self.device.schedule_programs(&[page], ready);
            if self.device.next_program_fault(page) {
                self.stats.add("retries.flash", 1);
                end = self.relocate_block(page.block_addr(), end)?;
                self.stats.add("faults.recovered", 1);
            }
            done = done.max(end);
        }
        Ok(done)
    }

    fn recovery_free_page(&mut self, c: usize, b: usize, avoid: BlockAddr) -> Option<PageAddr> {
        if let Some(p) = self.device.find_free_page_excluding(c, b, avoid) {
            return Some(p);
        }
        let g = *self.device.geometry();
        (0..g.channels)
            .flat_map(|c| (0..g.banks_per_channel).map(move |b| (c, b)))
            .find_map(|(c, b)| self.device.find_free_page_excluding(c, b, avoid))
    }

    fn relocate_block(
        &mut self,
        block: BlockAddr,
        mut now: SimTime,
    ) -> Result<SimTime, FlashError> {
        for p in 0..self.device.geometry().pages_per_block {
            let page = block.page(p);
            if self.device.page_state(page) != PageState::Valid {
                continue;
            }
            let data = self.device.peek(page).unwrap().to_vec();
            now = self.device.schedule_reads(&[page], now);
            let dest = match self
                .device
                .find_free_page_excluding(page.channel, page.bank, block)
            {
                Some(d) => d,
                None => {
                    self.maybe_gc(page.channel as u32, page.bank as u32)?;
                    if self.device.page_state(page) != PageState::Valid {
                        continue;
                    }
                    self.recovery_free_page(page.channel, page.bank, block)
                        .ok_or(FlashError::DeviceFull)?
                }
            };
            self.device.program(dest, data)?;
            now = self.device.schedule_programs(&[dest], now);
            let handle = self.reverse.remove(&page).unwrap();
            self.device.invalidate(page)?;
            self.forward.insert(handle, dest);
            self.reverse.insert(dest, handle);
            self.stats.add("faults.migrated", 1);
        }
        Ok(now)
    }

    fn free_page_outside(&mut self, c: usize, b: usize, avoid_block: usize) -> Option<PageAddr> {
        for _ in 0..self.device.geometry().pages_per_bank() {
            let page = self.device.find_free_page(c, b)?;
            if page.block != avoid_block {
                return Some(page);
            }
        }
        None
    }

    fn maybe_gc(&mut self, channel: u32, bank: u32) -> Result<(), FlashError> {
        let g = *self.device.geometry();
        let (c, b) = (channel as usize, bank as usize);
        let threshold = (g.pages_per_bank() as f64 * 0.10).ceil() as usize;
        let mut guard = 0;
        while self.device.free_pages_in(c, b) < threshold {
            guard += 1;
            if guard > g.blocks_per_bank {
                break;
            }
            let addr = |block| BlockAddr {
                channel: c,
                bank: b,
                block,
            };
            let victim = self
                .device
                .block_occupancy(c, b)
                .into_iter()
                .filter(|&(block, _, invalid)| {
                    invalid > 0 && !self.device.is_bad_block(addr(block))
                })
                .max_by_key(|&(block, _, invalid)| {
                    (
                        invalid,
                        std::cmp::Reverse(self.device.erase_count(addr(block))),
                    )
                });
            let Some((block, _, _)) = victim else {
                break;
            };
            for p in 0..g.pages_per_block {
                let page = addr(block).page(p);
                if self.device.page_state(page) != PageState::Valid {
                    continue;
                }
                let data = self.device.peek(page).unwrap().to_vec();
                let dest = self
                    .free_page_outside(c, b, block)
                    .ok_or(FlashError::DeviceFull)?;
                self.device.program(dest, data)?;
                let handle = self.reverse.remove(&page).unwrap();
                self.device.invalidate(page)?;
                self.forward.insert(handle, dest);
                self.reverse.insert(dest, handle);
                self.stats.add("backend.gc_relocated", 1);
            }
            self.device.erase_block(addr(block));
            self.stats.add("backend.gc_runs", 1);
        }
        Ok(())
    }
}

/// One step of the backend sequence.
enum Op {
    /// Allocate a handle in a lane and write it.
    Create(u32, u32),
    Overwrite(UnitLocation),
    Release(UnitLocation),
    /// Fault-aware reads of a batch: ECC retries and read disturb.
    Reads(Vec<UnitLocation>),
    /// A fault-aware program: a failure retires the block.
    Program(UnitLocation),
}

#[test]
fn flash_backend_maps_match_ordered_reference_under_gc_and_faults() {
    let faults = FaultConfig {
        seed: 0x5EED,
        media_read_rate: 0.05,
        media_program_rate: 0.02,
        read_retry_budget: 16,
        read_disturb_limit: 40,
        ..FaultConfig::disabled()
    };
    let mut dense = FlashBackend::new(FlashConfig::small_test());
    let mut reference = MapBackend::new(FlashConfig::small_test());
    dense.install_faults(faults);
    reference.device.install_faults(faults);

    let g = *dense.device().geometry();
    let unit = g.page_size;
    let lanes = g.total_banks();
    // Phase one: a random mix in which two hot lanes take most of the
    // traffic, so garbage collection runs often. Phase two fills the last
    // ("cold") lane with live data only, then faults its blocks: with no
    // room left at home, recovery re-places pages in other lanes.
    // `write_unit` cannot fail, so a handle is only written when its lane
    // is guaranteed a free page: right after `alloc_unit`, or while the
    // lane sits above the GC threshold.
    let cold = ((g.channels - 1) as u32, (g.banks_per_channel - 1) as u32);
    let max_live = g.total_pages() / 2;
    let room = g.pages_per_bank() / 10 + 1;
    let mut rng = Rng(42);
    let mut live: Vec<UnitLocation> = Vec::new();
    let mut data: BTreeMap<UnitLocation, Vec<u8>> = BTreeMap::new();
    let mut cold_full = false;
    let mut cross_lane_steps = 0;
    for step in 0..3000u64 {
        let pick = |rng: &mut Rng, from: &[UnitLocation]| from[rng.below(from.len())];
        let op = if step < 2000 {
            let lane = if rng.below(4) == 0 {
                rng.below(lanes - 1)
            } else {
                rng.below(2)
            };
            let (channel, bank) = (
                (lane / g.banks_per_channel) as u32,
                (lane % g.banks_per_channel) as u32,
            );
            let warm: Vec<UnitLocation> = live
                .iter()
                .copied()
                .filter(|l| (l.channel, l.bank) != cold)
                .collect();
            match rng.below(10) {
                0..=2 if live.len() < max_live => Op::Create(channel, bank),
                _ if warm.is_empty() => continue,
                3..=5 => Op::Overwrite(pick(&mut rng, &warm)),
                6 => Op::Release(pick(&mut rng, &warm)),
                7 | 8 => Op::Reads(
                    (0..1 + rng.below(8))
                        .map(|_| pick(&mut rng, &warm))
                        .collect(),
                ),
                9 => Op::Program(pick(&mut rng, &warm)),
                _ => continue,
            }
        } else if !cold_full {
            Op::Create(cold.0, cold.1)
        } else {
            let cold_live: Vec<UnitLocation> = live
                .iter()
                .copied()
                .filter(|l| (l.channel, l.bank) == cold)
                .collect();
            if step % 2 == 0 {
                Op::Reads((0..8).map(|_| pick(&mut rng, &cold_live)).collect())
            } else {
                Op::Program(pick(&mut rng, &cold_live))
            }
        };
        match op {
            Op::Create(channel, bank) => {
                let loc = dense.alloc_unit(channel, bank);
                assert_eq!(
                    loc,
                    reference.alloc_unit(channel, bank),
                    "step {step}: alloc"
                );
                match loc {
                    Some(loc) => {
                        let bytes = image(step, unit);
                        dense.write_unit(loc, &bytes);
                        reference.write_unit(loc, &bytes);
                        live.push(loc);
                        data.insert(loc, bytes);
                    }
                    None => cold_full |= (channel, bank) == cold,
                }
            }
            Op::Overwrite(loc) => {
                if dense.free_units(loc.channel, loc.bank) < room {
                    continue;
                }
                let bytes = image(step, unit);
                dense.write_unit(loc, &bytes);
                reference.write_unit(loc, &bytes);
                data.insert(loc, bytes);
            }
            Op::Release(loc) => {
                dense.release_unit(loc);
                reference.release_unit(loc);
                live.retain(|&l| l != loc);
                data.remove(&loc);
            }
            Op::Reads(batch) => assert_eq!(
                dense.try_schedule_unit_reads(&batch, SimTime::ZERO),
                reference.try_schedule_unit_reads(&batch, SimTime::ZERO),
                "step {step}: fault-aware reads"
            ),
            Op::Program(loc) => assert_eq!(
                dense.try_schedule_unit_programs(&[loc], SimTime::ZERO),
                reference.try_schedule_unit_programs(&[loc], SimTime::ZERO),
                "step {step}: fault-aware program"
            ),
        }
        let mut crossed = false;
        for &loc in &live {
            let page = dense.physical_of(loc);
            assert_eq!(page, reference.physical_of(loc), "step {step}: {loc} page");
            let expected = data.get(&loc).map(Vec::as_slice);
            assert_eq!(
                dense.read_unit(loc).as_deref(),
                expected,
                "step {step}: {loc} bytes"
            );
            assert_eq!(reference.read_unit(loc), expected);
            crossed |=
                page.is_some_and(|p| (p.channel as u32, p.bank as u32) != (loc.channel, loc.bank));
        }
        cross_lane_steps += usize::from(crossed);
        assert_eq!(dense.stats(), &reference.stats, "step {step}: counters");
        assert_eq!(dense.device().stats(), reference.device.stats());
    }
    // The sequence must have exercised every relocation path.
    let stats = dense.stats();
    assert!(stats.get("backend.gc_relocated") > 0, "{stats}");
    assert!(stats.get("faults.recovered") > 0, "{stats}");
    assert!(stats.get("faults.disturb_migrations") > 0, "{stats}");
    assert!(
        cross_lane_steps > 0,
        "no handle was re-placed outside its lane"
    );
}

// ----------------------------------------------------------------------
// Ftl
// ----------------------------------------------------------------------

/// Reference twin of the FTL's functional path: LBA striping, out-of-place
/// writes, trims and greedy GC, with an `Option` map and an ordered reverse
/// map.
struct MapFtl {
    device: FlashDevice,
    map: Vec<Option<PageAddr>>,
    reverse: BTreeMap<PageAddr, u64>,
}

impl MapFtl {
    fn new(capacity: u64) -> Self {
        MapFtl {
            device: FlashDevice::new(FlashConfig::small_test()),
            map: vec![None; capacity as usize],
            reverse: BTreeMap::new(),
        }
    }

    fn write(&mut self, lba: u64, payload: Vec<u8>) {
        let g = *self.device.geometry();
        let channel = lba as usize % g.channels;
        let bank = (lba as usize / g.channels) % g.banks_per_channel;
        if let Some(old) = self.map[lba as usize].take() {
            self.device.invalidate(old).unwrap();
            self.reverse.remove(&old);
        }
        self.gc(channel, bank);
        let target = self.device.find_free_page(channel, bank).unwrap();
        self.device.program(target, payload).unwrap();
        self.map[lba as usize] = Some(target);
        self.reverse.insert(target, lba);
    }

    fn trim(&mut self, lba: u64) {
        if let Some(addr) = self.map[lba as usize].take() {
            self.device.invalidate(addr).unwrap();
            self.reverse.remove(&addr);
        }
    }

    fn gc(&mut self, channel: usize, bank: usize) {
        let g = *self.device.geometry();
        let threshold =
            (g.pages_per_bank() as f64 * FtlConfig::default().gc_threshold).ceil() as usize;
        let mut guard = 0;
        while self.device.free_pages_in(channel, bank) < threshold {
            guard += 1;
            if guard > g.blocks_per_bank {
                break;
            }
            let addr = |block| BlockAddr {
                channel,
                bank,
                block,
            };
            let victim = self
                .device
                .block_occupancy(channel, bank)
                .into_iter()
                .filter(|&(_, _, invalid)| invalid > 0)
                .max_by_key(|&(block, _, invalid)| {
                    (
                        invalid,
                        std::cmp::Reverse(self.device.erase_count(addr(block))),
                    )
                });
            let Some((block, _, _)) = victim else {
                break;
            };
            for p in 0..g.pages_per_block {
                let page = addr(block).page(p);
                if self.device.page_state(page) != PageState::Valid {
                    continue;
                }
                let data = self.device.peek(page).unwrap().to_vec();
                let dest = self
                    .device
                    .find_free_page_excluding(channel, bank, addr(block))
                    .unwrap();
                self.device.program(dest, data).unwrap();
                let lba = self.reverse.remove(&page).unwrap();
                self.device.invalidate(page).unwrap();
                self.map[lba as usize] = Some(dest);
                self.reverse.insert(dest, lba);
            }
            self.device.erase_block(addr(block));
        }
    }
}

#[test]
fn ftl_maps_match_ordered_reference_under_gc() {
    let mut ftl = Ftl::new(
        FlashDevice::new(FlashConfig::small_test()),
        FtlConfig::default(),
    );
    let capacity = ftl.capacity_pages();
    let mut reference = MapFtl::new(capacity);
    let ps = ftl.page_size();
    let mut rng = Rng(7);
    let mut data: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for step in 0..3000u64 {
        // Three quarters of the LBA space: every lane keeps the spare pages
        // greedy GC needs to make progress.
        let lba = rng.below(capacity as usize * 3 / 4) as u64;
        if rng.below(10) == 0 {
            ftl.trim(lba).unwrap();
            reference.trim(lba);
            data.remove(&lba);
        } else {
            ftl.write(lba, image(step, ps), SimTime::ZERO).unwrap();
            reference.write(lba, image(step, ps));
            data.insert(lba, image(step, ps));
        }
        for l in 0..capacity {
            assert_eq!(
                ftl.physical_of(l),
                reference.map[l as usize],
                "step {step}: lba {l} page"
            );
            assert_eq!(
                ftl.peek(l),
                data.get(&l).map(Vec::as_slice),
                "step {step}: lba {l} bytes"
            );
        }
    }
    assert!(ftl.stats().get("ftl.gc_relocated") > 0, "{}", ftl.stats());
}
