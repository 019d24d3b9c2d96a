//! The adapter that lets the STL run over the flash simulator.
//!
//! The STL allocates *stable unit handles* in `(channel, bank)` lanes; this
//! adapter maps each handle to a physical flash page and keeps the mapping
//! fresh across NAND's out-of-place constraints: rewriting a handle programs
//! a new page, and lane-local garbage collection relocates live pages and
//! erases dead blocks when free space runs low. The handle indirection is
//! the reproduction's version of the paper's reverse lookup table (§4.2),
//! which exists so that physical relocation never invalidates the STL's
//! building-block unit lists.
//!
//! Both directions of the indirection are dense integer tables that grow
//! with use: per lane, a handle-id-indexed forward table and a
//! page-offset-indexed reverse table, so a lookup is two array loads.
//!
//! The adapter also exposes the *timing* face of unit accesses
//! ([`schedule_unit_reads`](FlashBackend::schedule_unit_reads) and friends),
//! which the NDS system architectures use to charge channels and banks.

use std::borrow::Cow;

use nds_core::{DeviceSpec, NvmBackend, UnitLocation};
use nds_faults::FaultConfig;
use nds_flash::{BlockAddr, FlashConfig, FlashDevice, FlashError, PageAddr, PageState};
use nds_sim::{SimTime, Stats};

/// Fraction of a lane's pages below which garbage collection triggers
/// (the paper's "typically 10%", §4.2).
const GC_THRESHOLD: f64 = 0.10;

/// An [`NvmBackend`] over the flash simulator with handle indirection and
/// lane-local garbage collection.
///
/// # Example
///
/// ```
/// use nds_core::NvmBackend;
/// use nds_flash::FlashConfig;
/// use nds_system::FlashBackend;
///
/// let mut backend = FlashBackend::new(FlashConfig::small_test());
/// let loc = backend.alloc_unit(0, 0).unwrap();
/// backend.write_unit(loc, &vec![7; backend.spec().unit_bytes as usize]);
/// assert_eq!(backend.read_unit(loc).unwrap()[0], 7);
/// ```
#[derive(Debug)]
pub struct FlashBackend {
    device: FlashDevice,
    /// Per handle lane, indexed by handle id: the dense index + 1 of the
    /// handle's current page (0: unwritten or released). A lane's length is
    /// its next handle id; ids are never reused.
    forward: Vec<Vec<u32>>,
    /// Per page lane, indexed by the page's offset within its lane: the
    /// [`key`](Self::key_of) of the handle whose live copy the page holds
    /// (0: none). Recovery may place a handle's page outside its own lane,
    /// so entries name the full handle. Grows up to the highest offset used.
    reverse: Vec<Vec<u32>>,
    /// Scratch for the timing face: the pages behind one batch of units.
    pages: Vec<PageAddr>,
    stats: Stats,
}

impl FlashBackend {
    /// Creates a backend over a fresh flash device. The handle tables start
    /// empty and grow with the handles and pages actually used.
    ///
    /// # Panics
    ///
    /// Panics if the device has `u32::MAX` pages or more: the forward table
    /// stores a page index + 1 in a `u32`.
    pub fn new(config: FlashConfig) -> Self {
        let device = FlashDevice::new(config);
        let total = device.geometry().total_pages();
        assert!(
            u32::try_from(total).is_ok_and(|t| t < u32::MAX),
            "{total} flash pages overflow the backend's u32 page table"
        );
        let lanes = device.geometry().total_banks();
        FlashBackend {
            device,
            forward: vec![Vec::new(); lanes],
            reverse: vec![Vec::new(); lanes],
            pages: Vec::new(),
            stats: Stats::new(),
        }
    }

    /// The wrapped flash device.
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Mutable device access (timing resets between measurements).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.device
    }

    /// Adapter counters (`backend.gc_runs`, `backend.gc_relocated`, and
    /// under a fault plan `retries.flash`, `faults.recovered`,
    /// `faults.migrated`, `faults.disturb_migrations`).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Installs a deterministic media-fault plan on the wrapped device.
    /// The `try_schedule_unit_*` timing calls then inject and recover from
    /// faults; the plain `schedule_unit_*` calls stay fault-free.
    pub fn install_faults(&mut self, config: FaultConfig) {
        self.device.install_faults(config);
    }

    /// The lane index of `(channel, bank)`, if it names a lane.
    fn lane_of(&self, channel: u32, bank: u32) -> Option<usize> {
        let g = self.device.geometry();
        let (channel, bank) = (channel as usize, bank as usize);
        (channel < g.channels && bank < g.banks_per_channel)
            .then_some(channel * g.banks_per_channel + bank)
    }

    /// The physical page currently backing `loc`, if any.
    pub fn physical_of(&self, loc: UnitLocation) -> Option<PageAddr> {
        let lane = self.lane_of(loc.channel, loc.bank)?;
        let slot = *self
            .forward
            .get(lane)?
            .get(usize::try_from(loc.unit).ok()?)?;
        Some(
            self.device
                .geometry()
                .page_at(slot.checked_sub(1)? as usize),
        )
    }

    /// The reverse-table key of a handle `alloc_unit` returned:
    /// `unit × lanes + lane + 1`. `None` for any other handle.
    fn key_of(&self, loc: UnitLocation) -> Option<u32> {
        let lane = self.lane_of(loc.channel, loc.bank)?;
        if loc.unit >= self.forward.get(lane)?.len() as u64 {
            return None;
        }
        Self::encode_key(self.forward.len(), lane, loc.unit)
    }

    fn encode_key(lanes: usize, lane: usize, unit: u64) -> Option<u32> {
        let key = unit
            .checked_mul(lanes as u64)?
            .checked_add(lane as u64 + 1)?;
        u32::try_from(key).ok()
    }

    /// The forward-table slot of the handle with reverse key `key`.
    fn forward_slot(&mut self, key: u32) -> Option<&mut u32> {
        let lanes = self.forward.len();
        let rest = key.checked_sub(1)? as usize;
        self.forward.get_mut(rest % lanes)?.get_mut(rest / lanes)
    }

    /// The reverse-table cell of `page`: its lane and its offset there.
    fn reverse_cell(&self, page: PageAddr) -> (usize, usize) {
        let g = self.device.geometry();
        (
            page.channel * g.banks_per_channel + page.bank,
            page.block * g.pages_per_block + page.page,
        )
    }

    /// The reverse-table slot of `page`, if the table has reached it.
    fn reverse_slot(&mut self, page: PageAddr) -> Option<&mut u32> {
        let (lane, offset) = self.reverse_cell(page);
        self.reverse.get_mut(lane)?.get_mut(offset)
    }

    /// Maps the handle with key `key` to `page` in both tables.
    fn bind(&mut self, key: u32, page: PageAddr) {
        // `new` bounds every page index below `u32::MAX`.
        let index = self.device.geometry().page_index(page) as u32 + 1;
        if let Some(slot) = self.forward_slot(key) {
            *slot = index;
        }
        let (lane, offset) = self.reverse_cell(page);
        if let Some(table) = self.reverse.get_mut(lane) {
            if table.len() <= offset {
                table.resize(offset + 1, 0);
            }
        }
        if let Some(slot) = self.reverse_slot(page) {
            *slot = key;
        }
    }

    /// Clears the mapping of the handle with key `key`, returning the page
    /// that backed it.
    fn unbind(&mut self, key: u32) -> Option<PageAddr> {
        let index = std::mem::take(self.forward_slot(key)?).checked_sub(1)?;
        let page = self.device.geometry().page_at(index as usize);
        if let Some(slot) = self.reverse_slot(page) {
            *slot = 0;
        }
        Some(page)
    }

    /// Removes and returns the key of the handle whose live copy is `page`.
    fn take_owner(&mut self, page: PageAddr) -> Option<u32> {
        self.reverse_slot(page)
            .map(std::mem::take)
            .filter(|&key| key != 0)
    }

    /// Resolves `units` to their backing pages (skipping unwritten ones) in
    /// the reused scratch buffer and runs `f` on them.
    fn with_pages<R>(
        &mut self,
        units: &[UnitLocation],
        f: impl FnOnce(&mut Self, &[PageAddr]) -> R,
    ) -> R {
        let mut pages = std::mem::take(&mut self.pages);
        pages.clear();
        pages.extend(units.iter().filter_map(|&u| self.physical_of(u)));
        let out = f(self, &pages);
        self.pages = pages;
        out
    }

    // ------------------------------------------------------------------
    // Timing face
    // ------------------------------------------------------------------

    /// Schedules reads of `units`, returning the batch completion time.
    /// Units without backing pages (never written) cost nothing.
    pub fn schedule_unit_reads(&mut self, units: &[UnitLocation], ready: SimTime) -> SimTime {
        self.with_pages(units, |b, pages| b.device.schedule_reads(pages, ready))
    }

    /// Schedules programs of `units`, returning the batch completion time.
    pub fn schedule_unit_programs(&mut self, units: &[UnitLocation], ready: SimTime) -> SimTime {
        self.with_pages(units, |b, pages| b.device.schedule_programs(pages, ready))
    }

    /// Fault-aware twin of [`schedule_unit_reads`](Self::schedule_unit_reads):
    /// every page read draws from the installed plan, pays its ECC retries,
    /// and any block past the read-disturb limit is preventively migrated
    /// before the call returns. Schedule-identical to the plain call when no
    /// plan (or a zero rate) is installed.
    ///
    /// # Errors
    ///
    /// [`FlashError::ReadUnrecoverable`] if a page exhausts the retry
    /// budget; [`FlashError::DeviceFull`] if a migration cannot re-place a
    /// live page.
    pub fn try_schedule_unit_reads(
        &mut self,
        units: &[UnitLocation],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        self.with_pages(units, |b, pages| {
            if pages.is_empty() {
                return Ok(ready);
            }
            let done = b.device.fault_read_batch(pages, ready)?;
            b.service_disturbed(done)
        })
    }

    /// Fault-aware twin of
    /// [`schedule_unit_programs`](Self::schedule_unit_programs): every page
    /// program draws from the installed plan. A permanent program failure
    /// retires the block on the spot; the just-written unit and every other
    /// live page of the block are re-placed in the same lane (the re-program
    /// doubles as the retry), all on the modeled timeline.
    /// Schedule-identical to the plain call when no plan is installed.
    ///
    /// # Errors
    ///
    /// [`FlashError::DeviceFull`] if recovery cannot re-place a page even
    /// after garbage collection.
    pub fn try_schedule_unit_programs(
        &mut self,
        units: &[UnitLocation],
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        self.with_pages(units, |b, pages| {
            let mut done = ready;
            for &page in pages {
                let mut end = b.device.schedule_programs(&[page], ready);
                if b.device.next_program_fault(page) {
                    // The failed program already spent its bus + program
                    // time; recovery relocates the whole retired block,
                    // including the unit that was just written.
                    b.stats.add("retries.flash", 1);
                    end = b.relocate_block(page.block_addr(), end)?;
                    b.stats.add("faults.recovered", 1);
                }
                done = done.max(end);
            }
            Ok(done)
        })
    }

    /// Relocates and erases blocks past the read-disturb limit.
    fn service_disturbed(&mut self, mut now: SimTime) -> Result<SimTime, FlashError> {
        for block in self.device.take_disturbed_blocks() {
            now = self.relocate_block(block, now)?;
            self.device.erase_block(block);
            now = self.device.schedule_erase(block, now);
            self.stats.add("faults.disturb_migrations", 1);
        }
        Ok(now)
    }

    /// Free-page search for recovery paths only: the home lane first, then
    /// any lane — a fault must not strand data while the device still has
    /// space somewhere. Foreground allocation never takes this path.
    /// `avoid` is the block being evacuated; destinations inside it would
    /// be lost to its upcoming erase.
    fn recovery_free_page(
        &mut self,
        channel: usize,
        bank: usize,
        avoid: BlockAddr,
    ) -> Option<PageAddr> {
        if let Some(p) = self.device.find_free_page_excluding(channel, bank, avoid) {
            return Some(p);
        }
        let g = *self.device.geometry();
        for c in 0..g.channels {
            for b in 0..g.banks_per_channel {
                if let Some(p) = self.device.find_free_page_excluding(c, b, avoid) {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Moves every valid page of `block` to a fresh page in the same lane,
    /// updating the handle maps and charging the moves to the timeline.
    /// A valid page without data or a reverse-map entry means the
    /// device/backend bookkeeping diverged and surfaces as `PageNotValid`.
    fn relocate_block(
        &mut self,
        block: BlockAddr,
        mut now: SimTime,
    ) -> Result<SimTime, FlashError> {
        let g = *self.device.geometry();
        for p in 0..g.pages_per_block {
            let page = block.page(p);
            if self.device.page_state(page) != PageState::Valid {
                continue;
            }
            let data = self
                .device
                .peek(page)
                .ok_or(FlashError::PageNotValid(page))?
                .to_vec();
            now = self.device.schedule_reads(&[page], now);
            // Copy-then-invalidate: secure the destination before touching
            // the source, so an allocation failure leaves the old copy
            // mapped and readable instead of stranding the handle.
            let dest = match self
                .device
                .find_free_page_excluding(page.channel, page.bank, block)
            {
                Some(d) => d,
                None => {
                    self.maybe_gc(page.channel as u32, page.bank as u32)?;
                    // GC may have relocated (or erased) the page under us;
                    // if so its mapping is already fresh — nothing to move.
                    if self.device.page_state(page) != PageState::Valid {
                        continue;
                    }
                    self.recovery_free_page(page.channel, page.bank, block)
                        .ok_or(FlashError::DeviceFull)?
                }
            };
            self.device.program(dest, data)?;
            now = self.device.schedule_programs(&[dest], now);
            let key = self
                .take_owner(page)
                .ok_or(FlashError::PageNotValid(page))?;
            self.device.invalidate(page)?;
            self.bind(key, dest);
            self.stats.add("faults.migrated", 1);
        }
        Ok(now)
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    // GC relocations rely on bookkeeping invariants (valid pages have data
    // and reverse entries; over-provisioning guarantees a free destination).
    // A violated invariant surfaces as a typed error instead of a panic.
    fn maybe_gc(&mut self, channel: u32, bank: u32) -> Result<(), FlashError> {
        let g = *self.device.geometry();
        let threshold = ((g.pages_per_bank() as f64) * GC_THRESHOLD).ceil() as usize;
        let mut guard = 0;
        while self.device.free_pages_in(channel as usize, bank as usize) < threshold {
            guard += 1;
            if guard > g.blocks_per_bank {
                break;
            }
            let victim = self
                .device
                .block_occupancy(channel as usize, bank as usize)
                .into_iter()
                .filter(|&(block, _, invalid)| {
                    invalid > 0
                        && !self.device.is_bad_block(BlockAddr {
                            channel: channel as usize,
                            bank: bank as usize,
                            block,
                        })
                })
                .max_by_key(|&(block, _, invalid)| {
                    let wear = self.device.erase_count(BlockAddr {
                        channel: channel as usize,
                        bank: bank as usize,
                        block,
                    });
                    (invalid, std::cmp::Reverse(wear))
                });
            let Some((block, valid, invalid)) = victim else {
                break;
            };
            let victim_addr = BlockAddr {
                channel: channel as usize,
                bank: bank as usize,
                block,
            };
            self.device.observability_mut().event(
                nds_sim::SimTime::ZERO,
                nds_sim::ComponentId::singleton("gc"),
                || nds_sim::EventKind::GcVictimPicked {
                    channel,
                    bank,
                    block: block as u32,
                    valid: valid as u32,
                    invalid: invalid as u32,
                },
            );
            if valid > 0 {
                for p in 0..g.pages_per_block {
                    let page = victim_addr.page(p);
                    if self.device.page_state(page) != PageState::Valid {
                        continue;
                    }
                    let data = self
                        .device
                        .peek(page)
                        .ok_or(FlashError::PageNotValid(page))?
                        .to_vec();
                    // Relocate within the same lane, avoiding the victim.
                    // Copy-then-invalidate: a lane with no room left keeps
                    // the old copy mapped and readable.
                    let dest = self
                        .find_free_page_avoiding(channel, bank, block)
                        .ok_or(FlashError::DeviceFull)?;
                    self.device.program(dest, data)?;
                    let key = self
                        .take_owner(page)
                        .ok_or(FlashError::PageNotValid(page))?;
                    self.device.invalidate(page)?;
                    self.bind(key, dest);
                    self.stats.add("backend.gc_relocated", 1);
                }
            }
            self.device.erase_block(victim_addr);
            self.stats.add("backend.gc_runs", 1);
        }
        Ok(())
    }

    fn find_free_page_avoiding(
        &mut self,
        channel: u32,
        bank: u32,
        avoid_block: usize,
    ) -> Option<PageAddr> {
        for _ in 0..self.device.geometry().pages_per_bank() {
            let page = self
                .device
                .find_free_page(channel as usize, bank as usize)?;
            if page.block != avoid_block {
                return Some(page);
            }
        }
        None
    }
}

impl NvmBackend for FlashBackend {
    fn spec(&self) -> DeviceSpec {
        let g = self.device.geometry();
        DeviceSpec::new(
            g.channels as u32,
            g.banks_per_channel as u32,
            g.page_size as u32,
        )
    }

    fn alloc_unit(&mut self, channel: u32, bank: u32) -> Option<UnitLocation> {
        // A GC bookkeeping error means the lane cannot be trusted to hold
        // the unit; report it as exhausted.
        self.maybe_gc(channel, bank).ok()?;
        // A handle is just an id; the physical page is chosen at write time
        // (NAND programs are the real commitment).
        let lane = self.lane_of(channel, bank)?;
        if self.device.free_pages_in(channel as usize, bank as usize) == 0 {
            return None;
        }
        let lanes = self.forward.len();
        let ids = self.forward.get_mut(lane)?;
        let unit = ids.len() as u64;
        // A handle whose key no longer fits the reverse table's u32 cannot
        // be tracked: the lane is out of handles.
        Self::encode_key(lanes, lane, unit)?;
        ids.push(0);
        Some(UnitLocation {
            channel,
            bank,
            unit,
        })
    }

    fn release_unit(&mut self, loc: UnitLocation) {
        if let Some(page) = self.key_of(loc).and_then(|key| self.unbind(key)) {
            let _ = self.device.invalidate(page);
        }
    }

    fn free_units(&self, channel: u32, bank: u32) -> usize {
        self.device.free_pages_in(channel as usize, bank as usize)
    }

    fn read_unit(&self, loc: UnitLocation) -> Option<Cow<'_, [u8]>> {
        self.device.peek(self.physical_of(loc)?).map(Cow::Borrowed)
    }

    // The Backend trait makes writes infallible and lets them panic on a
    // handle alloc_unit never returned; alloc_unit reserved lane space, so
    // the free-page lookup and program cannot fail here.
    #[allow(clippy::expect_used)]
    fn write_unit(&mut self, loc: UnitLocation, data: &[u8]) {
        let key = self.key_of(loc).expect("unit handle was allocated");
        // Out-of-place: supersede any existing page for this handle.
        if let Some(old) = self.unbind(key) {
            self.device
                .invalidate(old)
                .expect("mapped page must be valid");
            // The write still has its reserved page if GC bails out early.
            let _ = self.maybe_gc(loc.channel, loc.bank);
        }
        let page = self
            .device
            .find_free_page(loc.channel as usize, loc.bank as usize)
            .expect("alloc_unit guaranteed lane space");
        self.device.program(page, data).expect("page is free");
        self.bind(key, page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> FlashBackend {
        FlashBackend::new(FlashConfig::small_test())
    }

    fn unit_bytes(b: &FlashBackend) -> usize {
        b.spec().unit_bytes as usize
    }

    #[test]
    fn handles_round_trip_data() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(1, 1).unwrap();
        b.write_unit(loc, &vec![0xCD; n]);
        assert_eq!(b.read_unit(loc).unwrap().as_ref(), vec![0xCD; n].as_slice());
    }

    #[test]
    fn rewrite_moves_physically_but_handle_stays() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(0, 0).unwrap();
        b.write_unit(loc, &vec![1; n]);
        let first = b.physical_of(loc).unwrap();
        b.write_unit(loc, &vec![2; n]);
        let second = b.physical_of(loc).unwrap();
        assert_ne!(first, second, "NAND rewrite must relocate");
        assert_eq!(b.read_unit(loc).unwrap()[0], 2);
    }

    #[test]
    fn release_invalidates() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let loc = b.alloc_unit(2, 0).unwrap();
        b.write_unit(loc, &vec![9; n]);
        b.release_unit(loc);
        assert!(b.read_unit(loc).is_none());
    }

    #[test]
    fn gc_reclaims_space_under_rewrite_pressure() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let per_bank = b.device().geometry().pages_per_bank();
        let loc = b.alloc_unit(0, 0).unwrap();
        for round in 0..(per_bank * 3) as u64 {
            b.write_unit(loc, &vec![(round % 251) as u8; n]);
        }
        assert!(b.stats().get("backend.gc_runs") > 0);
        assert_eq!(
            b.read_unit(loc).unwrap()[0],
            ((per_bank * 3 - 1) % 251) as u8,
            "data survives GC"
        );
    }

    #[test]
    fn gc_relocation_keeps_other_handles_intact() {
        let mut b = backend();
        let n = unit_bytes(&b);
        // Interleave long-lived pages with a hammered handle so that GC
        // victims contain live data that must be relocated.
        let hot = b.alloc_unit(0, 0).unwrap();
        let mut stable = Vec::new();
        for i in 0..24u64 {
            let s = b.alloc_unit(0, 0).unwrap();
            b.write_unit(s, &vec![(100 + i) as u8; n]);
            stable.push(s);
            b.write_unit(hot, &vec![0; n]);
            b.write_unit(hot, &vec![0; n]);
        }
        let per_bank = b.device().geometry().pages_per_bank();
        for i in 0..(per_bank * 2) as u64 {
            b.write_unit(hot, &vec![(i % 200) as u8; n]);
        }
        assert!(b.stats().get("backend.gc_relocated") > 0);
        for (i, s) in stable.iter().enumerate() {
            assert_eq!(
                b.read_unit(*s).unwrap()[0],
                (100 + i) as u8,
                "stable handle {i} lost its data across GC"
            );
        }
    }

    #[test]
    fn timing_scheduling_uses_physical_lanes() {
        let mut b = backend();
        let n = unit_bytes(&b);
        let channels = b.device().geometry().channels as u32;
        let units: Vec<UnitLocation> = (0..channels)
            .map(|c| {
                let loc = b.alloc_unit(c, 0).unwrap();
                b.write_unit(loc, &vec![0; n]);
                loc
            })
            .collect();
        let parallel = b.schedule_unit_reads(&units, SimTime::ZERO);
        b.device_mut().reset_timing();
        // All in one channel: serialized.
        let serial_units: Vec<UnitLocation> = (0..channels as u64)
            .map(|_| {
                let loc = b.alloc_unit(0, 0).unwrap();
                b.write_unit(loc, &vec![0; n]);
                loc
            })
            .collect();
        let serial = b.schedule_unit_reads(&serial_units, SimTime::ZERO);
        assert!(serial > parallel);
    }

    #[test]
    fn unwritten_units_cost_nothing() {
        let mut b = backend();
        let loc = b.alloc_unit(0, 0).unwrap();
        assert_eq!(b.schedule_unit_reads(&[loc], SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn spec_mirrors_geometry() {
        let b = backend();
        let g = b.device().geometry();
        let s = b.spec();
        assert_eq!(s.channels as usize, g.channels);
        assert_eq!(s.banks_per_channel as usize, g.banks_per_channel);
        assert_eq!(s.unit_bytes as usize, g.page_size);
    }
}
