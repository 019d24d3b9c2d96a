//! The STL core shared by software and hardware NDS.
//!
//! Both variants run the same STL over the same flash backend (§5, Fig. 7):
//! they differ only in where it runs and what crosses the link. [`NdsCore`]
//! holds what they share — the STL, the dataset table, and the op scope —
//! so each variant keeps only its own cost model.

use std::collections::BTreeMap;

use nds_core::{ElementType, Shape, SpaceId, Stl};
use nds_flash::FlashDevice;
use nds_sim::{RunReport, Stats, TraceExport};

use crate::config::SystemConfig;
use crate::error::SystemError;
use crate::flash_backend::FlashBackend;
use crate::frontend::DatasetId;
use crate::scope::OpScope;

/// An STL over a flash backend, its datasets, and the op scope
/// instrumenting them.
#[derive(Debug)]
pub(crate) struct NdsCore {
    pub(crate) stl: Stl<FlashBackend>,
    pub(crate) scope: OpScope,
    datasets: BTreeMap<DatasetId, SpaceId>,
    next_id: u64,
}

impl NdsCore {
    /// Builds the backend, the op scope, and the STL from a configuration.
    pub(crate) fn new(config: &SystemConfig) -> Self {
        let mut backend = FlashBackend::new(config.flash.clone());
        let scope = OpScope::new(config, backend.device_mut());
        NdsCore {
            stl: Stl::new(backend, config.stl),
            scope,
            datasets: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// The op scope and the flash device it instruments, borrowed together.
    pub(crate) fn scope_and_device(&mut self) -> (&mut OpScope, &mut FlashDevice) {
        (&mut self.scope, self.stl.backend_mut().device_mut())
    }

    /// Creates an STL space and registers it as a new dataset.
    pub(crate) fn create_dataset(
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

    /// Unregisters a dataset and deletes its STL space.
    pub(crate) fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
        let space = self
            .datasets
            .remove(&id)
            .ok_or(SystemError::UnknownDataset(id))?;
        self.stl.delete_space(space)?;
        Ok(())
    }

    /// The STL space backing dataset `id`.
    pub(crate) fn space_of(&self, id: DatasetId) -> Result<SpaceId, SystemError> {
        self.datasets
            .get(&id)
            .copied()
            .ok_or(SystemError::UnknownDataset(id))
    }

    /// Levels of `space`'s locator tree — one traversal per request is the
    /// STL's fixed per-request latency (§7.3).
    pub(crate) fn tree_levels(&self, space: SpaceId) -> usize {
        self.stl
            .space(space)
            .map(|s| s.tree().levels())
            .unwrap_or(2)
    }

    /// Front-end, link, backend and device counters plus the plan cache's.
    pub(crate) fn stats(&self) -> Stats {
        let mut s = self.scope.stats();
        s.merge(self.stl.backend().stats());
        s.merge(self.stl.backend().device().stats());
        s.add("stl.plan_cache.hits", self.stl.plan_cache().hits());
        s.add("stl.plan_cache.misses", self.stl.plan_cache().misses());
        s
    }

    /// The run report of architecture `arch`.
    pub(crate) fn run_report(&self, arch: &str) -> RunReport {
        self.scope
            .run_report(arch, &self.stats(), self.stl.backend().device())
    }

    /// The run's causal trace (see [`OpScope::trace_export`]).
    pub(crate) fn trace_export(&self) -> Option<TraceExport> {
        self.scope.trace_export(self.stl.backend().device())
    }
}
