//! `bulk_matrix`: Fig. 9-style bulk access to a 4096² f64 matrix on the
//! baseline, software-NDS and hardware-NDS front-ends at paper scale.
//!
//! A pass runs the three architectures one after another (so only one
//! matrix is resident at a time): build the system, populate the matrix
//! with a positional byte pattern, then issue the pass's seeded stream of
//! full-width row panels, full-height column panels, submatrix reads and
//! submatrix overwrites. Every read is compared with a host mirror of the
//! matrix that applies each overwrite.

use std::time::{Duration, Instant};

use nds_core::{ElementType, Shape};
use nds_system::{BaselineSystem, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig};

use crate::spans::Traced;
use crate::{add_device_counts, fill_payload, for_each_row, mix, timed, Exact, Pass, Phase};

/// Matrix side in elements.
pub const N: u64 = 4096;
const ELEM: u64 = 8;

/// Groups of five operations per pass; each group holds one row panel,
/// one column panel, two submatrix reads and one submatrix overwrite in a
/// seeded order.
const GROUPS: usize = 12;
/// Panel thicknesses (rows or columns), one per group, before jitter; no
/// jittered value is a multiple of 256.
const PANELS: [u64; GROUPS] = [64, 96, 128, 160, 192, 288, 320, 352, 384, 416, 448, 512];
/// Submatrix sides, before jitter; the pass uses each three times.
const SIDES: [u64; GROUPS] = [
    256, 320, 384, 448, 512, 640, 768, 896, 1024, 1280, 1536, 2048,
];

/// What an operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read a full-width panel of rows.
    RowPanel,
    /// Read a full-height panel of columns.
    ColPanel,
    /// Read a submatrix.
    SubRead,
    /// Overwrite a submatrix with a salted payload.
    SubWrite,
}

/// One operation: a partition `(coord, sub_dims)` of the `[N, N]` view
/// (fastest dimension first: `[column, row]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// What the operation does.
    pub kind: Kind,
    /// Partition coordinate.
    pub coord: [u64; 2],
    /// Partition extent.
    pub sub_dims: [u64; 2],
    /// Payload salt of a write.
    pub salt: u64,
}

/// A size near `base`, moved by a seeded non-zero multiple of 8 so that
/// partition offsets do not fall on 256-element building-block edges.
fn jitter(base: u64, h: u64) -> u64 {
    let j = 8 * (1 + h % 7);
    if base + j <= 2048 {
        base + j
    } else {
        base - j
    }
}

/// The seeded operation stream of one pass. Every seed uses the same
/// multiset of kinds and (before jitter) sizes, so the work per pass
/// barely depends on the seed; order, offsets and jitter do.
pub fn ops(seed: u64) -> Vec<Op> {
    let perm = |salt: u64| {
        let mut idx: Vec<usize> = (0..GROUPS).collect();
        idx.sort_by_key(|&i| mix(seed ^ salt ^ i as u64));
        idx
    };
    let (panels, sides) = (perm(0x70a4), [perm(0x51da), perm(0x51db), perm(0x51dc)]);
    let mut out = Vec::with_capacity(GROUPS * 5);
    for g in 0..GROUPS {
        let mut kinds = [
            Kind::RowPanel,
            Kind::ColPanel,
            Kind::SubRead,
            Kind::SubRead,
            Kind::SubWrite,
        ];
        kinds.sort_by_key(|k| mix(seed ^ ((g as u64) << 8) ^ *k as u64));
        let mut sub_reads = 0;
        for (slot, kind) in kinds.into_iter().enumerate() {
            let h = mix(seed ^ 0xb01c ^ ((g * 5 + slot) as u64));
            let op = match kind {
                Kind::RowPanel | Kind::ColPanel => {
                    let t = jitter(PANELS[panels[g]], h);
                    let c = (h >> 8) % (N / t);
                    if kind == Kind::RowPanel {
                        Op {
                            kind,
                            coord: [0, c],
                            sub_dims: [N, t],
                            salt: 0,
                        }
                    } else {
                        Op {
                            kind,
                            coord: [c, 0],
                            sub_dims: [t, N],
                            salt: 0,
                        }
                    }
                }
                Kind::SubRead | Kind::SubWrite => {
                    let which = if kind == Kind::SubWrite { 2 } else { sub_reads };
                    if kind == Kind::SubRead {
                        sub_reads += 1;
                    }
                    let s = jitter(SIDES[sides[which][g]], h);
                    let (cx, cy) = ((h >> 8) % (N / s), (h >> 24) % (N / s));
                    let salt = if kind == Kind::SubWrite { h | 1 } else { 0 };
                    Op {
                        kind,
                        coord: [cx, cy],
                        sub_dims: [s, s],
                        salt,
                    }
                }
            };
            out.push(op);
        }
    }
    out
}

/// Byte `i` of the populated matrix: a positional pattern.
fn fill_pattern(buf: &mut Vec<u8>) {
    let period: Vec<u8> = (0..251u8).collect();
    buf.clear();
    buf.reserve((N * N * ELEM) as usize);
    while buf.len() < (N * N * ELEM) as usize {
        let take = period.len().min((N * N * ELEM) as usize - buf.len());
        buf.extend_from_slice(&period[..take]);
    }
}

/// Host buffers reused across passes. The payload and read buffers are
/// sized for the largest operation up front, so the process's memory
/// does not depend on which sizes the seed picked.
struct Buffers {
    mirror: Vec<u8>,
    payload: Vec<u8>,
    read: Vec<u8>,
}

impl Buffers {
    fn new() -> Self {
        let largest = (2048 * 2048 * ELEM) as usize;
        Buffers {
            mirror: Vec::new(),
            payload: vec![0; largest],
            read: vec![0; largest],
        }
    }
}

/// Sets up one architecture and runs the pass's stream on it.
fn run_arch<S: StorageFrontEnd>(
    phase: &mut Phase,
    pass: &mut Pass,
    exact: &mut Exact,
    stream: &[Op],
    bufs: &mut Buffers,
    build: impl FnOnce() -> S,
) -> Result<(), String> {
    let shape = Shape::new([N, N]);
    let setup_start = Instant::now();
    let (mut sys, id) = crate::spans::paused(|| {
        let mut sys = build();
        fill_pattern(&mut bufs.mirror);
        let id = sys
            .create_dataset(shape.clone(), ElementType::F64)
            .map_err(|e| format!("{}: create: {e}", sys.name()))?;
        let populate = Instant::now();
        sys.write(id, &shape, &[0, 0], &[N, N], &bufs.mirror)
            .map_err(|e| format!("{}: populate: {e}", sys.name()))?;
        let mib = (N * N * ELEM) as f64 / (1 << 20) as f64;
        phase.sample(
            "system.populate.mib_per_s",
            mib / populate.elapsed().as_secs_f64(),
        );
        Ok::<_, String>((sys, id))
    })?;
    pass.setup.push(setup_start.elapsed());

    let Buffers {
        mirror,
        payload,
        read,
    } = bufs;
    for op in stream {
        phase.attempted += 1;
        let ok = if op.kind == Kind::SubWrite {
            timed(&mut phase.verify, || {
                payload.resize((op.sub_dims[0] * op.sub_dims[1] * ELEM) as usize, 0);
                fill_payload(payload, op.salt);
            });
            let out = pass.unit(|| sys.write(id, &shape, &op.coord, &op.sub_dims, payload));
            timed(&mut phase.verify, || match out {
                Ok(o) => {
                    for_each_row(&op.coord, &op.sub_dims, N, ELEM, |b, m| {
                        mirror[m].copy_from_slice(&payload[b])
                    });
                    pass.bytes += o.bytes;
                    pass.modeled_ns += o.latency.as_nanos();
                    *exact.entry("system.commands").or_default() += o.commands as f64;
                    true
                }
                Err(_) => false,
            })
        } else {
            let out = pass.unit(|| sys.read_into(id, &shape, &op.coord, &op.sub_dims, read));
            timed(&mut phase.verify, || match out {
                Ok(m) => {
                    let mut same = read.len() as u64 == m.bytes;
                    for_each_row(&op.coord, &op.sub_dims, N, ELEM, |b, r| {
                        same &= read.get(b) == mirror.get(r)
                    });
                    pass.bytes += m.bytes;
                    pass.modeled_ns += m.latency().as_nanos();
                    *exact.entry("system.commands").or_default() += m.commands as f64;
                    same
                }
                Err(_) => false,
            })
        };
        pass.ops += u64::from(ok);
        phase.failed += u64::from(!ok);
    }
    add_device_counts(exact, &sys.stats());
    Ok(())
}

/// Runs `bulk_matrix` passes until `budget` of measured time.
///
/// # Errors
///
/// A failed setup or a changed exact count.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Result<Phase, String> {
    let config = SystemConfig::paper_scale();
    let stream = ops(seed);
    let mut bufs = Buffers::new();
    crate::run_passes(config.clone(), budget, traced, |phase| {
        let mut pass = Pass::default();
        let mut exact = Exact::new();
        let c = &config;
        let (p, e, b, s) = (&mut pass, &mut exact, &mut bufs, &stream[..]);
        if traced {
            run_arch(phase, p, e, s, b, || {
                Traced::new(BaselineSystem::new(c.clone()))
            })?;
            run_arch(phase, p, e, s, b, || {
                Traced::new(SoftwareNds::new(c.clone()))
            })?;
            run_arch(phase, p, e, s, b, || {
                Traced::new(HardwareNds::new(c.clone()))
            })?;
        } else {
            run_arch(phase, p, e, s, b, || BaselineSystem::new(c.clone()))?;
            run_arch(phase, p, e, s, b, || SoftwareNds::new(c.clone()))?;
            run_arch(phase, p, e, s, b, || HardwareNds::new(c.clone()))?;
        }
        exact.insert("system.modeled_ms", pass.modeled_ns as f64 / 1e6);
        phase.push(pass, exact)
    })
}
