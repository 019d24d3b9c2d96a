//! Outside-in span recording.
//!
//! Spans are recorded by the benchmark around calls *into* a layer's
//! public functions, never inside the program. A span's self time is its
//! duration minus the time covered by spans opened while it was open, so
//! wrapping the device under `NdsCluster`, `TrafficEngine` or
//! `Workload::run` separates their own wall time from the device's.
//!
//! The recorder is thread-local and off by default; while off, [`span`]
//! is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use nds_core::{ElementType, Shape};
use nds_sim::{RunReport, Stats, TraceExport};
use nds_system::{DatasetId, ReadMetrics, ReadOutcome, StorageFrontEnd, SystemError, WriteOutcome};

/// Requests kept for the layer replays; later requests are dropped.
const STREAM_CAP: usize = 50_000;

/// Wall-clock accounting of one span name.
#[derive(Debug, Clone, Default)]
pub struct SpanAcc {
    /// Duration of every closed span, in nanoseconds.
    pub samples: Vec<u64>,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Payload bytes the spanned calls moved (front-end spans only).
    pub bytes: u64,
}

/// One front-end request as a device saw it, for the layer replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The dataset, unique across every [`Traced`] front-end of the run.
    pub dataset: u64,
    /// True for a write.
    pub write: bool,
    /// The dataset's shape and element type.
    pub space: (Shape, ElementType),
    /// The request's view, coordinate and extent.
    pub view: Shape,
    /// Partition coordinate in `view`.
    pub coord: Vec<u64>,
    /// Partition extent.
    pub sub_dims: Vec<u64>,
}

impl Request {
    /// Payload bytes of the request.
    pub fn bytes(&self) -> u64 {
        self.sub_dims.iter().product::<u64>() * self.space.1.size() as u64
    }
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    stack: Vec<Open>,
    spans: BTreeMap<&'static str, SpanAcc>,
    stream: Vec<Request>,
    next_instance: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording spans and requests on this thread (clearing old ones).
pub fn start() {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let next_instance = rec.next_instance;
        *rec = Recorder {
            on: true,
            next_instance,
            ..Recorder::default()
        }
    });
}

/// Stops recording and returns the spans and the request stream.
pub fn stop() -> (BTreeMap<&'static str, SpanAcc>, Vec<Request>) {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        rec.on = false;
        rec.stack.clear();
        (
            std::mem::take(&mut rec.spans),
            std::mem::take(&mut rec.stream),
        )
    })
}

/// Runs `f` with recording suspended (for set-up work inside a traced
/// phase).
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let was = RECORDER.with(|r| std::mem::replace(&mut r.borrow_mut().on, false));
    let out = f();
    RECORDER.with(|r| r.borrow_mut().on = was);
    out
}

/// True while recording.
pub fn recording() -> bool {
    RECORDER.with(|r| r.borrow().on)
}

/// Runs `f` inside a span named `name` (a plain call while not recording).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !recording() {
        return f();
    }
    RECORDER.with(|r| {
        r.borrow_mut().stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    let end = Instant::now();
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let Some(open) = rec.stack.pop() else {
            return;
        };
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = rec.stack.last_mut() {
            parent.child_ns += dur;
        }
        let acc = rec.spans.entry(open.name).or_default();
        acc.samples.push(dur);
        acc.total_ns += dur;
        acc.self_ns += dur.saturating_sub(open.child_ns);
    });
    out
}

fn record_request(req: impl FnOnce() -> Option<Request>) {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        if rec.on && rec.stream.len() < STREAM_CAP {
            if let Some(req) = req() {
                rec.stream.push(req);
            }
        }
    });
}

/// A pass-through [`StorageFrontEnd`] that records a span around every
/// call into the wrapped front-end and counts front-end operations and
/// payload bytes. Outcomes are the inner front-end's, unchanged.
pub struct Traced<S> {
    inner: S,
    instance: u64,
    datasets: BTreeMap<DatasetId, (Shape, ElementType)>,
    /// Front-end reads and writes that returned `Ok`.
    pub ops: u64,
    /// Payload bytes those operations moved.
    pub bytes: u64,
    /// Unit timing (see [`Traced::start_units`]): the units so far and
    /// when the last call returned.
    units: Option<(Vec<Duration>, Instant)>,
}

impl<S> Traced<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        let instance = RECORDER.with(|r| {
            let mut rec = r.borrow_mut();
            rec.next_instance += 1;
            rec.next_instance
        });
        Traced {
            inner,
            instance,
            datasets: BTreeMap::new(),
            ops: 0,
            bytes: 0,
            units: None,
        }
    }

    /// Starts splitting wall time from `start` into units: each call into
    /// the front-end, and each gap between calls (the caller's own work).
    pub fn start_units(&mut self, start: Instant) {
        self.units = Some((Vec::new(), start));
    }

    /// Ends unit timing at `end` (closing the last gap) and returns the
    /// units, whose sum is `end - start`.
    pub fn finish_units(&mut self, end: Instant) -> Vec<Duration> {
        self.units
            .take()
            .map_or_else(Vec::new, |(mut units, last)| {
                units.push(end.duration_since(last));
                units
            })
    }

    /// Calls into the front-end inside span `name`, timing units if on.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> R) -> R {
        let start = Instant::now();
        if let Some((units, last)) = &mut self.units {
            units.push(start.duration_since(*last));
        }
        let inner = &mut self.inner;
        let out = span(name, || f(inner));
        if let Some((units, last)) = &mut self.units {
            *last = Instant::now();
            units.push(last.duration_since(start));
        }
        out
    }

    fn record(&self, write: bool, id: DatasetId, view: &Shape, coord: &[u64], sub_dims: &[u64]) {
        record_request(|| {
            Some(Request {
                dataset: (self.instance << 32) | id.0,
                write,
                space: self.datasets.get(&id)?.clone(),
                view: view.clone(),
                coord: coord.to_vec(),
                sub_dims: sub_dims.to_vec(),
            })
        });
    }

    fn count<T>(
        &mut self,
        out: &Result<T, SystemError>,
        name: &'static str,
        bytes: impl Fn(&T) -> u64,
    ) {
        if let Ok(v) = out {
            let bytes = bytes(v);
            self.ops += 1;
            self.bytes += bytes;
            RECORDER.with(|r| {
                let mut rec = r.borrow_mut();
                if rec.on {
                    rec.spans.entry(name).or_default().bytes += bytes;
                }
            });
        }
    }
}

impl<S: StorageFrontEnd> StorageFrontEnd for Traced<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create_dataset(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<DatasetId, SystemError> {
        let id = self.call("system.create", |s| {
            s.create_dataset(shape.clone(), element)
        })?;
        self.datasets.insert(id, (shape, element));
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
        self.record(true, id, view, coord, sub_dims);
        let out = self.call("system.write", |s| s.write(id, view, coord, sub_dims, data));
        self.count(&out, "system.write", |o| o.bytes);
        out
    }

    fn read(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<ReadOutcome, SystemError> {
        self.record(false, id, view, coord, sub_dims);
        let out = self.call("system.read", |s| s.read(id, view, coord, sub_dims));
        self.count(&out, "system.read", |o| o.bytes);
        out
    }

    fn read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        self.record(false, id, view, coord, sub_dims);
        let out = self.call("system.read", |s| {
            s.read_into(id, view, coord, sub_dims, buf)
        });
        self.count(&out, "system.read", |m| m.bytes);
        out
    }

    fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
        self.datasets.remove(&id);
        self.call("system.delete", |s| s.delete_dataset(id))
    }

    fn stats(&self) -> Stats {
        self.inner.stats()
    }

    fn run_report(&self) -> RunReport {
        self.inner.run_report()
    }

    fn trace_export(&self) -> Option<TraceExport> {
        self.inner.trace_export()
    }

    fn trace_cursor(&self) -> u64 {
        self.inner.trace_cursor()
    }
}
