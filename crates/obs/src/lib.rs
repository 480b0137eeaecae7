//! # dcds-obs
//!
//! Std-only tracing and metrics substrate for the DCDS verification stack.
//!
//! The engines (`det_abstraction`, RCYCL, the bounded explorers, the staged
//! µ-calculus evaluator) are level-synchronised BFS/fixpoint loops whose
//! cost is wildly uneven across levels and iterations. This crate gives
//! every engine one observability story:
//!
//! * **spans** — hierarchical wall-clock intervals with key/value fields,
//!   created with the [`span!`] macro and recorded into a lock-cheap
//!   per-thread buffer; buffers merge into the shared sink when a thread
//!   exits (which for `dcds_core::par` scoped workers is exactly the join
//!   point of the parallel phase) or when [`Obs::finish`] flushes the
//!   calling thread;
//! * **metrics** — a registry of named counters, gauges, and fixed-bucket
//!   histograms ([`metrics`]). Engines update the registry only from their
//!   serial phases, so every value is bit-identical at every thread count
//!   — except histograms whose name ends in `_us`, which record wall-clock
//!   time and are excluded from the determinism contract by convention;
//! * **exporters** — Chrome `trace_event` JSON (openable in Perfetto or
//!   `chrome://tracing`, worker threads mapped to tids), line-delimited
//!   JSON events, and a human text summary ([`export`]);
//! * **progress heartbeats** — rate-limited status lines on stderr for long
//!   runs, enabled by the `DCDS_PROGRESS` environment variable
//!   ([`progress`]).
//!
//! # Zero cost when disabled
//!
//! [`Obs::disabled`] carries no allocation and every operation on it is an
//! early-return on a `None` check — no timestamps, no thread-local access,
//! no locks. The engines take `&Obs` unconditionally instead of `#[cfg]`
//! forks; the determinism tests run them with tracing both on and off and
//! assert identical outputs.
//!
//! # Example
//!
//! ```
//! use dcds_obs::{span, Obs, ObsConfig};
//!
//! let obs = Obs::enabled(ObsConfig::default());
//! {
//!     let mut outer = span!(obs, "frontier_level", level = 0u64);
//!     {
//!         let _inner = span!(obs, "step");
//!         obs.counter_add("abs.states_expanded", 17);
//!     }
//!     outer.set("new_states", 3u64);
//! }
//! let report = obs.finish().unwrap();
//! assert_eq!(report.events.len(), 2);
//! assert_eq!(report.metrics.counter("abs.states_expanded"), Some(17));
//! ```

pub mod alloc;
pub mod events;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod progress;

pub use events::{EventSink, SharedBuf};
pub use export::{chrome_trace, json_lines, text_summary};
pub use metrics::{Histogram, MetricsSnapshot};
pub use profile::{aggregate, folded, top_spans, PathStats, Weight};
pub use progress::{parse_interval, RateLimiter};

// The obs crate's own unit tests exercise the counting allocator, so the
// test binary installs it; downstream binaries opt in individually.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use metrics::Registry;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Environment variable enabling live progress heartbeats, e.g.
/// `DCDS_PROGRESS=1s` or `DCDS_PROGRESS=500ms` (a bare number is seconds).
pub const PROGRESS_ENV: &str = "DCDS_PROGRESS";

/// A value attached to a span field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(Cow<'static, str>),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Str(Cow::Borrowed(if v { "true" } else { "false" }))
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One completed span, as it lands in the sink.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span name (e.g. `frontier_level`).
    pub name: &'static str,
    /// Microseconds since the [`Obs`] epoch at span open.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Observability thread id: 0 is the first registered thread (usually
    /// the driver), workers get fresh ids per parallel phase.
    pub tid: u32,
    /// Per-thread completion sequence number (stable sort key).
    pub seq: u64,
    /// Nesting depth at open (0 = top-level on its thread).
    pub depth: u32,
    /// Key/value annotations.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Configuration for an enabled [`Obs`].
#[derive(Debug, Default)]
pub struct ObsConfig {
    /// Heartbeat interval; `None` disables heartbeats.
    pub progress: Option<Duration>,
    /// Snapshot per-thread allocation counters at span enter/exit and
    /// attach `alloc_bytes`/`allocs`/`peak_live_delta` fields to every
    /// span. Requires the binary to install
    /// [`alloc::CountingAlloc`]; enabling it flips the process-global
    /// counting gate for the session's lifetime.
    pub track_alloc: bool,
    /// Live structured event stream; `None` disables event emission.
    pub events: Option<EventSink>,
}

impl ObsConfig {
    /// Read heartbeat configuration from [`PROGRESS_ENV`].
    pub fn from_env() -> Self {
        ObsConfig {
            progress: std::env::var(PROGRESS_ENV)
                .ok()
                .as_deref()
                .and_then(parse_interval),
            ..ObsConfig::default()
        }
    }
}

/// Everything an [`Obs::finish`] hands back.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// All completed spans, in (tid, seq) order.
    pub events: Vec<Event>,
    /// Snapshot of the metrics registry.
    pub metrics: MetricsSnapshot,
}

struct Shared {
    /// Process-unique instance id; thread-local buffers use it to detect
    /// that they are bound to a stale instance.
    id: u64,
    epoch: Instant,
    sink: Mutex<Vec<Event>>,
    next_tid: AtomicU32,
    registry: Mutex<Registry>,
    heartbeat: Option<Mutex<RateLimiter>>,
    events: Option<EventSink>,
    track_alloc: bool,
}

/// Handle to one observability session. Cheap to clone; `disabled()` is the
/// universal no-op.
#[derive(Clone, Default)]
pub struct Obs {
    shared: Option<Arc<Shared>>,
}

static NEXT_OBS_ID: AtomicU64 = AtomicU64::new(1);

/// Flush the local buffer above this many events so a span-heavy run does
/// not hold arbitrarily much memory per thread.
const LOCAL_FLUSH_THRESHOLD: usize = 4096;

struct ThreadBuf {
    obs_id: u64,
    obs: Weak<Shared>,
    tid: u32,
    seq: u64,
    depth: u32,
    buf: Vec<Event>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if let Some(shared) = self.obs.upgrade() {
            shared
                .sink
                .lock()
                .expect("obs sink poisoned")
                .append(&mut self.buf);
        } else {
            self.buf.clear();
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // A scoped worker exiting is the join point: merge its buffer.
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf {
            obs_id: 0,
            obs: Weak::new(),
            tid: 0,
            seq: 0,
            depth: 0,
            buf: Vec::new(),
        })
    };
}

/// Run `f` with this thread's buffer bound to `shared` (flushing and
/// re-registering if the thread last recorded for a different instance).
fn with_buf<R>(shared: &Arc<Shared>, f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    TLS.with(|cell| {
        let mut b = cell.borrow_mut();
        if b.obs_id != shared.id {
            b.flush();
            b.obs_id = shared.id;
            b.obs = Arc::downgrade(shared);
            b.tid = shared.next_tid.fetch_add(1, Ordering::Relaxed);
            b.seq = 0;
            b.depth = 0;
        }
        f(&mut b)
    })
}

impl Obs {
    /// The no-op handle: every operation returns immediately.
    pub fn disabled() -> Obs {
        Obs { shared: None }
    }

    /// A recording handle.
    pub fn enabled(config: ObsConfig) -> Obs {
        if config.track_alloc {
            alloc::set_counting(true);
        }
        Obs {
            shared: Some(Arc::new(Shared {
                id: NEXT_OBS_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                sink: Mutex::new(Vec::new()),
                next_tid: AtomicU32::new(0),
                registry: Mutex::new(Registry::default()),
                heartbeat: config
                    .progress
                    .map(|interval| Mutex::new(RateLimiter::new(interval))),
                events: config.events,
                track_alloc: config.track_alloc,
            })),
        }
    }

    /// Is this handle recording? The [`span!`] macro consults this before
    /// materialising field vectors, keeping the disabled path allocation-free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Open a span. Prefer the [`span!`] macro, which skips the field
    /// allocation entirely when disabled.
    pub fn span_with(
        &self,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanGuard {
        let Some(shared) = &self.shared else {
            return SpanGuard { active: None };
        };
        let depth = with_buf(shared, |b| {
            let d = b.depth;
            b.depth += 1;
            d
        });
        let alloc_open = if shared.track_alloc && alloc::counting() {
            Some(alloc::span_open())
        } else {
            None
        };
        SpanGuard {
            active: Some(ActiveSpan {
                shared: Arc::clone(shared),
                name,
                start: Instant::now(),
                start_us: shared.epoch.elapsed().as_micros() as u64,
                depth,
                fields,
                alloc_open,
            }),
        }
    }

    /// Microseconds since this session's epoch; 0 when disabled.
    pub fn elapsed_us(&self) -> u64 {
        self.shared
            .as_ref()
            .map(|s| s.epoch.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }

    /// Is a live event sink attached? Engines consult this (or use the
    /// [`event!`] macro) so the no-sink path never builds field vectors.
    #[inline]
    pub fn events_enabled(&self) -> bool {
        self.shared.as_ref().is_some_and(|s| s.events.is_some())
    }

    /// Emit one typed event onto the live stream, stamped with the elapsed
    /// time and the next monotonic sequence number. No-op without a sink.
    pub fn event(&self, typ: &str, fields: &[(&'static str, FieldValue)]) {
        if let Some(shared) = &self.shared {
            if let Some(sink) = &shared.events {
                sink.emit(typ, shared.epoch.elapsed().as_micros() as u64, fields);
            }
        }
    }

    /// Add `delta` to the named counter. Engines call this only from serial
    /// phases, which is what makes the registry thread-count deterministic.
    pub fn counter_add(&self, name: impl Into<Cow<'static, str>>, delta: u64) {
        if let Some(shared) = &self.shared {
            shared
                .registry
                .lock()
                .expect("obs registry poisoned")
                .counter_add(name.into(), delta);
        }
    }

    /// Raise the named gauge to at least `value` (high-water-mark gauge).
    pub fn gauge_max(&self, name: impl Into<Cow<'static, str>>, value: i64) {
        if let Some(shared) = &self.shared {
            shared
                .registry
                .lock()
                .expect("obs registry poisoned")
                .gauge_max(name.into(), value);
        }
    }

    /// Record `value` into the named fixed-bucket histogram.
    pub fn histogram(&self, name: impl Into<Cow<'static, str>>, value: u64) {
        if let Some(shared) = &self.shared {
            shared
                .registry
                .lock()
                .expect("obs registry poisoned")
                .histogram_record(name.into(), value);
        }
    }

    /// Start a wall-clock measurement for [`Obs::time_us`]; `None` when
    /// disabled, so the disabled path never reads the clock.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        self.shared.as_ref().map(|_| Instant::now())
    }

    /// Record the elapsed microseconds since [`Obs::timer`] into a timing
    /// histogram. By convention the name ends in `_us`; such histograms are
    /// *excluded* from the bit-identical determinism contract (time varies).
    pub fn time_us(&self, name: impl Into<Cow<'static, str>>, started: Option<Instant>) {
        if let (Some(_), Some(t0)) = (&self.shared, started) {
            self.histogram(name, t0.elapsed().as_micros() as u64);
        }
    }

    /// Emit a rate-limited progress line on stderr. The message closure is
    /// only evaluated when a heartbeat is actually due. One monotonic
    /// reading drives both the limiter and the displayed elapsed time, so
    /// the printed timestamps can never run ahead of the rate-limit window.
    pub fn heartbeat(&self, message: impl FnOnce() -> String) {
        let Some(shared) = &self.shared else { return };
        let Some(limiter) = &shared.heartbeat else {
            return;
        };
        let now = Instant::now();
        let due = limiter.lock().expect("obs heartbeat poisoned").ready(now);
        if due {
            let elapsed = now.duration_since(shared.epoch);
            let msg = message();
            eprintln!("[dcds +{:.1}s] {msg}", elapsed.as_secs_f64());
            if let Some(sink) = &shared.events {
                sink.emit(
                    "heartbeat",
                    elapsed.as_micros() as u64,
                    &[("message", FieldValue::Str(Cow::Owned(msg)))],
                );
            }
        }
    }

    /// Unconditional final progress line (plus a `heartbeat` event with
    /// `"final":true` when a sink is attached), emitted at run end when
    /// heartbeats are configured. Short runs that never tripped the rate
    /// limiter still report how they ended instead of staying silent.
    pub fn progress_flush(&self, message: impl FnOnce() -> String) {
        let Some(shared) = &self.shared else { return };
        if shared.heartbeat.is_none() {
            return;
        }
        let now = Instant::now();
        let elapsed = now.duration_since(shared.epoch);
        let msg = message();
        eprintln!("[dcds +{:.1}s] {msg}", elapsed.as_secs_f64());
        if let Some(sink) = &shared.events {
            sink.emit(
                "heartbeat",
                elapsed.as_micros() as u64,
                &[
                    ("final", FieldValue::Str(Cow::Borrowed("true"))),
                    ("message", FieldValue::Str(Cow::Owned(msg))),
                ],
            );
        }
    }

    /// Flush the calling thread's buffer and take everything recorded so
    /// far: events in (tid, seq) order plus a metrics snapshot. `None` when
    /// disabled. Worker threads have already merged at their join points.
    pub fn finish(&self) -> Option<ObsReport> {
        let shared = self.shared.as_ref()?;
        TLS.with(|cell| {
            let mut b = cell.borrow_mut();
            if b.obs_id == shared.id {
                b.flush();
            }
        });
        let mut events = std::mem::take(&mut *shared.sink.lock().expect("obs sink poisoned"));
        events.sort_by_key(|e| (e.tid, e.seq));
        let metrics = shared
            .registry
            .lock()
            .expect("obs registry poisoned")
            .snapshot();
        if let Some(sink) = &shared.events {
            sink.flush();
        }
        if shared.track_alloc {
            alloc::set_counting(false);
        }
        Some(ObsReport { events, metrics })
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

struct ActiveSpan {
    shared: Arc<Shared>,
    name: &'static str,
    start: Instant,
    start_us: u64,
    depth: u32,
    fields: Vec<(&'static str, FieldValue)>,
    alloc_open: Option<alloc::AllocSnap>,
}

/// RAII guard for an open span; records one [`Event`] on drop. The no-op
/// variant (from a disabled handle or [`SpanGuard::noop`]) does nothing.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// A guard that records nothing — what the [`span!`] macro returns when
    /// the handle is disabled.
    pub fn noop() -> SpanGuard {
        SpanGuard { active: None }
    }

    /// Attach a field after opening (e.g. results only known at close).
    pub fn set(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(a) = &mut self.active {
            a.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut a) = self.active.take() else {
            return;
        };
        let dur_us = a.start.elapsed().as_micros() as u64;
        if let Some(open) = a.alloc_open.take() {
            let d = alloc::span_close(open);
            a.fields.push(("alloc_bytes", FieldValue::U64(d.bytes)));
            a.fields.push(("allocs", FieldValue::U64(d.count)));
            a.fields
                .push(("peak_live_delta", FieldValue::U64(d.peak_live_delta)));
        }
        with_buf(&a.shared, |b| {
            b.depth = b.depth.saturating_sub(1);
            let seq = b.seq;
            b.seq += 1;
            b.buf.push(Event {
                name: a.name,
                start_us: a.start_us,
                dur_us,
                tid: b.tid,
                seq,
                depth: a.depth,
                fields: a.fields,
            });
            if b.buf.len() >= LOCAL_FLUSH_THRESHOLD {
                b.flush();
            }
        });
    }
}

/// Open a span on an [`Obs`] handle: `span!(obs, "name", key = value, ...)`.
///
/// Returns a [`SpanGuard`]; bind it (`let _g = span!(...)`) so the span
/// closes at scope exit. Field values are anything `Into<FieldValue>`
/// (unsigned/signed integers, floats, strings, bools). When the handle is
/// disabled nothing is evaluated beyond the `is_enabled` check.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let __obs: &$crate::Obs = &$obs;
        if __obs.is_enabled() {
            __obs.span_with(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($val))),*],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    }};
}

/// Emit a typed event onto the live stream:
/// `event!(obs, "level", level = 3u64, frontier = n)`.
///
/// Field values are evaluated only when a sink is attached, so engines can
/// call this unconditionally on hot paths.
#[macro_export]
macro_rules! event {
    ($obs:expr, $typ:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let __obs: &$crate::Obs = &$obs;
        if __obs.events_enabled() {
            __obs.event(
                $typ,
                &[$((stringify!($key), $crate::FieldValue::from($val))),*],
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        {
            let mut g = span!(obs, "x", a = 1u64);
            g.set("b", 2u64);
        }
        obs.counter_add("c", 5);
        obs.histogram("h", 9);
        obs.heartbeat(|| unreachable!("closure must not run when disabled"));
        assert!(obs.finish().is_none());
        assert!(obs.timer().is_none());
    }

    #[test]
    fn spans_record_nesting_and_fields() {
        let obs = Obs::enabled(ObsConfig::default());
        {
            let mut outer = span!(obs, "outer", level = 3u64);
            {
                let _inner = span!(obs, "inner");
            }
            outer.set("done", true);
        }
        let report = obs.finish().unwrap();
        assert_eq!(report.events.len(), 2);
        // Spans complete child-first.
        let inner = &report.events[0];
        let outer = &report.events[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.fields[0], ("level", FieldValue::U64(3)));
        assert_eq!(
            outer.fields[1],
            ("done", FieldValue::Str(Cow::Borrowed("true")))
        );
        // Containment: outer starts no later and ends no earlier. Both
        // ends are `floor(start) + floor(dur)` in µs, so each may
        // undercount its true end by up to 2µs — allow that slack (the
        // close-to-close gap can be sub-µs under load).
        assert!(outer.start_us <= inner.start_us);
        assert!(outer.start_us + outer.dur_us + 2 >= inner.start_us + inner.dur_us);
    }

    #[test]
    fn worker_thread_buffers_merge_at_join() {
        let obs = Obs::enabled(ObsConfig::default());
        {
            let _root = span!(obs, "root");
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..3)
                    .map(|_| {
                        let obs = obs.clone();
                        scope.spawn(move || {
                            let _g = span!(obs, "worker");
                        })
                    })
                    .collect();
                // Join explicitly, as `par_map_with` does: a worker's buffer
                // merges in its thread-local destructor, which runs before
                // `join` returns but may still be running when the scope's
                // implicit wait returns.
                for w in workers {
                    w.join().expect("worker panicked");
                }
            });
        }
        let report = obs.finish().unwrap();
        assert_eq!(report.events.len(), 4);
        let tids: std::collections::BTreeSet<u32> = report.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "each thread gets its own tid: {tids:?}");
        // Worker spans are top-level on their own threads.
        for e in report.events.iter().filter(|e| e.name == "worker") {
            assert_eq!(e.depth, 0);
        }
    }

    #[test]
    fn registry_roundtrip() {
        let obs = Obs::enabled(ObsConfig::default());
        obs.counter_add("a.x", 2);
        obs.counter_add("a.x", 3);
        obs.gauge_max("a.g", 7);
        obs.gauge_max("a.g", 4);
        obs.histogram("a.h", 100);
        let m = obs.finish().unwrap().metrics;
        assert_eq!(m.counter("a.x"), Some(5));
        assert_eq!(m.gauge("a.g"), Some(7));
        assert_eq!(m.histogram("a.h").unwrap().count, 1);
    }

    #[test]
    fn reusing_a_thread_across_instances_rebinds_cleanly() {
        let obs1 = Obs::enabled(ObsConfig::default());
        {
            let _g = span!(obs1, "one");
        }
        let obs2 = Obs::enabled(ObsConfig::default());
        {
            let _g = span!(obs2, "two");
        }
        // Recording for obs2 flushed the obs1 buffer first.
        let r1 = obs1.finish().unwrap();
        let r2 = obs2.finish().unwrap();
        assert_eq!(r1.events.len(), 1);
        assert_eq!(r1.events[0].name, "one");
        assert_eq!(r2.events.len(), 1);
        assert_eq!(r2.events[0].name, "two");
    }

    #[test]
    fn event_stream_records_typed_events_in_order() {
        let buf = SharedBuf::new();
        let obs = Obs::enabled(ObsConfig {
            events: Some(EventSink::new(Box::new(buf.clone()))),
            ..ObsConfig::default()
        });
        assert!(obs.events_enabled());
        event!(obs, "run_start", command = "abstract");
        event!(obs, "level", level = 0u64, frontier = 1u64);
        event!(obs, "run_end");
        obs.finish().unwrap();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"run_start\"") && lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"frontier\":1") && lines[1].contains("\"seq\":1"));
        assert!(lines[2].contains("\"type\":\"run_end\"") && lines[2].contains("\"seq\":2"));
    }

    #[test]
    fn event_macro_is_inert_without_sink() {
        let obs = Obs::enabled(ObsConfig::default());
        assert!(!obs.events_enabled());
        event!(obs, "level", level = 1u64);
        let disabled = Obs::disabled();
        event!(disabled, "level", level = 1u64);
        assert_eq!(obs.finish().unwrap().events.len(), 0);
    }

    #[test]
    fn track_alloc_attaches_alloc_fields_to_spans() {
        let _gate = alloc::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let obs = Obs::enabled(ObsConfig {
            track_alloc: true,
            ..ObsConfig::default()
        });
        {
            let _g = span!(obs, "work");
            let v: Vec<u8> = Vec::with_capacity(50_000);
            drop(v);
        }
        let report = obs.finish().unwrap();
        let e = &report.events[0];
        let bytes = e
            .fields
            .iter()
            .find(|(k, _)| *k == "alloc_bytes")
            .map(|(_, v)| match v {
                FieldValue::U64(n) => *n,
                _ => 0,
            })
            .unwrap();
        assert!(bytes >= 50_000, "span attributed {bytes} bytes");
        assert!(e.fields.iter().any(|(k, _)| *k == "allocs"));
        assert!(e.fields.iter().any(|(k, _)| *k == "peak_live_delta"));
        assert!(!alloc::counting(), "finish turns the gate back off");
    }

    #[test]
    fn progress_flush_always_prints_when_progress_configured() {
        // With no heartbeat configured, flush is silent and inert.
        let obs = Obs::enabled(ObsConfig::default());
        obs.progress_flush(|| unreachable!("no progress configured"));
        // With a huge interval the limiter never fires, but the flush event
        // still lands on the stream.
        let buf = SharedBuf::new();
        let obs = Obs::enabled(ObsConfig {
            progress: Some(Duration::from_secs(3600)),
            events: Some(EventSink::new(Box::new(buf.clone()))),
            ..ObsConfig::default()
        });
        obs.heartbeat(|| "mid".into());
        obs.progress_flush(|| "done: 42 states".into());
        obs.finish().unwrap();
        let text = buf.contents();
        assert!(
            !text.contains("\"message\":\"mid\""),
            "rate-limited heartbeat must not fire early: {text}"
        );
        assert!(text.contains("\"type\":\"heartbeat\""), "{text}");
        assert!(text.contains("\"final\":\"true\""), "{text}");
        assert!(text.contains("done: 42 states"), "{text}");
    }

    #[test]
    fn finish_can_be_called_repeatedly() {
        let obs = Obs::enabled(ObsConfig::default());
        {
            let _g = span!(obs, "a");
        }
        assert_eq!(obs.finish().unwrap().events.len(), 1);
        {
            let _g = span!(obs, "b");
        }
        let again = obs.finish().unwrap();
        assert_eq!(again.events.len(), 1);
        assert_eq!(again.events[0].name, "b");
    }
}
