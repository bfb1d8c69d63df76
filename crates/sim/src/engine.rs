//! The discrete-event simulation engine: one event core, two drivers.
//!
//! A `Core` owns the actors of one or more simulated nodes and a
//! time-ordered event queue. Each event is a dynamically typed message
//! addressed to one actor; handling an event may enqueue further events
//! through the [`Ctx`] handle. Events at equal timestamps are delivered in
//! insertion order (FIFO), which together with the seeded RNG makes whole
//! runs bit-for-bit deterministic.
//!
//! `Core::run_window` is the only event-delivery loop in the crate. The
//! single-threaded [`Sim`] drives one core holding every actor; the
//! parallel [`ShardedSim`](crate::sharded::ShardedSim) drives one core per
//! node between synchronization barriers.
//!
//! Messages are `Box<dyn Any>` so that independent crates (network, OS layer,
//! devices) can define their own message types without a shared enum; actors
//! downcast to the types they expect and treat a mismatch as a wiring bug.

use std::any::Any;
use std::fmt;

use crate::metrics::Metrics;
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::runtime::Runtime;
use crate::span::{sort_canonical, SpanKind, SpanRecord, SpanStore, TraceCtx};
use crate::telemetry::{
    sort_canonical_telemetry, TelemetryEvent, TelemetryKind, TelemetryStore, TELEMETRY_EXTERNAL,
};
use crate::time::{SimDuration, SimTime};

/// Identifies an actor registered with a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// Returns the raw index of this actor.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index.
    ///
    /// Only meaningful for ids that came from [`Runtime::add_actor`] (or in
    /// tests that wire ids by hand); posting to a fabricated id panics.
    pub const fn from_raw(index: u32) -> Self {
        ActorId(index)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A dynamically typed simulation message.
///
/// `Send` so the sharded backend can move cross-node messages between
/// worker threads; plain-data payloads satisfy it automatically.
pub type Msg = Box<dyn Any + Send>;

/// An entity that handles timestamped messages.
///
/// The `Any` supertrait allows harnesses to inspect concrete actor state
/// after a run via [`RuntimeExt::with_actor`](crate::RuntimeExt::with_actor).
/// `Send` lets runtime backends host actors on worker threads.
pub trait Actor: Any + Send {
    /// Handles one message delivered at `ctx.now()`.
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>);
}

/// Handle given to actors while they process a message.
///
/// Lets the actor read the clock, send messages, record metrics, and draw
/// deterministic randomness. Sends are buffered and enqueued when the handler
/// returns, preserving FIFO order of same-time messages.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: ActorId,
    outbox: &'a mut Vec<(SimTime, ActorId, Msg)>,
    rng: &'a mut SimRng,
    metrics: &'a mut Metrics,
    trace: &'a mut Option<Vec<TraceEntry>>,
    spans: &'a mut Option<SpanStore>,
    telemetry: &'a mut Option<TelemetryStore>,
    stop: &'a mut bool,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The actor currently handling the message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Sends `msg` to `dst` after `delay`.
    ///
    /// Saturating arithmetic: a delay that would leave the `u64` nanosecond
    /// timeline pins at the far-future instant (the message never fires)
    /// instead of panicking, matching the checked conventions of the rest
    /// of the stack.
    pub fn send_after(&mut self, delay: SimDuration, dst: ActorId, msg: impl Any + Send) {
        self.outbox
            .push((self.now.saturating_add(delay), dst, Box::new(msg)));
    }

    /// Sends a pre-boxed message to `dst` after `delay` (saturating, like
    /// [`send_after`](Ctx::send_after)).
    pub fn send_boxed_after(&mut self, delay: SimDuration, dst: ActorId, msg: Msg) {
        self.outbox.push((self.now.saturating_add(delay), dst, msg));
    }

    /// Sends `msg` to `dst` at the current instant (delivered after all
    /// already-queued same-time events).
    pub fn send_now(&mut self, dst: ActorId, msg: impl Any + Send) {
        self.send_after(SimDuration::ZERO, dst, msg);
    }

    /// Schedules a message back to the current actor after `delay`.
    pub fn schedule_self(&mut self, delay: SimDuration, msg: impl Any + Send) {
        let id = self.self_id;
        self.send_after(delay, id, msg);
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The simulation's metric registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Whether trace-point recording is enabled.
    ///
    /// Callers that need a formatted label should gate the `format!` behind
    /// this so disabled runs allocate nothing.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Records a trace point if tracing is enabled.
    pub fn trace(&mut self, label: impl Into<String>) {
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEntry {
                time: self.now,
                actor: self.self_id,
                label: label.into(),
            });
        }
    }

    /// Whether causal span recording is enabled.
    ///
    /// Callers that need a formatted label should gate the `format!` behind
    /// this so disabled runs allocate nothing.
    pub fn spans_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records a causal span if span recording is enabled, returning the
    /// context that makes further spans its children.
    ///
    /// Recording consumes no simulation RNG draws and is a no-op returning
    /// [`TraceCtx::NONE`] when disabled. When `parent` is
    /// [`TraceCtx::NONE`] the span roots a new trace.
    pub fn span(
        &mut self,
        kind: SpanKind,
        label: &str,
        parent: TraceCtx,
        start: SimTime,
        end: SimTime,
    ) -> TraceCtx {
        match self.spans.as_mut() {
            Some(store) => store.record(self.self_id, kind, label.to_string(), parent, start, end),
            None => TraceCtx::NONE,
        }
    }

    /// Whether telemetry recording is enabled.
    ///
    /// Callers that need a formatted series name should gate the
    /// `format!` behind this so disabled runs allocate nothing.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Records a telemetry counter delta if telemetry is enabled.
    ///
    /// Like span recording, this consumes no RNG draws and is a complete
    /// no-op while the plane is disabled.
    pub fn telemetry_count(&mut self, series: &str, delta: u64) {
        let (now, actor) = (self.now, self.self_id);
        if let Some(store) = self.telemetry.as_mut() {
            store.record(actor, now, series.to_string(), TelemetryKind::Count(delta));
        }
    }

    /// Records a telemetry gauge level if telemetry is enabled. Gauge
    /// series must be single-writer (one actor per series name) for
    /// cross-backend determinism — see [`crate::telemetry`].
    pub fn telemetry_gauge(&mut self, series: &str, value: u64) {
        let (now, actor) = (self.now, self.self_id);
        if let Some(store) = self.telemetry.as_mut() {
            store.record(actor, now, series.to_string(), TelemetryKind::Gauge(value));
        }
    }

    /// Records one telemetry sample (latency, size) if telemetry is
    /// enabled.
    pub fn telemetry_sample(&mut self, series: &str, value: u64) {
        let (now, actor) = (self.now, self.self_id);
        if let Some(store) = self.telemetry.as_mut() {
            store.record(actor, now, series.to_string(), TelemetryKind::Sample(value));
        }
    }

    /// Requests the simulation to stop after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// One recorded trace point (used by determinism tests and debugging).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time of the trace point.
    pub time: SimTime,
    /// Actor that recorded it.
    pub actor: ActorId,
    /// Free-form label.
    pub label: String,
}

impl fmt::Display for TraceEntry {
    /// Stable `time actor label` rendering, e.g. `12.340us actor#3 deliver`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.time, self.actor, self.label)
    }
}

/// A node-down window for the engine-level crash hook
/// (`Runtime::set_node_outages`): while a node is down, events addressed
/// to its actors are discarded at delivery time — the in-flight messages
/// of a crashed node are lost, identically on both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutage {
    /// The simulated node that crashes.
    pub node: usize,
    /// Crash instant.
    pub down: SimTime,
    /// Restart instant; `None` means the node never comes back.
    pub up: Option<SimTime>,
}

impl NodeOutage {
    /// True when a delivery at `t` must be discarded. The window is the
    /// open interval `(down, up)`: an event at exactly `down` (the kill
    /// notification itself) or exactly `up` (the reboot) is still
    /// delivered, so the crash and restart hooks fire on the node's own
    /// actors deterministically.
    pub fn drops_at(&self, t: SimTime) -> bool {
        t > self.down && self.up.is_none_or(|u| t < u)
    }
}

/// Outcome of driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time or step limit was reached with events still pending.
    LimitReached,
    /// An actor requested a stop via [`Ctx::stop`].
    Stopped,
}

/// Where an actor lives: the core that hosts it and its slot there.
#[derive(Clone, Copy)]
pub(crate) struct Loc {
    pub(crate) core: u32,
    pub(crate) local: u32,
}

/// Engine self-profiling names under a core's `runtime.single` or
/// `runtime.shard{i}` prefix, built once per core so neither the boundary
/// sampler nor the sharded barrier formats a key per sample.
pub(crate) struct ProfileNames {
    depth: String,
    occupied: String,
    far: String,
    events: String,
    depth_peak: String,
    occupied_peak: String,
    far_peak: String,
    /// Rounds in which the core processed nothing (sharded driver only).
    pub(crate) stalled_rounds: String,
    /// Events processed in non-stalled rounds (sharded driver only).
    pub(crate) busy_events: String,
}

impl ProfileNames {
    fn new(prefix: &str) -> Self {
        let name = |suffix: &str| format!("{prefix}.{suffix}");
        ProfileNames {
            depth: name("queue.depth"),
            occupied: name("wheel.occupied"),
            far: name("wheel.far"),
            events: name("events"),
            depth_peak: name("queue.depth_peak"),
            occupied_peak: name("wheel.occupied_peak"),
            far_peak: name("wheel.far_peak"),
            stalled_rounds: name("stalled_rounds"),
            busy_events: name("busy_events"),
        }
    }
}

/// The per-node event core both runtime backends run on: the actors it
/// hosts, their event queue, and everything a delivery touches.
pub(crate) struct Core {
    /// Pending events; the payload carries the destination's local slot
    /// next to its global id (kept for errors and `Ctx::self_id`).
    pub(crate) queue: EventQueue<(u32, ActorId, Msg)>,
    actors: Vec<Option<Box<dyn Actor>>>,
    /// Simulated node of each hosted actor (parallel to `actors`); it only
    /// scopes node-outage windows.
    nodes: Vec<u32>,
    /// Node-down windows (crash faults); empty on fault-free runs.
    pub(crate) outages: Vec<NodeOutage>,
    rng: SimRng,
    pub(crate) metrics: Metrics,
    trace: Option<Vec<TraceEntry>>,
    spans: Option<SpanStore>,
    telemetry: Option<TelemetryStore>,
    /// Self-profiling sampling period; `Some` exactly when `telemetry` is.
    telemetry_period: Option<SimDuration>,
    /// Last self-profiling window emitted (window index = time / period).
    tele_window: Option<u64>,
    /// `steps` at the last self-profiling emission (events/window deltas).
    tele_steps: u64,
    pub(crate) series: ProfileNames,
    /// Span ids derive from `(seed, actor, per-actor counter)`, so every
    /// core's store shares the run seed and ids match across backends.
    seed: u64,
    pub(crate) now: SimTime,
    seq: u64,
    /// Lifetime events processed.
    pub(crate) steps: u64,
    /// Events processed by the latest [`run_window`](Core::run_window).
    pub(crate) processed: u64,
    pub(crate) stop: bool,
    /// Sends to actors on other cores, buffered until the sharded barrier
    /// as `(sent_at, arrival, dst, msg)`; the send instant lets the barrier
    /// check each message against its link's lookahead on the main thread
    /// (so a violation panics with a diagnostic instead of a bare "scoped
    /// thread panicked").
    pub(crate) cross: Vec<(SimTime, SimTime, ActorId, Msg)>,
    /// Reusable send buffer: drained back to empty after every event so
    /// the per-event cost is a pointer swap, not a heap allocation.
    scratch_outbox: Vec<(SimTime, ActorId, Msg)>,
}

impl Core {
    /// An empty core drawing from `rng`, profiling under `prefix`.
    pub(crate) fn new(rng: SimRng, seed: u64, prefix: &str) -> Self {
        Core {
            queue: EventQueue::new(),
            actors: Vec::new(),
            nodes: Vec::new(),
            outages: Vec::new(),
            rng,
            metrics: Metrics::new(),
            trace: None,
            spans: None,
            telemetry: None,
            telemetry_period: None,
            tele_window: None,
            tele_steps: 0,
            series: ProfileNames::new(prefix),
            seed,
            now: SimTime::ZERO,
            seq: 0,
            steps: 0,
            processed: 0,
            stop: false,
            cross: Vec::new(),
            scratch_outbox: Vec::new(),
        }
    }

    /// Hosts `actor` (placed on simulated `node`) and returns its slot.
    pub(crate) fn add_actor(&mut self, node: usize, actor: Box<dyn Actor>) -> u32 {
        let local = u32::try_from(self.actors.len()).expect("too many actors on one core");
        self.actors.push(Some(actor));
        self.nodes
            .push(u32::try_from(node).expect("node out of range"));
        local
    }

    /// Enqueues `msg` for the actor in slot `local` at `time`.
    pub(crate) fn push(&mut self, time: SimTime, local: u32, dst: ActorId, msg: Msg) {
        self.queue.push(time, self.seq, (local, dst, msg));
        self.seq += 1;
    }

    /// Timestamp of the earliest pending event.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_key().map(|(t, _)| t)
    }

    /// Delivers pending events in `(time, seq)` order: only those strictly
    /// before `horizon` (all of them when `None`), at most `budget`, and
    /// none after an actor requests a stop. Sends to actors on core `me`
    /// enqueue here; any other destination is buffered in `cross`.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an actor that was never registered (a
    /// wiring bug) or re-enters an actor currently on the stack (actors
    /// never send to themselves synchronously by construction).
    // analyze: hot-path
    pub(crate) fn run_window(
        &mut self,
        horizon: Option<SimTime>,
        budget: u64,
        locs: &[Loc],
        me: u32,
    ) {
        let start = self.steps;
        while self.steps - start < budget && !self.stop {
            // Only a bounded window peeks: the unbounded one pops once per
            // event, like a plain event loop.
            if let Some(h) = horizon {
                if self.queue.peek_key().is_none_or(|(t, _)| t >= h) {
                    break;
                }
            }
            let Some((time, _seq, (local, dst, msg))) = self.queue.pop() else {
                break;
            };
            debug_assert!(
                time >= self.now,
                "event queue went back in time: popped {time} < now {now}",
                now = self.now,
            );
            self.now = time;
            self.steps += 1;
            if self.telemetry_period.is_some() {
                self.telemetry_boundary(time);
            }

            // A delivery inside a node-down window is lost: the crashed
            // node's actors stop receiving. The event still advances time
            // and counts as a step (progress), it just never reaches a
            // handler.
            let slot = local as usize;
            if !self.outages.is_empty() {
                let node = self.nodes[slot] as usize;
                if self
                    .outages
                    .iter()
                    .any(|o| o.node == node && o.drops_at(time))
                {
                    self.metrics.incr("engine.outage_drops");
                    continue;
                }
            }

            // Temporarily take the actor out of its slot so the context can
            // borrow the rest of the core mutably.
            let mut actor = self.actors[slot]
                .take()
                .unwrap_or_else(|| panic!("re-entrant or missing {dst}"));
            let mut outbox = std::mem::take(&mut self.scratch_outbox);
            {
                let mut ctx = Ctx {
                    now: time,
                    self_id: dst,
                    outbox: &mut outbox,
                    rng: &mut self.rng,
                    metrics: &mut self.metrics,
                    trace: &mut self.trace,
                    spans: &mut self.spans,
                    telemetry: &mut self.telemetry,
                    stop: &mut self.stop,
                };
                actor.handle(msg, &mut ctx);
            }
            self.actors[slot] = Some(actor);
            for (at, to, msg) in outbox.drain(..) {
                let loc = *locs
                    .get(to.index())
                    .unwrap_or_else(|| panic!("send to unregistered {to}"));
                if loc.core == me {
                    self.push(at, loc.local, to, msg);
                } else {
                    self.cross.push((time, at, to, msg));
                }
            }
            self.scratch_outbox = outbox;
        }
        self.processed = self.steps - start;
    }

    /// Drives this core alone, as the single-threaded engine does: one
    /// window, then the outcome a stop, an empty queue or a spent limit
    /// leaves.
    fn run_alone(&mut self, horizon: Option<SimTime>, budget: u64, locs: &[Loc]) -> RunOutcome {
        self.stop = false;
        self.run_window(horizon, budget, locs, 0);
        if self.stop {
            RunOutcome::Stopped
        } else if self.queue.is_empty() {
            RunOutcome::Drained
        } else {
            RunOutcome::LimitReached
        }
    }

    /// Engine self-profiling: when an event crosses a sampling-period
    /// boundary, record scheduler gauges (queue depth, timing-wheel bucket
    /// occupancy, overflow-heap size) and the events-per-window delta under
    /// the core's backend-specific `runtime.` series namespace, and raise
    /// the sampled peak counters. Exporters exclude that namespace from
    /// cross-backend artifacts.
    fn telemetry_boundary(&mut self, time: SimTime) {
        let (Some(period), Some(store)) = (self.telemetry_period, self.telemetry.as_mut()) else {
            return;
        };
        let w = time.as_nanos() / period.as_nanos().max(1);
        if self.tele_window == Some(w) {
            return;
        }
        self.tele_window = Some(w);
        let at = SimTime::from_nanos(w.saturating_mul(period.as_nanos()));
        let depth = self.queue.len() as u64;
        let occupied = self.queue.wheel_occupied_buckets() as u64;
        let far = self.queue.far_len() as u64;
        let events = self.steps - self.tele_steps;
        self.tele_steps = self.steps;
        let names = &self.series;
        for (series, kind) in [
            (&names.depth, TelemetryKind::Gauge(depth)),
            (&names.occupied, TelemetryKind::Gauge(occupied)),
            (&names.far, TelemetryKind::Gauge(far)),
            (&names.events, TelemetryKind::Count(events)),
        ] {
            store.record(TELEMETRY_EXTERNAL, at, series.clone(), kind);
        }
        for (name, v) in [
            (&names.occupied_peak, occupied),
            (&names.far_peak, far),
            (&names.depth_peak, depth),
        ] {
            let prev = self.metrics.counter(name);
            if v > prev {
                self.metrics.add(name, v - prev);
            }
        }
    }

    pub(crate) fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    pub(crate) fn enable_spans(&mut self) {
        let seed = self.seed;
        self.spans.get_or_insert_with(|| SpanStore::new(seed));
    }

    pub(crate) fn enable_telemetry(&mut self, period: SimDuration) {
        assert!(period > SimDuration::ZERO, "telemetry period must be > 0");
        self.telemetry.get_or_insert_with(TelemetryStore::new);
        self.telemetry_period = Some(period);
    }

    pub(crate) fn telemetry_period(&self) -> Option<SimDuration> {
        self.telemetry_period
    }

    pub(crate) fn with_actor_any(
        &mut self,
        local: u32,
        id: ActorId,
        f: &mut dyn FnMut(&mut dyn Any),
    ) {
        let actor = self.actors[local as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("missing {id}"));
        f(actor.as_mut());
    }
}

/// Takes every core's recorded trace, merged into the canonical
/// `(time, actor, label)` order: no global total order exists across
/// cores, so equal workloads yield equal traces on every backend.
pub(crate) fn take_trace(cores: &mut [Core]) -> Vec<TraceEntry> {
    let mut all = Vec::new();
    for c in cores {
        if let Some(t) = c.trace.as_mut() {
            all.append(t);
        }
    }
    all.sort_by(|a, b| (a.time, a.actor, &a.label).cmp(&(b.time, b.actor, &b.label)));
    all
}

/// Takes every core's spans in the canonical `(start, end, actor, ord)`
/// order.
pub(crate) fn take_spans(cores: &mut [Core]) -> Vec<SpanRecord> {
    let mut all = Vec::new();
    for c in cores {
        if let Some(store) = c.spans.as_mut() {
            all.append(&mut store.take());
        }
    }
    sort_canonical(&mut all);
    all
}

/// Takes every core's telemetry events in the canonical `(time, series,
/// actor, ord)` order.
pub(crate) fn take_telemetry(cores: &mut [Core]) -> Vec<TelemetryEvent> {
    let mut all = Vec::new();
    for c in cores {
        if let Some(store) = c.telemetry.as_mut() {
            all.append(&mut store.take());
        }
    }
    sort_canonical_telemetry(&mut all);
    all
}

/// The single-threaded discrete-event simulator: one event core hosting
/// every actor, driven with no synchronization. Placement has no effect on
/// scheduling; it only scopes node-outage windows.
pub struct Sim {
    core: Core,
    locs: Vec<Loc>,
    names: Vec<String>,
}

impl Sim {
    /// Creates an empty simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            core: Core::new(SimRng::new(seed), seed, "runtime.single"),
            locs: Vec::new(),
            names: Vec::new(),
        }
    }
}

impl Runtime for Sim {
    fn add_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ActorId {
        self.add_actor_on(0, name, actor)
    }

    fn add_actor_on(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(u32::try_from(self.locs.len()).expect("too many actors"));
        let local = self.core.add_actor(node, actor);
        self.locs.push(Loc { core: 0, local });
        self.names.push(name.to_string());
        id
    }

    fn post_boxed(&mut self, delay: SimDuration, dst: ActorId, msg: Msg) {
        let loc = *self
            .locs
            .get(dst.index())
            .unwrap_or_else(|| panic!("post to unregistered {dst}"));
        let time = self.core.now.saturating_add(delay);
        self.core.push(time, loc.local, dst, msg);
    }

    fn run(&mut self) -> RunOutcome {
        self.core.run_alone(None, u64::MAX, &self.locs)
    }

    fn run_with_limit(&mut self, max_steps: u64) -> RunOutcome {
        self.core.run_alone(None, max_steps, &self.locs)
    }

    fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        // The window is exclusive; an inclusive deadline caps it one
        // nanosecond past (unbounded at the end of the timeline).
        let horizon = deadline.checked_add(SimDuration::from_nanos(1));
        self.core.run_alone(horizon, u64::MAX, &self.locs)
    }

    fn now(&self) -> SimTime {
        self.core.now
    }

    fn steps(&self) -> u64 {
        self.core.steps
    }

    fn pending(&self) -> usize {
        self.core.queue.len()
    }

    fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    fn actor_name(&self, id: ActorId) -> &str {
        &self.names[id.index()]
    }

    fn actor_count(&self) -> usize {
        self.locs.len()
    }

    fn enable_trace(&mut self) {
        self.core.enable_trace();
    }

    fn take_trace(&mut self) -> Vec<TraceEntry> {
        take_trace(std::slice::from_mut(&mut self.core))
    }

    fn enable_spans(&mut self) {
        self.core.enable_spans();
    }

    fn take_spans(&mut self) -> Vec<SpanRecord> {
        take_spans(std::slice::from_mut(&mut self.core))
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        self.core.enable_telemetry(period);
    }

    fn telemetry_period(&self) -> Option<SimDuration> {
        self.core.telemetry_period()
    }

    fn take_telemetry(&mut self) -> Vec<TelemetryEvent> {
        take_telemetry(std::slice::from_mut(&mut self.core))
    }

    fn with_actor_any(&mut self, id: ActorId, f: &mut dyn FnMut(&mut dyn Any)) {
        self.core.with_actor_any(self.locs[id.index()].local, id, f);
    }

    fn set_node_outages(&mut self, outages: Vec<NodeOutage>) {
        self.core.outages = outages;
    }

    fn backend_name(&self) -> &'static str {
        "single"
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.core.now)
            .field("actors", &self.locs.len())
            .field("pending", &self.core.queue.len())
            .field("steps", &self.core.steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeExt;

    struct Echo {
        received: Vec<(SimTime, u32)>,
        reply_to: Option<ActorId>,
    }

    impl Actor for Echo {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let v = *msg.downcast::<u32>().expect("expected u32");
            self.received.push((ctx.now(), v));
            if let Some(dst) = self.reply_to {
                if v > 0 {
                    ctx.send_after(SimDuration::from_micros(1), dst, v - 1);
                }
            }
        }
    }

    #[test]
    fn fifo_order_at_equal_time() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor(
            "a",
            Box::new(Echo {
                received: vec![],
                reply_to: None,
            }),
        );
        sim.post(SimDuration::ZERO, a, 1u32);
        sim.post(SimDuration::ZERO, a, 2u32);
        sim.post(SimDuration::ZERO, a, 3u32);
        assert_eq!(sim.run(), RunOutcome::Drained);
        sim.with_actor::<Echo, _>(a, |e| {
            let vals: Vec<u32> = e.received.iter().map(|(_, v)| *v).collect();
            assert_eq!(vals, vec![1, 2, 3]);
        });
    }

    #[test]
    fn time_ordering() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor(
            "a",
            Box::new(Echo {
                received: vec![],
                reply_to: None,
            }),
        );
        sim.post(SimDuration::from_micros(5), a, 5u32);
        sim.post(SimDuration::from_micros(1), a, 1u32);
        sim.post(SimDuration::from_micros(3), a, 3u32);
        sim.run();
        sim.with_actor::<Echo, _>(a, |e| {
            let vals: Vec<u32> = e.received.iter().map(|(_, v)| *v).collect();
            assert_eq!(vals, vec![1, 3, 5]);
        });
        assert_eq!(sim.now(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn ping_pong_until_drained() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor(
            "a",
            Box::new(Echo {
                received: vec![],
                reply_to: None,
            }),
        );
        // Wire b to reply to a and a to reply to b.
        let b = sim.add_actor(
            "b",
            Box::new(Echo {
                received: vec![],
                reply_to: Some(a),
            }),
        );
        sim.with_actor::<Echo, _>(a, |e| e.reply_to = Some(b));
        sim.post(SimDuration::ZERO, a, 10u32);
        assert_eq!(sim.run(), RunOutcome::Drained);
        // 10 decrements → 11 total deliveries, 1 µs apart.
        assert_eq!(sim.steps(), 11);
        assert_eq!(sim.now(), SimTime::from_nanos(10_000));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor(
            "a",
            Box::new(Echo {
                received: vec![],
                reply_to: None,
            }),
        );
        sim.post(SimDuration::from_micros(1), a, 1u32);
        sim.post(SimDuration::from_micros(100), a, 2u32);
        assert_eq!(
            sim.run_until(SimTime::from_nanos(50_000)),
            RunOutcome::LimitReached
        );
        assert_eq!(sim.pending(), 1);
    }

    struct Stopper;
    impl Actor for Stopper {
        fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
            ctx.stop();
        }
    }

    #[test]
    fn actor_can_stop_simulation() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor("stop", Box::new(Stopper));
        sim.post(SimDuration::ZERO, a, 0u32);
        sim.post(SimDuration::from_micros(1), a, 0u32);
        assert_eq!(sim.run(), RunOutcome::Stopped);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn trace_records_labels() {
        struct Tracer;
        impl Actor for Tracer {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                ctx.trace("hit");
            }
        }
        let mut sim = Sim::new(0);
        sim.enable_trace();
        let a = sim.add_actor("t", Box::new(Tracer));
        sim.post(SimDuration::from_micros(2), a, 0u32);
        sim.run();
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].label, "hit");
        assert_eq!(trace[0].time, SimTime::from_nanos(2_000));
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn post_to_unknown_actor_panics() {
        let mut sim = Sim::new(0);
        sim.post(SimDuration::ZERO, ActorId(7), 0u32);
    }

    #[test]
    fn node_outage_window_is_open_at_both_ends() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor_on(
            1,
            "a",
            Box::new(Echo {
                received: vec![],
                reply_to: None,
            }),
        );
        sim.set_node_outages(vec![NodeOutage {
            node: 1,
            down: SimTime::from_nanos(10_000),
            up: Some(SimTime::from_nanos(20_000)),
        }]);
        sim.post(SimDuration::from_micros(10), a, 1u32); // exactly `down`: delivered
        sim.post(SimDuration::from_micros(15), a, 2u32); // interior: dropped
        sim.post(SimDuration::from_micros(20), a, 3u32); // exactly `up`: delivered
        sim.post(SimDuration::from_micros(25), a, 4u32);
        assert_eq!(sim.run(), RunOutcome::Drained);
        sim.with_actor::<Echo, _>(a, |e| {
            let vals: Vec<u32> = e.received.iter().map(|(_, v)| *v).collect();
            assert_eq!(vals, vec![1, 3, 4]);
        });
        // The dropped event still advanced time and counted as a step.
        assert_eq!(sim.steps(), 4);
        assert_eq!(sim.metrics().counter("engine.outage_drops"), 1);
    }

    #[test]
    fn node_outage_scopes_to_the_named_node() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor_on(
            0,
            "a",
            Box::new(Echo {
                received: vec![],
                reply_to: None,
            }),
        );
        sim.set_node_outages(vec![NodeOutage {
            node: 2,
            down: SimTime::ZERO,
            up: None,
        }]);
        sim.post(SimDuration::from_micros(5), a, 7u32);
        sim.run();
        sim.with_actor::<Echo, _>(a, |e| assert_eq!(e.received.len(), 1));
        assert_eq!(sim.metrics().counter("engine.outage_drops"), 0);
    }

    #[test]
    fn crash_stop_outage_never_lifts() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor_on(
            1,
            "a",
            Box::new(Echo {
                received: vec![],
                reply_to: None,
            }),
        );
        sim.set_node_outages(vec![NodeOutage {
            node: 1,
            down: SimTime::from_nanos(1_000),
            up: None,
        }]);
        sim.post(SimDuration::from_secs(10), a, 1u32);
        sim.run();
        sim.with_actor::<Echo, _>(a, |e| assert!(e.received.is_empty()));
        assert_eq!(sim.metrics().counter("engine.outage_drops"), 1);
    }
}
