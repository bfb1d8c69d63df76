//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns a set of [`Actor`]s and a time-ordered event queue. Each
//! event is a dynamically typed message addressed to one actor; handling an
//! event may enqueue further events through the [`Ctx`] handle. Events at
//! equal timestamps are delivered in insertion order (FIFO), which together
//! with the seeded RNG makes whole runs bit-for-bit deterministic.
//!
//! Messages are `Box<dyn Any>` so that independent crates (network, OS layer,
//! devices) can define their own message types without a shared enum; actors
//! downcast to the types they expect and treat a mismatch as a wiring bug.

use std::any::Any;
use std::fmt;

use crate::metrics::Metrics;
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::span::{sort_canonical, SpanKind, SpanRecord, SpanStore, TraceCtx};
use crate::telemetry::{
    sort_canonical_telemetry, TelemetryEvent, TelemetryKind, TelemetryStore, TELEMETRY_EXTERNAL,
};
use crate::time::{SimDuration, SimTime};

/// Identifies an actor registered with a [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// Returns the raw index of this actor.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index.
    ///
    /// Only meaningful for ids that came from [`Sim::add_actor`] (or in
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
/// after a run via [`Sim::with_actor`]. `Send` lets runtime backends host
/// actors on worker threads.
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
    /// Assembles a context for one event delivery (runtime backends only).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        now: SimTime,
        self_id: ActorId,
        outbox: &'a mut Vec<(SimTime, ActorId, Msg)>,
        rng: &'a mut SimRng,
        metrics: &'a mut Metrics,
        trace: &'a mut Option<Vec<TraceEntry>>,
        spans: &'a mut Option<SpanStore>,
        telemetry: &'a mut Option<TelemetryStore>,
        stop: &'a mut bool,
    ) -> Self {
        Ctx {
            now,
            self_id,
            outbox,
            rng,
            metrics,
            trace,
            spans,
            telemetry,
            stop,
        }
    }

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

/// The discrete-event simulator.
pub struct Sim {
    actors: Vec<Option<Box<dyn Actor>>>,
    names: Vec<String>,
    /// Simulated node of each actor (parallel to `actors`). The single
    /// global queue ignores placement for scheduling; it only scopes
    /// node-outage windows.
    nodes: Vec<u32>,
    /// Node-down windows (crash faults); empty on fault-free runs.
    outages: Vec<NodeOutage>,
    queue: EventQueue<(ActorId, Msg)>,
    now: SimTime,
    seq: u64,
    steps: u64,
    seed: u64,
    rng: SimRng,
    metrics: Metrics,
    trace: Option<Vec<TraceEntry>>,
    spans: Option<SpanStore>,
    telemetry: Option<TelemetryStore>,
    /// Sampling period for engine self-profiling boundary ticks; `Some`
    /// exactly when `telemetry` is.
    telemetry_period: Option<SimDuration>,
    /// Last self-profiling window emitted (window index = time / period).
    tele_window: Option<u64>,
    /// `steps` at the last self-profiling emission (events/window deltas).
    tele_steps: u64,
    /// Reusable send buffer for [`step`](Sim::step): drained back to empty
    /// after every event so the per-event cost is a pointer swap, not a
    /// heap allocation.
    scratch_outbox: Vec<(SimTime, ActorId, Msg)>,
    stop: bool,
}

impl Sim {
    /// Creates an empty simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            actors: Vec::new(),
            names: Vec::new(),
            nodes: Vec::new(),
            outages: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            steps: 0,
            seed,
            rng: SimRng::new(seed),
            metrics: Metrics::new(),
            trace: None,
            spans: None,
            telemetry: None,
            telemetry_period: None,
            tele_window: None,
            tele_steps: 0,
            scratch_outbox: Vec::new(),
            stop: false,
        }
    }

    /// Enables trace recording (see [`Sim::take_trace`]).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Takes the recorded trace, leaving recording enabled.
    ///
    /// Entries are returned sorted by `(time, actor, label)` — the canonical
    /// order shared by every runtime backend, so equal workloads at equal
    /// seeds yield equal traces regardless of the engine that ran them.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        let mut entries = self.trace.replace(Vec::new()).unwrap_or_default();
        entries.sort_by(|a, b| (a.time, a.actor, &a.label).cmp(&(b.time, b.actor, &b.label)));
        entries
    }

    /// Enables causal span recording (see [`Sim::take_spans`]).
    pub fn enable_spans(&mut self) {
        if self.spans.is_none() {
            self.spans = Some(SpanStore::new(self.seed));
        }
    }

    /// Takes the recorded spans in canonical `(start, end, actor, ord)`
    /// order, leaving recording enabled.
    pub fn take_spans(&mut self) -> Vec<SpanRecord> {
        let mut spans = match self.spans.as_mut() {
            Some(store) => store.take(),
            None => Vec::new(),
        };
        sort_canonical(&mut spans);
        spans
    }

    /// Enables telemetry recording with the given sampling period (see
    /// [`Sim::take_telemetry`]). Off by default; while disabled, recording
    /// is a no-op that neither allocates nor perturbs the RNG stream, so
    /// disabled runs behave bit-identically to builds without the
    /// subsystem.
    pub fn enable_telemetry(&mut self, period: SimDuration) {
        assert!(period > SimDuration::ZERO, "telemetry period must be > 0");
        if self.telemetry.is_none() {
            self.telemetry = Some(TelemetryStore::new());
        }
        self.telemetry_period = Some(period);
    }

    /// The telemetry sampling period, or `None` while the plane is off.
    pub fn telemetry_period(&self) -> Option<SimDuration> {
        self.telemetry_period
    }

    /// Takes the recorded telemetry events in the canonical
    /// `(time, series, actor, ord)` order, leaving recording enabled.
    pub fn take_telemetry(&mut self) -> Vec<TelemetryEvent> {
        let mut events = match self.telemetry.as_mut() {
            Some(store) => store.take(),
            None => Vec::new(),
        };
        sort_canonical_telemetry(&mut events);
        events
    }

    /// Engine self-profiling: when an event crosses a sampling-period
    /// boundary, record scheduler gauges (queue depth, timing-wheel
    /// bucket occupancy, overflow-heap size) and the events-per-window
    /// delta under the backend-specific `runtime.` series namespace.
    /// Exporters exclude that namespace from cross-backend artifacts.
    fn telemetry_boundary(&mut self, time: SimTime) {
        let Some(period) = self.telemetry_period else {
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
        // `telemetry_period` is only ever set together with the store.
        let Some(store) = self.telemetry.as_mut() else {
            return;
        };
        let mut emit = |series: &str, kind: TelemetryKind| {
            store.record(TELEMETRY_EXTERNAL, at, series.to_string(), kind);
        };
        emit("runtime.single.queue.depth", TelemetryKind::Gauge(depth));
        emit(
            "runtime.single.wheel.occupied",
            TelemetryKind::Gauge(occupied),
        );
        emit("runtime.single.wheel.far", TelemetryKind::Gauge(far));
        emit("runtime.single.events", TelemetryKind::Count(events));
        // Sampled scheduler peaks for the post-run profile table.
        for (name, v) in [
            ("runtime.single.wheel.occupied_peak", occupied),
            ("runtime.single.wheel.far_peak", far),
            ("runtime.single.queue.depth_peak", depth),
        ] {
            let prev = self.metrics.counter(name);
            if v > prev {
                self.metrics.add(name, v - prev);
            }
        }
    }

    /// Registers an actor (on node 0) and returns its id.
    pub fn add_actor(&mut self, name: impl Into<String>, actor: Box<dyn Actor>) -> ActorId {
        self.add_actor_on(0, name, actor)
    }

    /// Registers an actor on a simulated node. Placement has no effect on
    /// scheduling (one global queue); it scopes node-outage windows.
    pub fn add_actor_on(
        &mut self,
        node: usize,
        name: impl Into<String>,
        actor: Box<dyn Actor>,
    ) -> ActorId {
        let id = ActorId(u32::try_from(self.actors.len()).expect("too many actors"));
        self.actors.push(Some(actor));
        self.names.push(name.into());
        self.nodes
            .push(u32::try_from(node).expect("node out of range"));
        id
    }

    /// Installs node-down windows (crash faults). Deliveries to actors on
    /// a down node are discarded — see [`NodeOutage::drops_at`]. An empty
    /// list (the default) leaves the engine bit-identical to builds
    /// without the hook.
    pub fn set_node_outages(&mut self, outages: Vec<NodeOutage>) {
        self.outages = outages;
    }

    /// Returns the registered name of an actor.
    pub fn actor_name(&self, id: ActorId) -> &str {
        &self.names[id.index()]
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The metric registry (read results after a run).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metric registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Enqueues a message to `dst` at `now + delay` from outside any actor.
    pub fn post(&mut self, delay: SimDuration, dst: ActorId, msg: impl Any + Send) {
        self.post_boxed(delay, dst, Box::new(msg));
    }

    /// Enqueues a pre-boxed message (saturating at the end of the virtual
    /// timeline, like [`Ctx::send_after`]).
    pub fn post_boxed(&mut self, delay: SimDuration, dst: ActorId, msg: Msg) {
        assert!(
            dst.index() < self.actors.len(),
            "post to unregistered {dst}"
        );
        let time = self.now.saturating_add(delay);
        self.queue.push(time, self.seq, (dst, msg));
        self.seq += 1;
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an actor slot that was never registered
    /// (a wiring bug) or re-enters an actor currently on the stack (actors
    /// never send to themselves synchronously by construction).
    // analyze: hot-path
    pub fn step(&mut self) -> bool {
        let Some((time, _seq, (dst, msg))) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "event queue went back in time");
        self.now = time;
        self.steps += 1;
        if self.telemetry_period.is_some() {
            self.telemetry_boundary(time);
        }

        // A delivery inside a node-down window is lost: the crashed node's
        // actors stop receiving. The event still advances time and counts
        // as a step (progress), it just never reaches a handler.
        if !self.outages.is_empty() {
            let node = self.nodes[dst.index()] as usize;
            if self
                .outages
                .iter()
                .any(|o| o.node == node && o.drops_at(time))
            {
                self.metrics.incr("engine.outage_drops");
                return true;
            }
        }

        // Temporarily take the actor out of its slot so the context can
        // borrow the rest of the simulation mutably.
        let mut actor = self.actors[dst.index()]
            .take()
            .unwrap_or_else(|| panic!("re-entrant or missing {dst}"));
        let mut outbox = std::mem::take(&mut self.scratch_outbox);
        {
            let mut ctx = Ctx {
                now: self.now,
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
        self.actors[dst.index()] = Some(actor);
        for (time, dst, msg) in outbox.drain(..) {
            assert!(
                dst.index() < self.actors.len(),
                "send to unregistered {dst}"
            );
            self.queue.push(time, self.seq, (dst, msg));
            self.seq += 1;
        }
        self.scratch_outbox = outbox;
        true
    }

    /// Runs until the queue drains, a step limit is hit, or an actor stops
    /// the simulation.
    pub fn run(&mut self) -> RunOutcome {
        self.run_with_limit(u64::MAX)
    }

    /// Runs for at most `max_steps` events.
    pub fn run_with_limit(&mut self, max_steps: u64) -> RunOutcome {
        self.stop = false;
        for _ in 0..max_steps {
            if self.stop {
                return RunOutcome::Stopped;
            }
            if !self.step() {
                return RunOutcome::Drained;
            }
        }
        if self.queue.is_empty() {
            RunOutcome::Drained
        } else {
            RunOutcome::LimitReached
        }
    }

    /// Runs until virtual time exceeds `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.stop = false;
        loop {
            if self.stop {
                return RunOutcome::Stopped;
            }
            match self.queue.peek_key() {
                None => return RunOutcome::Drained,
                Some((time, _)) if time > deadline => return RunOutcome::LimitReached,
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Gives temporary mutable access to a registered actor between events.
    ///
    /// Useful for tests and harnesses that inspect actor state after a run.
    ///
    /// # Panics
    ///
    /// Panics if the actor is not of type `T`.
    pub fn with_actor<T: Actor + 'static, R>(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let actor = self.actors[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("missing {id}"));
        let any: &mut dyn Any = actor.as_mut();
        let t = any
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("actor {id} is not the requested type"));
        f(t)
    }

    /// Invokes `f` with the actor's `dyn Any` form (object-safe counterpart
    /// of [`Sim::with_actor`], used by the [`Runtime`](crate::Runtime)
    /// impl).
    pub fn with_actor_any(&mut self, id: ActorId, f: &mut dyn FnMut(&mut dyn Any)) {
        let actor = self.actors[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("missing {id}"));
        f(actor.as_mut());
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("actors", &self.actors.len())
            .field("pending", &self.queue.len())
            .field("steps", &self.steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
