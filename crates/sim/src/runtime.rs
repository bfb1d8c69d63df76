//! The runtime abstraction: FractOS logic against pluggable engines.
//!
//! Everything above this crate — the network model, Controllers, Processes,
//! device adaptors, services, baselines, and the bench harness — drives the
//! simulation exclusively through the [`Runtime`] trait: actor registration,
//! message posting, the virtual clock, seeded randomness (via [`crate::Ctx`]),
//! metrics, and tracing. Two drivers implement it over one event core
//! (see [`crate::engine`]): the delivery loop, the recording stores and
//! the engine self-profile are shared, so both backends deliver, record
//! and stop identically.
//!
//! * [`Sim`] — the single-threaded driver: one core hosting every actor,
//!   FIFO at equal timestamps, bit-exact determinism: the same seed always
//!   yields the identical event trace. This is the default.
//! * [`ShardedSim`](crate::sharded::ShardedSim) — the parallel driver:
//!   one core per simulated node, synchronized by per-link channel
//!   lookahead (Chandy–Misra–Bryant style; see its module docs).
//!   Deterministic for a fixed seed and shard layout; per-link
//!   traffic counters and application payloads match the single-threaded
//!   engine, while exact event interleavings (and thus latency samples)
//!   may differ.
//!
//! Backend selection is an environment decision, not a code decision: see
//! [`RuntimeKind::from_env`] and [`build_runtime`].

use std::any::Any;

use crate::engine::{Actor, ActorId, Msg, NodeOutage, RunOutcome, Sim, TraceEntry};
use crate::metrics::Metrics;
use crate::span::SpanRecord;
use crate::telemetry::TelemetryEvent;
use crate::time::{SimDuration, SimTime};

/// Engine-neutral simulation driver.
///
/// Object-safe so harnesses hold a `Box<dyn Runtime>`; the generic
/// conveniences ([`post`](RuntimeExt::post),
/// [`with_actor`](RuntimeExt::with_actor)) live on [`RuntimeExt`].
pub trait Runtime {
    /// Registers an actor on simulated node 0.
    fn add_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ActorId;

    /// Registers an actor placed on a specific simulated node.
    ///
    /// Placement is the unit of parallelism: the sharded backend runs each
    /// node's actors on one shard, so only cross-node messages pay barrier
    /// synchronization. On the single-threaded backend placement only
    /// scopes node-outage windows.
    fn add_actor_on(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId;

    /// Enqueues a pre-boxed message to `dst` at `now + delay` from outside
    /// any actor.
    fn post_boxed(&mut self, delay: SimDuration, dst: ActorId, msg: Msg);

    /// Runs until the event queue drains or an actor stops the simulation.
    fn run(&mut self) -> RunOutcome;

    /// Runs for at most `max_steps` events (the parallel backend may
    /// overshoot by up to one synchronization window; see its docs).
    fn run_with_limit(&mut self, max_steps: u64) -> RunOutcome;

    /// Runs until virtual time exceeds `deadline` or the queue drains.
    fn run_until(&mut self, deadline: SimTime) -> RunOutcome;

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Total events processed so far.
    fn steps(&self) -> u64;

    /// Number of pending events.
    fn pending(&self) -> usize;

    /// The metric registry (counters and histograms of the whole run).
    fn metrics(&self) -> &Metrics;

    /// Mutable access to the metric registry (harnesses record
    /// run-level samples between runs).
    fn metrics_mut(&mut self) -> &mut Metrics;

    /// The registered name of an actor.
    fn actor_name(&self, id: ActorId) -> &str;

    /// Number of registered actors.
    fn actor_count(&self) -> usize;

    /// Enables trace recording.
    fn enable_trace(&mut self);

    /// Takes the recorded trace, leaving recording enabled.
    ///
    /// Entries are returned in the canonical `(time, actor, label)` order on
    /// every backend, so equal workloads at equal seeds yield equal traces
    /// regardless of engine.
    fn take_trace(&mut self) -> Vec<TraceEntry>;

    /// Enables causal span recording (see [`crate::span`]).
    ///
    /// Off by default; while disabled, recording is a no-op that neither
    /// allocates nor perturbs the RNG stream, so disabled runs behave
    /// bit-identically to builds without the subsystem.
    fn enable_spans(&mut self);

    /// Takes the recorded spans, leaving recording enabled.
    ///
    /// Spans are returned in the canonical `(start, end, actor, ord)` order,
    /// identical across backends for equal `(seed, workload)`.
    fn take_spans(&mut self) -> Vec<SpanRecord>;

    /// Enables telemetry recording with the given virtual-time sampling
    /// period (see [`crate::telemetry`]).
    ///
    /// Off by default; while disabled, recording is a no-op that neither
    /// allocates nor perturbs the RNG stream, so disabled runs behave
    /// bit-identically to builds without the subsystem. The period only
    /// parameterizes the derived window series (and the engine's
    /// self-profiling boundary ticks) — it never schedules events, so it
    /// cannot change what the simulation does.
    fn enable_telemetry(&mut self, period: SimDuration);

    /// The telemetry sampling period, or `None` while the plane is off.
    fn telemetry_period(&self) -> Option<SimDuration>;

    /// Takes the recorded telemetry events, leaving recording enabled.
    ///
    /// Events are returned in the canonical `(time, series, actor, ord)`
    /// order on every backend; window aggregation over them (see
    /// `fractos-obs`) is identical across backends for equal
    /// `(seed, workload)` — engine self-profiling series under the
    /// `runtime.` prefix excepted, as they describe the backend itself.
    fn take_telemetry(&mut self) -> Vec<TelemetryEvent>;

    /// Invokes `f` with the actor's `dyn Any` form between events.
    ///
    /// Object-safe plumbing for [`RuntimeExt::with_actor`]; `f` is called
    /// exactly once.
    fn with_actor_any(&mut self, id: ActorId, f: &mut dyn FnMut(&mut dyn Any));

    /// Installs node-down windows (crash-stop / crash-restart faults).
    ///
    /// While a node is down, events addressed to its actors are discarded
    /// at delivery time — a crashed node's actors stop receiving and its
    /// in-flight messages are lost, bit-identically on both backends (the
    /// decision is a pure function of the delivery time and the receiver's
    /// node). The window is the open interval `(down, up)`, so the kill
    /// notification posted at the crash instant and the reboot posted at
    /// the restart instant are still delivered. An empty list (the
    /// default) leaves the engine bit-identical to builds without the
    /// hook.
    fn set_node_outages(&mut self, outages: Vec<NodeOutage>);

    /// Short backend identifier (`"single"`, `"sharded"`) for logs and
    /// metrics.
    fn backend_name(&self) -> &'static str;
}

/// Generic conveniences over any [`Runtime`] (including `dyn Runtime`).
pub trait RuntimeExt: Runtime {
    /// Enqueues a message to `dst` at `now + delay` from outside any actor.
    fn post(&mut self, delay: SimDuration, dst: ActorId, msg: impl Any + Send) {
        self.post_boxed(delay, dst, Box::new(msg));
    }

    /// Gives temporary typed mutable access to a registered actor between
    /// events (tests and harnesses inspecting actor state after a run).
    ///
    /// # Panics
    ///
    /// Panics if the actor is not of type `T`.
    fn with_actor<T: Actor, R>(&mut self, id: ActorId, f: impl FnOnce(&mut T) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.with_actor_any(id, &mut |any| {
            let t = any
                .downcast_mut::<T>()
                .unwrap_or_else(|| panic!("actor {id} is not the requested type"));
            out = Some((f.take().expect("with_actor_any called twice"))(t));
        });
        out.expect("with_actor_any never invoked the callback")
    }
}

impl<R: Runtime + ?Sized> RuntimeExt for R {}

/// Which engine backs a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Single-threaded engine: one global queue, bit-exact determinism.
    SingleThreaded,
    /// Sharded parallel engine: one shard per node, conservative lookahead.
    Sharded,
}

impl RuntimeKind {
    /// Reads the backend selection from `FRACTOS_RUNTIME`.
    ///
    /// `"sharded"` (or `"parallel"`) selects the sharded engine; anything
    /// else — including the variable being unset — selects the
    /// single-threaded engine, keeping bit-exact determinism the default.
    pub fn from_env() -> Self {
        match std::env::var("FRACTOS_RUNTIME").as_deref() {
            Ok("sharded") | Ok("parallel") => RuntimeKind::Sharded,
            _ => RuntimeKind::SingleThreaded,
        }
    }
}

/// Everything a backend needs to know about the simulated cluster shape.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// RNG seed (equal seeds ⇒ equal behavior per backend).
    pub seed: u64,
    /// Number of simulated nodes (= shards on the parallel backend).
    pub nodes: usize,
    /// Uniform conservative synchronization bound for the sharded backend:
    /// a strict lower bound on the delay of every cross-node message.
    /// Derived from the fabric's minimum inter-node one-way latency
    /// (including its jitter floor). Used for every link when
    /// [`link_lookahead`](RuntimeConfig::link_lookahead) is absent; ignored
    /// by the single-threaded backend.
    pub lookahead: SimDuration,
    /// Per-link lookahead matrix for the sharded backend: entry `[j][i]`
    /// is a strict lower bound on the delay of any message from node `j`
    /// to node `i` (diagonal entries are unused). Lets shards synchronize
    /// against the channel clocks of their actual links — slow (e.g.
    /// cross-rack) links widen peer windows instead of throttling the
    /// whole cluster. Derived by the harness from the topology and
    /// `NetParams` (see `Testbed::runtime_config` in `fractos-core`).
    /// `None` falls back to the uniform `lookahead` on every link.
    pub link_lookahead: Option<Vec<Vec<SimDuration>>>,
    /// Worker-thread override for the sharded backend; `None` means
    /// `min(available cores, shards)`, clamped to at least 2 so parallelism
    /// is exercised even on single-core hosts. Also settable via
    /// `FRACTOS_WORKERS`.
    pub workers: Option<usize>,
}

impl RuntimeConfig {
    /// A config for `nodes` nodes with the given seed and uniform lookahead.
    pub fn new(seed: u64, nodes: usize, lookahead: SimDuration) -> Self {
        RuntimeConfig {
            seed,
            nodes,
            lookahead,
            link_lookahead: None,
            workers: None,
        }
    }

    /// Installs a per-link lookahead matrix (see
    /// [`link_lookahead`](RuntimeConfig::link_lookahead)).
    pub fn with_link_lookahead(mut self, matrix: Vec<Vec<SimDuration>>) -> Self {
        self.link_lookahead = Some(matrix);
        self
    }
}

/// Builds the requested backend.
pub fn build_runtime(kind: RuntimeKind, config: &RuntimeConfig) -> Box<dyn Runtime> {
    match kind {
        RuntimeKind::SingleThreaded => Box::new(Sim::new(config.seed)),
        RuntimeKind::Sharded => Box::new(crate::sharded::ShardedSim::new(config)),
    }
}

/// Builds the backend selected by `FRACTOS_RUNTIME` (single-threaded when
/// unset).
pub fn runtime_from_env(config: &RuntimeConfig) -> Box<dyn Runtime> {
    build_runtime(RuntimeKind::from_env(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;

    struct Counter(u64);
    impl Actor for Counter {
        fn handle(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {
            self.0 += 1;
        }
    }

    #[test]
    fn sim_behind_trait_object() {
        let mut rt: Box<dyn Runtime> = Box::new(Sim::new(7));
        let id = rt.add_actor_on(0, "c", Box::new(Counter(0)));
        rt.post(SimDuration::from_micros(1), id, ());
        rt.post(SimDuration::from_micros(2), id, ());
        assert_eq!(rt.run(), RunOutcome::Drained);
        assert_eq!(rt.with_actor::<Counter, _>(id, |c| c.0), 2);
        assert_eq!(rt.backend_name(), "single");
        assert_eq!(rt.steps(), 2);
    }

    const BACKENDS: [RuntimeKind; 2] = [RuntimeKind::SingleThreaded, RuntimeKind::Sharded];

    fn two_node_runtime(kind: RuntimeKind) -> Box<dyn Runtime> {
        build_runtime(kind, &RuntimeConfig::new(5, 2, SimDuration::from_micros(2)))
    }

    struct Stopper;
    impl Actor for Stopper {
        fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
            ctx.stop();
        }
    }

    #[test]
    fn stop_on_the_last_budgeted_event_reports_stopped_on_both_backends() {
        for kind in BACKENDS {
            let mut rt = two_node_runtime(kind);
            let a = rt.add_actor_on(0, "stop", Box::new(Stopper));
            rt.post(SimDuration::ZERO, a, ());
            rt.post(SimDuration::from_micros(1), a, ());
            assert_eq!(rt.run_with_limit(1), RunOutcome::Stopped, "{kind:?}");
            assert_eq!(rt.pending(), 1, "{kind:?}");
        }
    }

    /// Passes a countdown to its peer, one 5 µs hop per decrement.
    struct Ping(Option<ActorId>);
    impl Actor for Ping {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let v = *msg.downcast::<u32>().expect("u32 countdown");
            if let (Some(peer), true) = (self.0, v > 0) {
                ctx.send_after(SimDuration::from_micros(5), peer, v - 1);
            }
        }
    }

    #[test]
    fn engine_self_profile_series_are_pinned_on_both_backends() {
        for (kind, prefixes) in [
            (RuntimeKind::SingleThreaded, &["runtime.single"][..]),
            (
                RuntimeKind::Sharded,
                &["runtime.shard0", "runtime.shard1"][..],
            ),
        ] {
            let mut rt = two_node_runtime(kind);
            rt.enable_telemetry(SimDuration::from_micros(1));
            let a = rt.add_actor_on(0, "a", Box::new(Ping(None)));
            let b = rt.add_actor_on(1, "b", Box::new(Ping(Some(a))));
            rt.with_actor::<Ping, _>(a, |p| p.0 = Some(b));
            // Two countdowns 1 µs apart keep a near event queued behind
            // each pop, and a far timer per node keeps the overflow heap
            // non-empty. Every event lands in its own 1 µs window, so each
            // boundary sample counts exactly one event.
            rt.post(SimDuration::ZERO, a, 6u32);
            rt.post(SimDuration::from_micros(1), a, 6u32);
            rt.post(SimDuration::from_millis(10), a, 0u32);
            rt.post(SimDuration::from_millis(11), b, 0u32);
            assert_eq!(rt.run(), RunOutcome::Drained, "{kind:?}");
            assert_eq!(rt.steps(), 16, "{kind:?}");

            let telemetry = rt.take_telemetry();
            let engine: Vec<_> = telemetry
                .iter()
                .filter(|e| e.series.starts_with("runtime."))
                .collect();
            let series: std::collections::BTreeSet<&str> =
                engine.iter().map(|e| e.series.as_str()).collect();
            let want: std::collections::BTreeSet<String> = prefixes
                .iter()
                .flat_map(|p| {
                    ["queue.depth", "wheel.occupied", "wheel.far", "events"]
                        .map(|s| format!("{p}.{s}"))
                })
                .collect();
            assert_eq!(
                series,
                want.iter().map(String::as_str).collect(),
                "{kind:?}"
            );
            for p in prefixes {
                for peak in ["queue.depth_peak", "wheel.occupied_peak", "wheel.far_peak"] {
                    let name = format!("{p}.{peak}");
                    assert!(rt.metrics().counter(&name) > 0, "{kind:?}: {name}");
                }
            }
            let counted: u64 = engine
                .iter()
                .filter(|e| e.series.ends_with(".events"))
                .map(|e| match e.kind {
                    crate::TelemetryKind::Count(n) => n,
                    other => panic!("events series holds {other:?}"),
                })
                .sum();
            assert_eq!(counted, rt.steps(), "{kind:?}");
        }
    }

    #[test]
    fn kind_from_env_defaults_single() {
        // Not set in the test environment unless the sharded CI job sets it;
        // accept either but verify parsing is total.
        let _ = RuntimeKind::from_env();
        assert_eq!(
            match "sharded" {
                "sharded" | "parallel" => RuntimeKind::Sharded,
                _ => RuntimeKind::SingleThreaded,
            },
            RuntimeKind::Sharded
        );
    }
}
