//! Parallel sharded simulation engine.
//!
//! One shard per simulated node, synchronized by *per-link channel
//! lookahead* in the conservative Chandy–Misra–Bryant style. Each ordered
//! shard pair `(j, i)` has a link lookahead `la[j][i]`: a strict lower
//! bound on the delay of any message an actor on shard `j` sends to an
//! actor on shard `i`. The engine runs rounds:
//!
//! 1. At the start of a round every shard `j` publishes `next_j` — the
//!    timestamp of its earliest pending event (a shard with an empty queue
//!    publishes nothing). From these the engine derives each shard's
//!    *channel clock* `ready_j`: a lower bound on when `j` can next
//!    execute **any** event, including ones it has not received yet. An
//!    idle shard's clock is not infinity — a peer can wake it, and it can
//!    then forward the disturbance — so the clocks are the shortest-path
//!    closure `ready_j = min(next_j, min over k ≠ j of ready_k + la[k][j])`
//!    over the lookahead graph.
//! 2. Each shard `i` computes its private horizon
//!    `H_i = min over j ≠ i of (ready_j + la[j][i])` — the earliest
//!    instant at which *any* peer could still affect it, along any causal
//!    chain. A shard nothing can ever reach is unbounded and drains
//!    freely. Shards then process their events with `time < H_i` in
//!    `(time, seq)` order, in parallel on worker threads; intra-shard
//!    sends enqueue locally, cross-shard sends are buffered.
//! 3. At the barrier, buffered messages are exchanged in shard order
//!    (deterministic) and the next round begins.
//!
//! Safety: any message `i` will ever receive — this round or later — is
//! the tail of a causal chain that starts at some pending event at shard
//! `k` and hops `k → … → j → i`; it departs `j` no earlier than `ready_j`
//! (by induction over the closure) and so arrives at
//! `≥ ready_j + la[j][i] ≥ H_i`, never inside the window `i` is
//! concurrently processing — that is the channel-clock invariant.
//! Progress: the globally earliest shard `k` has `ready_k = next_k` (every
//! relaxation path adds positive lookahead to a value `≥ next_k`), hence
//! `H_k ≥ next_k + min la > next_k`, so every round processes at least one
//! event. Unlike a single global `T_min + lookahead` horizon, a shard is
//! bounded only by the links that can actually reach it: far-behind or
//! slow (e.g. cross-rack) links widen its window instead of throttling the
//! whole cluster.
//!
//! The per-link bounds come from the fabric: every inter-node delay is at
//! least the remote one-way latency (minus the jitter floor), plus any
//! cross-rack extra for links between racks — see
//! `NetParams::link_lookahead_matrix` in `fractos-net`, delivered here
//! through [`RuntimeConfig::link_lookahead`]. The engine asserts the bound
//! on every cross-shard message at send time, so a violating workload
//! fails loudly instead of simulating nonsense.
//!
//! Determinism: for a fixed seed, shard layout, and worker count the engine
//! is deterministic — each shard owns a forked RNG stream and processes its
//! events in a total order, and the barrier exchange is ordered by shard
//! index. Event *interleavings across shards* differ from the
//! single-threaded engine, so order-sensitive observables (latency samples,
//! link-schedule reservations) may differ between backends; order-free
//! observables (per-link message/byte counters, end-to-end payloads) match.
//! The cross-backend equivalence suite pins exactly that contract.
//!
//! Each shard is the same per-node event core the single-threaded
//! [`Sim`](crate::Sim) runs (see [`crate::engine`]): its delivery loop,
//! recording stores and self-profiling live there. This driver owns only
//! what parallelism adds — horizons, rounds, the barrier exchange, the
//! worker pool, and the [`ScheduleProbe`] hook.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::engine::{
    take_spans, take_telemetry, take_trace, Actor, ActorId, Core, Loc, Msg, NodeOutage, RunOutcome,
    TraceEntry,
};
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::runtime::{Runtime, RuntimeConfig};
use crate::span::SpanRecord;
use crate::telemetry::TelemetryEvent;
use crate::time::{SimDuration, SimTime};

/// The parallel sharded simulation engine.
///
/// See the [module docs](self) for the synchronization scheme. Constructed
/// through [`RuntimeConfig`] (usually via
/// [`build_runtime`](crate::runtime::build_runtime)); actors are placed on
/// shards by the `node` argument of
/// [`Runtime::add_actor_on`].
pub struct ShardedSim {
    /// One event core per node.
    shards: Vec<Core>,
    locs: Vec<Loc>,
    names: Vec<String>,
    /// `la[j][i]`: lower bound on the delay of any message from shard `j`
    /// to shard `i`. Diagonal entries are unused.
    la: Vec<Vec<SimDuration>>,
    workers: usize,
    /// Accumulated metrics: per-shard registries merged after every run,
    /// plus anything the harness records between runs.
    metrics: Metrics,
    now: SimTime,
}

/// Scheduling hook for the bounded schedule explorer
/// (`crates/sim/tests/schedule_explorer.rs`).
///
/// In explorer mode the engine runs each round's shards *sequentially*,
/// in the order [`pick`](ScheduleProbe::pick) chooses, instead of fanning
/// out over workers — so a test can enumerate every interleaving of a
/// round's shard executions and assert the conservative barrier makes
/// them all equivalent.
pub struct ScheduleProbe<'a> {
    /// Chooses the execution order for one round: receives the round
    /// index and the *active* shards (those whose next event lies inside
    /// their horizon — the only ones that will process events), returns
    /// a permutation of that slice.
    pub pick: &'a mut dyn FnMut(u64, &[usize]) -> Vec<usize>,
    /// Per-round log of the active shard sets, in round order. Identical
    /// across schedules when the barrier is correct; the explorer asserts
    /// it and uses the sizes to bound its enumeration.
    pub log: Vec<Vec<usize>>,
}

impl ShardedSim {
    /// Builds an engine with one shard per node.
    ///
    /// The per-link lookahead matrix comes from
    /// [`RuntimeConfig::link_lookahead`] when present; otherwise every link
    /// uses the uniform [`RuntimeConfig::lookahead`].
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero, if any link lookahead is zero (a
    /// conservative engine cannot make progress without positive channel
    /// lookahead), or if a provided matrix is not `nodes × nodes`.
    pub fn new(config: &RuntimeConfig) -> Self {
        assert!(config.nodes > 0, "sharded runtime needs at least one node");
        let la = match &config.link_lookahead {
            Some(matrix) => {
                assert!(
                    matrix.len() == config.nodes && matrix.iter().all(|r| r.len() == config.nodes),
                    "link lookahead matrix must be {n}×{n}",
                    n = config.nodes
                );
                matrix.clone()
            }
            None => vec![vec![config.lookahead; config.nodes]; config.nodes],
        };
        for (j, row) in la.iter().enumerate() {
            for (i, &l) in row.iter().enumerate() {
                assert!(
                    i == j || l > SimDuration::ZERO,
                    "sharded runtime needs a positive lookahead window on link {j}→{i}"
                );
            }
        }
        let mut root = SimRng::new(config.seed);
        let shards = (0..config.nodes)
            .map(|i| Core::new(root.fork(), config.seed, &format!("runtime.shard{i}")))
            .collect::<Vec<_>>();
        let workers = resolve_workers(config, shards.len());
        ShardedSim {
            shards,
            locs: Vec::new(),
            names: Vec::new(),
            la,
            workers,
            metrics: Metrics::new(),
            now: SimTime::ZERO,
        }
    }

    /// Number of worker threads a run will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of shards (= simulated nodes).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn register(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId {
        assert!(
            node < self.shards.len(),
            "node {node} out of range for {} shards",
            self.shards.len()
        );
        let id = ActorId::from_raw(u32::try_from(self.locs.len()).expect("too many actors"));
        let local = self.shards[node].add_actor(node, actor);
        self.locs.push(Loc {
            core: node as u32,
            local,
        });
        self.names.push(name.to_string());
        id
    }

    /// Per-shard horizons for one round: shard `i` may process events
    /// strictly before `min over j ≠ i of (ready_j + la[j][i])`, where
    /// `ready_j` is shard `j`'s *channel clock* — a lower bound on when `j`
    /// can next execute **any** event, including ones it has not received
    /// yet. `None` means unbounded — no peer can ever reach the shard.
    ///
    /// An idle shard's clock is not infinity: a peer can wake it, and it
    /// can then forward the disturbance. The clocks are therefore the
    /// shortest-path closure of pending-event times over the lookahead
    /// graph, `ready_j = min(next_j, min over k ≠ j of ready_k + la[k][j])`,
    /// computed by Bellman–Ford relaxation (lookaheads are strictly
    /// positive, so the fixpoint exists and sweeps converge; `n` is the
    /// node count, so the O(n³) worst case is tiny).
    /// Returns each shard's horizon plus the number of Bellman–Ford
    /// relaxation sweeps the closure took — the conservative engine's
    /// analogue of CMB null-message rounds, surfaced as an engine
    /// self-profiling counter when telemetry is on.
    fn horizons(
        &self,
        nexts: &[Option<SimTime>],
        deadline: Option<SimTime>,
    ) -> (Vec<Option<SimTime>>, u64) {
        let n = self.shards.len();
        let mut ready: Vec<Option<SimTime>> = nexts.to_vec();
        let mut sweeps = 0u64;
        for _ in 1..n {
            let mut changed = false;
            sweeps += 1;
            for j in 0..n {
                let Some(rj) = ready[j] else { continue };
                for (i, ri) in ready.iter_mut().enumerate() {
                    if i == j {
                        continue;
                    }
                    let reach = rj.saturating_add(self.la[j][i]);
                    let closer = match *ri {
                        None => true,
                        Some(ri) => reach < ri,
                    };
                    if closer {
                        *ri = Some(reach);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let horizons = (0..n)
            .map(|i| {
                let mut bound: Option<SimTime> = deadline
                    // The horizon is exclusive; an inclusive deadline caps
                    // it one nanosecond past.
                    .map(|d| d.saturating_add(SimDuration::from_nanos(1)));
                for (j, r) in ready.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    if let Some(r) = r {
                        let reach = r.saturating_add(self.la[j][i]);
                        bound = Some(bound.map_or(reach, |b| b.min(reach)));
                    }
                }
                bound
            })
            .collect();
        (horizons, sweeps)
    }

    /// Runs the workload to completion with every round's shard order
    /// chosen by `probe` (see [`ScheduleProbe`]); returns the outcome and
    /// the per-round active-shard log.
    ///
    /// Single-threaded by construction: each round executes its shards
    /// back-to-back in the picked order, which is exactly the
    /// interleaving freedom the worker pool has at runtime (cross-shard
    /// messages only move at the barrier either way).
    pub fn run_scheduled(
        &mut self,
        pick: &mut dyn FnMut(u64, &[usize]) -> Vec<usize>,
    ) -> (RunOutcome, Vec<Vec<usize>>) {
        let mut probe = ScheduleProbe {
            pick,
            log: Vec::new(),
        };
        let outcome = self.run_rounds_probed(u64::MAX, None, Some(&mut probe));
        (outcome, probe.log)
    }

    /// Drives synchronization rounds until drained, stopped, out of
    /// budget, or past the deadline.
    fn run_rounds(&mut self, max_steps: u64, deadline: Option<SimTime>) -> RunOutcome {
        self.run_rounds_probed(max_steps, deadline, None)
    }

    /// [`run_rounds`](Self::run_rounds), optionally under a schedule
    /// probe that sequentializes each round in a chosen order.
    fn run_rounds_probed(
        &mut self,
        max_steps: u64,
        deadline: Option<SimTime>,
        mut probe: Option<&mut ScheduleProbe<'_>>,
    ) -> RunOutcome {
        for s in &mut self.shards {
            s.stop = false;
        }
        let profile = self.telemetry_period().is_some();
        let start_steps = self.steps();
        let mut round = 0u64;
        let outcome = loop {
            let nexts: Vec<Option<SimTime>> =
                self.shards.iter().map(Core::next_event_time).collect();
            let Some(t_min) = nexts.iter().flatten().min().copied() else {
                break RunOutcome::Drained;
            };
            if let Some(d) = deadline {
                if t_min > d {
                    break RunOutcome::LimitReached;
                }
            }
            let done = self.steps() - start_steps;
            if done >= max_steps {
                break RunOutcome::LimitReached;
            }
            let budget = max_steps - done;
            let (horizons, sweeps) = self.horizons(&nexts, deadline);
            if profile {
                // Engine self-profiling (virtual-domain only — wall
                // clocks are lint-banned in product crates): round count,
                // channel-clock relaxation sweeps (the CMB null-message
                // analogue), and per-shard busy/stall shares in events.
                self.metrics.incr("runtime.sharded.rounds");
                self.metrics.add("runtime.sharded.cc_sweeps", sweeps);
            }

            match probe.as_deref_mut() {
                None => self.run_round(&horizons, budget),
                Some(p) => self.run_round_ordered(&nexts, &horizons, budget, round, p),
            }
            round += 1;

            // Deterministic exchange: shards in index order, each shard's
            // sends in production order. Each message is checked against
            // its link's lookahead — the channel-clock invariant — which
            // together with the horizon construction guarantees it lands
            // at or past its receiver's processed window.
            let mut moved = Vec::new();
            let mut stalled = 0u64;
            for (j, s) in self.shards.iter_mut().enumerate() {
                self.now = self.now.max(s.now);
                if profile {
                    // A shard that processed nothing this round spent the
                    // whole window blocked on the barrier: the per-shard
                    // busy (events) vs. barrier-wait (stalled rounds)
                    // split, measured in deterministic virtual units.
                    if s.processed == 0 {
                        stalled += 1;
                        self.metrics.incr(&s.series.stalled_rounds);
                    } else {
                        self.metrics.add(&s.series.busy_events, s.processed);
                    }
                }
                moved.extend(
                    s.cross
                        .drain(..)
                        .map(|(sent, time, dst, msg)| (j as u32, sent, time, dst, msg)),
                );
            }
            if profile {
                self.metrics
                    .add("runtime.sharded.stalled_shard_rounds", stalled);
                self.metrics
                    .add("runtime.sharded.cross_msgs", moved.len() as u64);
            }
            for (src, sent, time, dst, msg) in moved {
                let loc = self.locs[dst.index()];
                let la = self.la[src as usize][loc.core as usize];
                assert!(
                    time >= sent.saturating_add(la),
                    "lookahead violation: cross-shard message for {dst} at {time} \
                     sent at {sent} undercuts the link lookahead ({la}) from shard \
                     {src} to shard {peer} — the configured lookahead is not a \
                     lower bound on cross-node delay",
                    peer = loc.core,
                );
                self.shards[loc.core as usize].push(time, loc.local, dst, msg);
            }
            if self.shards.iter().any(|s| s.stop) {
                break RunOutcome::Stopped;
            }
        };
        let mut merged = Metrics::new();
        for s in &mut self.shards {
            merged.merge_from(&std::mem::take(&mut s.metrics));
        }
        self.metrics.merge_from(&merged);
        outcome
    }

    /// Explorer-mode round: runs the active shards sequentially in the
    /// order the probe picks, then the idle shards (whose windows are
    /// empty by construction) in index order.
    fn run_round_ordered(
        &mut self,
        nexts: &[Option<SimTime>],
        horizons: &[Option<SimTime>],
        budget: u64,
        round: u64,
        probe: &mut ScheduleProbe<'_>,
    ) {
        let active: Vec<usize> = (0..self.shards.len())
            .filter(|&i| match (nexts[i], horizons[i]) {
                (Some(t), Some(h)) => t < h,
                (Some(_), None) => true,
                (None, _) => false,
            })
            .collect();
        let order = (probe.pick)(round, &active);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted, active,
            "round {round}: schedule must be a permutation of the active shards"
        );
        let idle = (0..self.shards.len()).filter(|i| !active.contains(i));
        for i in order.iter().copied().chain(idle) {
            self.shards[i].run_window(horizons[i], budget, &self.locs, i as u32);
        }
        probe.log.push(active);
    }

    /// Runs one window across all shards on the worker pool.
    fn run_round(&mut self, horizons: &[Option<SimTime>], budget: u64) {
        let locs = &self.locs;
        let n = self.shards.len();
        if self.workers <= 1 || n <= 1 {
            for (i, s) in self.shards.iter_mut().enumerate() {
                s.run_window(horizons[i], budget, locs, i as u32);
            }
            return;
        }
        let slots: Vec<Mutex<&mut Core>> = self.shards.iter_mut().map(Mutex::new).collect();
        let workers = self.workers.min(n);
        let active = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let slots = &slots;
                let active = &active;
                scope.spawn(move || {
                    let mut did_work = false;
                    for (i, slot) in slots.iter().enumerate() {
                        if i % workers != w {
                            continue;
                        }
                        // Poison recovery mirrors Shared<T>: a panicking
                        // worker already aborts the run; cascading
                        // "poisoned" panics on the other workers would
                        // bury the original diagnostic.
                        let mut shard = slot
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        shard.run_window(horizons[i], budget, locs, i as u32);
                        did_work |= shard.processed > 0;
                    }
                    if did_work {
                        active.fetch_or(1 << w, Ordering::Relaxed);
                    }
                });
            }
        });
        let active_count = active.load(Ordering::Relaxed).count_ones() as u64;
        if active_count > 0 {
            // Track peak concurrency so tests (and users) can verify the
            // backend actually fans out over OS threads.
            let peak = self.metrics.counter("runtime.sharded.active_workers.peak");
            if active_count > peak {
                self.metrics
                    .add("runtime.sharded.active_workers.peak", active_count - peak);
            }
        }
    }
}

/// Picks the worker count: explicit config wins, then `FRACTOS_WORKERS`,
/// then `min(available cores, shards)` — floored at two threads whenever
/// there is more than one shard, so parallel code paths are exercised even
/// on single-core hosts (threads then interleave on one core).
fn resolve_workers(config: &RuntimeConfig, shards: usize) -> usize {
    let configured = config.workers.or_else(|| {
        std::env::var("FRACTOS_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
    });
    let workers = configured.unwrap_or_else(|| {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        cores.min(shards).max(if shards > 1 { 2 } else { 1 })
    });
    workers.clamp(1, shards.max(1))
}

impl Runtime for ShardedSim {
    fn add_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ActorId {
        self.register(0, name, actor)
    }

    fn add_actor_on(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId {
        self.register(node, name, actor)
    }

    fn post_boxed(&mut self, delay: SimDuration, dst: ActorId, msg: Msg) {
        let loc = *self
            .locs
            .get(dst.index())
            .unwrap_or_else(|| panic!("post to unregistered {dst}"));
        let time = self.now.saturating_add(delay);
        self.shards[loc.core as usize].push(time, loc.local, dst, msg);
    }

    fn run(&mut self) -> RunOutcome {
        self.run_rounds(u64::MAX, None)
    }

    fn run_with_limit(&mut self, max_steps: u64) -> RunOutcome {
        self.run_rounds(max_steps, None)
    }

    fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.run_rounds(u64::MAX, Some(deadline))
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn steps(&self) -> u64 {
        self.shards.iter().map(|s| s.steps).sum()
    }

    fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn actor_name(&self, id: ActorId) -> &str {
        &self.names[id.index()]
    }

    fn actor_count(&self) -> usize {
        self.locs.len()
    }

    fn enable_trace(&mut self) {
        self.shards.iter_mut().for_each(Core::enable_trace);
    }

    fn take_trace(&mut self) -> Vec<TraceEntry> {
        take_trace(&mut self.shards)
    }

    fn enable_spans(&mut self) {
        self.shards.iter_mut().for_each(Core::enable_spans);
    }

    fn take_spans(&mut self) -> Vec<SpanRecord> {
        take_spans(&mut self.shards)
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        for s in &mut self.shards {
            s.enable_telemetry(period);
        }
    }

    fn telemetry_period(&self) -> Option<SimDuration> {
        self.shards[0].telemetry_period()
    }

    fn take_telemetry(&mut self) -> Vec<TelemetryEvent> {
        take_telemetry(&mut self.shards)
    }

    fn with_actor_any(&mut self, id: ActorId, f: &mut dyn FnMut(&mut dyn std::any::Any)) {
        let loc = self.locs[id.index()];
        self.shards[loc.core as usize].with_actor_any(loc.local, id, f);
    }

    fn set_node_outages(&mut self, outages: Vec<NodeOutage>) {
        // Each shard keeps only its own node's windows.
        for (node, s) in self.shards.iter_mut().enumerate() {
            s.outages = outages.iter().filter(|o| o.node == node).copied().collect();
        }
    }

    fn backend_name(&self) -> &'static str {
        "sharded"
    }
}

impl std::fmt::Debug for ShardedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSim")
            .field("shards", &self.shards.len())
            .field("workers", &self.workers)
            .field("now", &self.now)
            .field("actors", &self.locs.len())
            .field("pending", &self.pending())
            .field("steps", &self.steps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;
    use crate::runtime::RuntimeExt;

    const LOOKAHEAD: SimDuration = SimDuration::from_micros(2);

    fn config(seed: u64, nodes: usize) -> RuntimeConfig {
        let mut c = RuntimeConfig::new(seed, nodes, LOOKAHEAD);
        c.workers = Some(2);
        c
    }

    /// Sends `remaining` pings to a peer with at-least-lookahead delay.
    struct Pinger {
        peer: Option<ActorId>,
        received: Vec<(SimTime, u32)>,
    }

    impl Actor for Pinger {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let v = *msg.downcast::<u32>().expect("u32 ping");
            self.received.push((ctx.now(), v));
            if let (Some(peer), true) = (self.peer, v > 0) {
                ctx.send_after(LOOKAHEAD, peer, v - 1);
            }
        }
    }

    fn pinger() -> Box<Pinger> {
        Box::new(Pinger {
            peer: None,
            received: Vec::new(),
        })
    }

    #[test]
    fn cross_shard_ping_pong_drains() {
        let mut rt = ShardedSim::new(&config(1, 2));
        let a = rt.add_actor_on(0, "a", pinger());
        let b = rt.add_actor_on(1, "b", pinger());
        rt.with_actor::<Pinger, _>(a, |p| p.peer = Some(b));
        rt.with_actor::<Pinger, _>(b, |p| p.peer = Some(a));
        rt.post(SimDuration::ZERO, a, 10u32);
        assert_eq!(rt.run(), RunOutcome::Drained);
        assert_eq!(rt.steps(), 11);
        let a_seen = rt.with_actor::<Pinger, _>(a, |p| p.received.clone());
        let b_seen = rt.with_actor::<Pinger, _>(b, |p| p.received.clone());
        assert_eq!(
            a_seen.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            [10, 8, 6, 4, 2, 0]
        );
        assert_eq!(
            b_seen.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            [9, 7, 5, 3, 1]
        );
    }

    #[test]
    fn same_seed_same_behavior() {
        let run = || {
            let mut rt = ShardedSim::new(&config(99, 3));
            let ids: Vec<_> = (0..3).map(|n| rt.add_actor_on(n, "p", pinger())).collect();
            for (i, id) in ids.iter().enumerate() {
                let peer = ids[(i + 1) % ids.len()];
                rt.with_actor::<Pinger, _>(*id, |p| p.peer = Some(peer));
            }
            rt.post(SimDuration::ZERO, ids[0], 20u32);
            rt.run();
            let mut log = Vec::new();
            for id in ids {
                rt.with_actor::<Pinger, _>(id, |p| log.push(p.received.clone()));
            }
            (rt.steps(), rt.now(), log)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut rt = ShardedSim::new(&config(5, 2));
        let a = rt.add_actor_on(0, "a", pinger());
        rt.post(SimDuration::from_micros(1), a, 0u32);
        rt.post(SimDuration::from_micros(100), a, 0u32);
        assert_eq!(
            rt.run_until(SimTime::from_nanos(50_000)),
            RunOutcome::LimitReached
        );
        assert_eq!(rt.pending(), 1);
        assert_eq!(rt.steps(), 1);
    }

    #[test]
    fn stop_halts_the_engine() {
        struct Stopper;
        impl Actor for Stopper {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                ctx.stop();
            }
        }
        let mut rt = ShardedSim::new(&config(5, 2));
        let a = rt.add_actor_on(0, "stop", Box::new(Stopper));
        rt.post(SimDuration::ZERO, a, 0u32);
        rt.post(SimDuration::from_secs(1), a, 0u32);
        assert_eq!(rt.run(), RunOutcome::Stopped);
        assert_eq!(rt.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn undelayed_cross_shard_send_is_rejected() {
        struct Rogue {
            peer: ActorId,
        }
        impl Actor for Rogue {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                let peer = self.peer;
                ctx.send_now(peer, 0u32);
            }
        }
        let mut rt = ShardedSim::new(&config(5, 2));
        let sink = rt.add_actor_on(1, "sink", pinger());
        let rogue = rt.add_actor_on(0, "rogue", Box::new(Rogue { peer: sink }));
        rt.post(SimDuration::ZERO, rogue, 0u32);
        rt.run();
    }

    #[test]
    fn metrics_merge_across_shards() {
        struct Counting;
        impl Actor for Counting {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                ctx.metrics().incr("hits");
                ctx.metrics().sample("lat", 1.5);
            }
        }
        let mut rt = ShardedSim::new(&config(5, 2));
        let a = rt.add_actor_on(0, "a", Box::new(Counting));
        let b = rt.add_actor_on(1, "b", Box::new(Counting));
        rt.post(SimDuration::ZERO, a, 0u32);
        rt.post(SimDuration::ZERO, b, 0u32);
        rt.run();
        assert_eq!(rt.metrics().counter("hits"), 2);
        assert_eq!(rt.metrics().histogram("lat").unwrap().count(), 2);
    }

    #[test]
    fn forced_single_worker_still_correct() {
        let mut cfg = config(7, 2);
        cfg.workers = Some(1);
        let mut rt = ShardedSim::new(&cfg);
        let a = rt.add_actor_on(0, "a", pinger());
        let b = rt.add_actor_on(1, "b", pinger());
        rt.with_actor::<Pinger, _>(a, |p| p.peer = Some(b));
        rt.with_actor::<Pinger, _>(b, |p| p.peer = Some(a));
        rt.post(SimDuration::ZERO, a, 6u32);
        assert_eq!(rt.run(), RunOutcome::Drained);
        assert_eq!(rt.steps(), 7);
    }

    /// A fixed-delay echo for the per-link tests.
    struct Echo {
        peer: ActorId,
        delay: SimDuration,
    }
    impl Actor for Echo {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let v = *msg.downcast::<u32>().expect("u32");
            if v > 0 {
                let (peer, delay) = (self.peer, self.delay);
                ctx.send_after(delay, peer, v - 1);
            }
        }
    }

    /// 3 nodes; the 0↔1 link allows 1 µs messages while every other link
    /// requires 5 µs. Under a single global-minimum bound the 5 µs links
    /// would be over-constrained or the 1 µs traffic rejected.
    fn asymmetric_config(seed: u64) -> RuntimeConfig {
        let fast = SimDuration::from_micros(1);
        let slow = SimDuration::from_micros(5);
        let mut la = vec![vec![slow; 3]; 3];
        la[0][1] = fast;
        la[1][0] = fast;
        let mut c = RuntimeConfig::new(seed, 3, fast);
        c.link_lookahead = Some(la);
        c.workers = Some(2);
        c
    }

    #[test]
    fn per_link_lookahead_accepts_fast_link_traffic() {
        let mut rt = ShardedSim::new(&asymmetric_config(3));
        let a = rt.add_actor_on(0, "a", pinger());
        let b = rt.add_actor_on(1, "b", pinger());
        rt.with_actor::<Pinger, _>(a, |p| p.peer = Some(b));
        rt.with_actor::<Pinger, _>(b, |p| p.peer = Some(a));
        // Pinger replies after LOOKAHEAD (2 µs) ≥ the 1 µs fast link bound
        // but below the 5 µs bound of every other link: accepted, because
        // only the 0↔1 link's lookahead governs this traffic.
        rt.post(SimDuration::ZERO, a, 8u32);
        assert_eq!(rt.run(), RunOutcome::Drained);
        assert_eq!(rt.steps(), 9);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn per_link_lookahead_rejects_undercutting_the_slow_link() {
        let mut rt = ShardedSim::new(&asymmetric_config(3));
        let sink = rt.add_actor_on(2, "sink", pinger());
        // 2 µs delay clears the 1 µs fast link but undercuts the 5 µs
        // bound on the 0→2 link.
        let rogue = rt.add_actor_on(
            0,
            "rogue",
            Box::new(Echo {
                peer: sink,
                delay: SimDuration::from_micros(2),
            }),
        );
        rt.post(SimDuration::ZERO, rogue, 1u32);
        rt.run();
    }

    #[test]
    fn node_outage_drops_on_the_sharded_backend() {
        let mut rt = ShardedSim::new(&config(3, 2));
        let a = rt.add_actor_on(0, "a", pinger());
        let b = rt.add_actor_on(1, "b", pinger());
        rt.set_node_outages(vec![NodeOutage {
            node: 1,
            down: SimTime::from_nanos(10_000),
            up: Some(SimTime::from_nanos(20_000)),
        }]);
        rt.post(SimDuration::from_micros(5), b, 1u32); // before: delivered
        rt.post(SimDuration::from_micros(15), b, 2u32); // interior: dropped
        rt.post(SimDuration::from_micros(25), b, 3u32); // after: delivered
        rt.post(SimDuration::from_micros(15), a, 4u32); // other node: delivered
        assert_eq!(rt.run(), RunOutcome::Drained);
        let b_seen = rt.with_actor::<Pinger, _>(b, |p| p.received.clone());
        assert_eq!(b_seen.iter().map(|(_, v)| *v).collect::<Vec<_>>(), [1, 3]);
        let a_seen = rt.with_actor::<Pinger, _>(a, |p| p.received.clone());
        assert_eq!(a_seen.len(), 1);
        assert_eq!(rt.metrics().counter("engine.outage_drops"), 1);
    }

    #[test]
    fn heterogeneous_links_drain_deterministically() {
        let run = || {
            let mut rt = ShardedSim::new(&asymmetric_config(11));
            // Ring of echoes with 5 µs hops (≥ every link bound).
            let ids: Vec<_> = (0..3)
                .map(|n| {
                    rt.add_actor_on(
                        n,
                        "e",
                        Box::new(Echo {
                            peer: ActorId::from_raw(0),
                            delay: SimDuration::from_micros(5),
                        }),
                    )
                })
                .collect();
            for (i, id) in ids.iter().enumerate() {
                let peer = ids[(i + 1) % ids.len()];
                rt.with_actor::<Echo, _>(*id, |e| e.peer = peer);
            }
            rt.post(SimDuration::ZERO, ids[0], 12u32);
            assert_eq!(rt.run(), RunOutcome::Drained);
            (rt.steps(), rt.now())
        };
        assert_eq!(run(), run());
        let (steps, end) = run();
        assert_eq!(steps, 13);
        assert_eq!(end, SimTime::from_nanos(12 * 5_000));
    }
}
