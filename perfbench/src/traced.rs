//! Outside-in per-layer timing.
//!
//! [`traced`] wraps a [`Runtime`] so that every actor registered through
//! it is wrapped in a [`Timed`] shell. The shell times `Actor::handle` on
//! the host clock and attributes the time to the actor's layer, which is
//! read from the actor's concrete type at registration. Controller time is
//! further split by message variant (`Syscall::name()` for syscalls, the
//! `PeerOp` variant for peer operations). The program under test is not
//! modified: the wrapper only sees what the public `Runtime` and `Actor`
//! traits expose.
//!
//! `with_actor_any` is forwarded to the wrapped actor (trait upcasting
//! `&mut dyn Actor` to `&mut dyn Any`), so `Testbed::with_service` and
//! `Testbed::with_controller` keep working on a traced runtime.

use std::any::{Any, TypeId};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use fractos_baselines::raw::{PingPongClient, PingPongServer};
use fractos_core::messages::{CtrlMsg, PeerOp, ProcMsg};
use fractos_core::{ControllerActor, ProcessActor};
use fractos_devices::{BlockAdaptor, GpuAdaptor};
use fractos_services::faceverify::{FaceVerifyFrontend, FvClient};
use fractos_services::fs::FsService;
use fractos_sim::{
    Actor, ActorId, Ctx, Metrics, Msg, NodeOutage, RunOutcome, Runtime, SimDuration, SimTime,
    SpanRecord, TelemetryEvent, TraceEntry,
};

use crate::workloads::ChurnClient;

/// The layer an actor's host time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `fractos-core` Controllers.
    Controller,
    /// The GPU device adaptor.
    Gpu,
    /// The NVMe block-device adaptor.
    Nvme,
    /// Load-generating clients (`FvClient`, the `cap_churn` client).
    Client,
    /// The face-verification frontend.
    Frontend,
    /// The file-system service.
    Fs,
    /// Raw baseline actors (`fractos_baselines::raw`).
    Raw,
    /// Everything else (bootstrap helpers, the `cap_churn` server).
    Other,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 8] = [
    Layer::Controller,
    Layer::Gpu,
    Layer::Nvme,
    Layer::Client,
    Layer::Frontend,
    Layer::Fs,
    Layer::Raw,
    Layer::Other,
];

impl Layer {
    fn of(actor: &dyn Any) -> Layer {
        let t = actor.type_id();
        let is = |id: TypeId| t == id;
        if is(TypeId::of::<ControllerActor>()) {
            Layer::Controller
        } else if is(TypeId::of::<ProcessActor<GpuAdaptor>>()) {
            Layer::Gpu
        } else if is(TypeId::of::<ProcessActor<BlockAdaptor>>()) {
            Layer::Nvme
        } else if is(TypeId::of::<ProcessActor<FvClient>>())
            || is(TypeId::of::<ProcessActor<ChurnClient>>())
        {
            Layer::Client
        } else if is(TypeId::of::<ProcessActor<FaceVerifyFrontend>>()) {
            Layer::Frontend
        } else if is(TypeId::of::<ProcessActor<FsService>>()) {
            Layer::Fs
        } else if is(TypeId::of::<PingPongClient>()) || is(TypeId::of::<PingPongServer>()) {
            Layer::Raw
        } else {
            Layer::Other
        }
    }

    /// Index into [`LAYERS`] (which lists the variants in declaration
    /// order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Controller message keys: the syscall names (as `Syscall::name()`
/// returns them), then the peer operations, then everything else.
pub const CTRL_KEYS: [&str; 32] = [
    "null",
    "memory_create",
    "memory_diminish",
    "memory_copy",
    "request_create",
    "request_invoke",
    "cap_create_revtree",
    "cap_revoke",
    "monitor_delegate",
    "monitor_receive",
    "memory_stat",
    "kv_put",
    "kv_get",
    "peer.invoke",
    "peer.invoke_ack",
    "peer.derive",
    "peer.derive_ack",
    "peer.delegate",
    "peer.delegate_ack",
    "peer.revoke",
    "peer.revoke_ack",
    "peer.monitor",
    "peer.monitor_ack",
    "peer.monitor_event",
    "peer.cleanup",
    "peer.fail_process",
    "peer.kv_put",
    "peer.kv_put_ack",
    "peer.kv_get",
    "peer.kv_get_ack",
    "ctrl.control",
    "unknown",
];

fn peer_key(op: &PeerOp) -> &'static str {
    match op {
        PeerOp::Invoke { .. } => "peer.invoke",
        PeerOp::InvokeAck { .. } => "peer.invoke_ack",
        PeerOp::Derive { .. } => "peer.derive",
        PeerOp::DeriveAck { .. } => "peer.derive_ack",
        PeerOp::Delegate { .. } => "peer.delegate",
        PeerOp::DelegateAck { .. } => "peer.delegate_ack",
        PeerOp::Revoke { .. } => "peer.revoke",
        PeerOp::RevokeAck { .. } => "peer.revoke_ack",
        PeerOp::Monitor { .. } => "peer.monitor",
        PeerOp::MonitorAck { .. } => "peer.monitor_ack",
        PeerOp::MonitorEvent { .. } => "peer.monitor_event",
        PeerOp::Cleanup { .. } => "peer.cleanup",
        PeerOp::FailProcess { .. } => "peer.fail_process",
        PeerOp::KvPut { .. } => "peer.kv_put",
        PeerOp::KvPutAck { .. } => "peer.kv_put_ack",
        PeerOp::KvGet { .. } => "peer.kv_get",
        PeerOp::KvGetAck { .. } => "peer.kv_get_ack",
    }
}

fn ctrl_key(msg: &Msg) -> usize {
    let key = match msg.downcast_ref::<CtrlMsg>() {
        Some(CtrlMsg::FromProc { sc, .. }) => sc.name(),
        Some(CtrlMsg::FromPeer { op, .. }) => peer_key(op),
        Some(_) => "ctrl.control",
        None => "unknown",
    };
    CTRL_KEYS
        .iter()
        .position(|&k| k == key)
        .unwrap_or(CTRL_KEYS.len() - 1)
}

/// Host cost of one message class: how many, how long.
#[derive(Default)]
struct Counter {
    count: AtomicU64,
    ns: AtomicU64,
}

impl Counter {
    fn add(&self, ns: u64) {
        self.count.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Relaxed);
        self.ns.store(0, Relaxed);
    }

    fn get(&self) -> (u64, u64) {
        (self.count.load(Relaxed), self.ns.load(Relaxed))
    }
}

/// Per-actor costs, shared between the actor's [`Timed`] shell (which
/// may run on a sharded worker thread) and the [`Probe`].
struct ActorCost {
    layer: Layer,
    handle: Counter,
    /// Controllers only: `handle` split by [`CTRL_KEYS`].
    by_key: Vec<Counter>,
    /// `wire_size()` calls on delivered `CtrlToProc` / `PeerOp` messages.
    wire: Counter,
    wire_bytes: AtomicU64,
}

impl ActorCost {
    fn reset(&self) {
        self.handle.reset();
        self.by_key.iter().for_each(Counter::reset);
        self.wire.reset();
        self.wire_bytes.store(0, Relaxed);
    }
}

/// Handle on a traced runtime's measurements.
#[derive(Clone, Default)]
pub struct Probe(Arc<Mutex<Vec<Arc<ActorCost>>>>);

/// Host cost of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    /// Handled events.
    pub events: u64,
    /// Host nanoseconds inside `handle`.
    pub ns: u64,
}

/// What a traced runtime measured since the last [`Probe::reset`].
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-layer costs, indexed like [`LAYERS`].
    pub layers: Vec<LayerCost>,
    /// Controller costs, indexed like [`CTRL_KEYS`].
    pub ctrl_keys: Vec<LayerCost>,
    /// Delivered control messages whose size was re-encoded.
    pub wire_msgs: u64,
    /// Host nanoseconds spent in those `wire_size()` calls.
    pub wire_ns: u64,
    /// Sum of the sizes they returned.
    pub wire_bytes: u64,
}

impl Report {
    /// Host time attributed to some layer (actor handlers plus wire
    /// re-encoding).
    pub fn busy_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.ns).sum::<u64>() + self.wire_ns
    }
}

impl Probe {
    fn actors(&self) -> std::sync::MutexGuard<'_, Vec<Arc<ActorCost>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Zeroes every measurement (call between set-up and the measured
    /// phase).
    pub fn reset(&self) {
        self.actors().iter().for_each(|a| a.reset());
    }

    /// Sums the measurements so far.
    pub fn report(&self) -> Report {
        let mut r = Report {
            layers: vec![LayerCost::default(); LAYERS.len()],
            ctrl_keys: vec![LayerCost::default(); CTRL_KEYS.len()],
            ..Report::default()
        };
        for a in self.actors().iter() {
            let (events, ns) = a.handle.get();
            let l = &mut r.layers[a.layer.index()];
            l.events += events;
            l.ns += ns;
            for (slot, c) in r.ctrl_keys.iter_mut().zip(&a.by_key) {
                let (events, ns) = c.get();
                slot.events += events;
                slot.ns += ns;
            }
            let (msgs, ns) = a.wire.get();
            r.wire_msgs += msgs;
            r.wire_ns += ns;
            r.wire_bytes += a.wire_bytes.load(Relaxed);
        }
        r
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The timing shell around one actor.
struct Timed {
    inner: Box<dyn Actor>,
    cost: Arc<ActorCost>,
}

impl Timed {
    /// Re-encodes a delivered control message's size, as the sender's
    /// Controller did, and times it.
    fn time_wire(&self, msg: &Msg) {
        let t = Instant::now();
        let bytes = if let Some(ProcMsg::FromCtrl { msg, .. }) = msg.downcast_ref::<ProcMsg>() {
            black_box(msg).wire_size()
        } else if let Some(CtrlMsg::FromPeer { op, .. }) = msg.downcast_ref::<CtrlMsg>() {
            black_box(op).wire_size()
        } else {
            return;
        };
        self.cost.wire.add(elapsed_ns(t));
        self.cost.wire_bytes.fetch_add(black_box(bytes), Relaxed);
    }
}

impl Actor for Timed {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let key = (self.cost.layer == Layer::Controller).then(|| ctrl_key(&msg));
        self.time_wire(&msg);
        let t = Instant::now();
        self.inner.handle(msg, ctx);
        let ns = elapsed_ns(t);
        self.cost.handle.add(ns);
        if let Some(k) = key {
            self.cost.by_key[k].add(ns);
        }
    }
}

/// A [`Runtime`] whose actors are wrapped in [`Timed`] shells.
struct Traced {
    inner: Box<dyn Runtime>,
    probe: Probe,
}

/// Wraps `inner` for per-layer timing; the [`Probe`] reads the results.
pub fn traced(inner: Box<dyn Runtime>) -> (Box<dyn Runtime>, Probe) {
    let probe = Probe::default();
    let rt = Traced {
        inner,
        probe: probe.clone(),
    };
    (Box::new(rt), probe)
}

impl Traced {
    fn wrap(&self, actor: Box<dyn Actor>) -> Box<dyn Actor> {
        let any: &dyn Any = &*actor;
        let layer = Layer::of(any);
        let keys = if layer == Layer::Controller {
            CTRL_KEYS.len()
        } else {
            0
        };
        let cost = Arc::new(ActorCost {
            layer,
            handle: Counter::default(),
            by_key: (0..keys).map(|_| Counter::default()).collect(),
            wire: Counter::default(),
            wire_bytes: AtomicU64::new(0),
        });
        self.probe.actors().push(cost.clone());
        Box::new(Timed { inner: actor, cost })
    }
}

impl Runtime for Traced {
    fn add_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ActorId {
        let actor = self.wrap(actor);
        self.inner.add_actor(name, actor)
    }

    fn add_actor_on(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId {
        let actor = self.wrap(actor);
        self.inner.add_actor_on(node, name, actor)
    }

    fn post_boxed(&mut self, delay: SimDuration, dst: ActorId, msg: Msg) {
        self.inner.post_boxed(delay, dst, msg);
    }

    fn run(&mut self) -> RunOutcome {
        self.inner.run()
    }

    fn run_with_limit(&mut self, max_steps: u64) -> RunOutcome {
        self.inner.run_with_limit(max_steps)
    }

    fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.inner.run_until(deadline)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn steps(&self) -> u64 {
        self.inner.steps()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        self.inner.metrics_mut()
    }

    fn actor_name(&self, id: ActorId) -> &str {
        self.inner.actor_name(id)
    }

    fn actor_count(&self) -> usize {
        self.inner.actor_count()
    }

    fn enable_trace(&mut self) {
        self.inner.enable_trace();
    }

    fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.inner.take_trace()
    }

    fn enable_spans(&mut self) {
        self.inner.enable_spans();
    }

    fn take_spans(&mut self) -> Vec<SpanRecord> {
        self.inner.take_spans()
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        self.inner.enable_telemetry(period);
    }

    fn telemetry_period(&self) -> Option<SimDuration> {
        self.inner.telemetry_period()
    }

    fn take_telemetry(&mut self) -> Vec<TelemetryEvent> {
        self.inner.take_telemetry()
    }

    fn with_actor_any(&mut self, id: ActorId, f: &mut dyn FnMut(&mut dyn Any)) {
        self.inner
            .with_actor_any(id, &mut |any| match any.downcast_mut::<Timed>() {
                Some(timed) => {
                    let actor: &mut dyn Any = timed.inner.as_mut();
                    f(actor)
                }
                None => f(any),
            });
    }

    fn set_node_outages(&mut self, outages: Vec<NodeOutage>) {
        self.inner.set_node_outages(outages);
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}
