//! The four closed-loop workloads.
//!
//! Each workload builds its runtime explicitly (`build_runtime` plus
//! `Testbed::with_runtime` where a testbed is needed), so no environment
//! variable selects its backend, worker count, telemetry or tracing. Each
//! runs a fixed op count: per-op host cost depends on run length, so a time
//! budget would change what is measured. The seed drives the fabric's
//! latency jitter and, on the ring, the cross-rack switch latency.

use std::time::Instant;

use fractos_baselines::raw::{Peer, PingPongClient, PingPongServer, Start as PingStart};
use fractos_cap::{Cid, ControllerAddr};
use fractos_core::prelude::*;
use fractos_devices::proto::{imm, imm_at};
use fractos_net::{Fabric, NetParams, NodeConfig, Topology, TrafficStats, WIRE_HEADER_BYTES};
use fractos_services::deploy::deploy_faceverify;
use fractos_services::faceverify::{FvClient, FvConfig};
use fractos_sim::{build_runtime, RuntimeConfig, Shared, SimRng};

use crate::traced::{traced, Probe, Report};

/// Multiplicative fabric latency jitter (uniform ±2%; the paper reports
/// every standard deviation below 3% of the mean). It is what the seed
/// varies.
const JITTER: f64 = 0.02;

/// `fv_fig2`: verification requests, images per request, image bytes and
/// requests in flight from the one client.
const FV_REQUESTS: u64 = 2_000;
const FV_BATCH: u64 = 8;
const FV_IMG: u64 = 4096;
const FV_IN_FLIGHT: u64 = 4;
/// Reference identities loaded into the database.
const FV_DB: u64 = 256;

/// `cap_churn`: iterations and the size of the Memory object minted in
/// each.
const CHURN_ITERS: u64 = 5_000;
const CHURN_MEM: u64 = 4096;

/// Ring workloads: nodes (two racks of four), cross-rack latency extra
/// (drawn per seed within ±0.5% of 2 µs), and round trips per client.
const RING_NODES: u32 = 8;
const RING_RACK: u32 = 4;
const RING_CROSS_RACK_NS: u64 = 1_990;
const RING_CROSS_RACK_SPREAD_NS: u64 = 21;
const RING_ROUNDS: u64 = 150_000;
const RING_SHARDED_ROUNDS: u64 = 3_000;

/// Every workload name, in report order.
pub const WORKLOADS: [&str; 4] = ["fv_fig2", "cap_churn", "ring", "ring_sharded"];

/// One repetition of one workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Workload name.
    pub workload: &'static str,
    /// Runtime backend (`Runtime::backend_name`).
    pub backend: &'static str,
    /// Worker threads of the backend.
    pub workers: usize,
    /// Seed of the run.
    pub seed: u64,
    /// Ops attempted.
    pub ops: u64,
    /// Ops that completed and passed their output check.
    pub verified: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Host seconds of set-up (runtime, testbed, deployment).
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub run_s: f64,
    /// Engine events of the measured phase.
    pub events: u64,
    /// Virtual nanoseconds of the measured phase.
    pub sim_span_ns: u64,
    /// Per-op virtual latency, nearest-rank p50 and p99, in ns.
    pub lat_p50_ns: u64,
    /// See `lat_p50_ns`.
    pub lat_p99_ns: u64,
    /// Fabric messages of the measured phase.
    pub net_msgs: u64,
    /// Fabric payload bytes of the measured phase.
    pub net_bytes: u64,
    /// Fabric bytes on the wire: payload plus the per-message header.
    pub net_wire_bytes: u64,
    /// Fabric data-plane messages of the measured phase.
    pub net_data_msgs: u64,
    /// Live capability-space entries over every Controller at the end.
    pub live_caps: u64,
    /// Shards of the sharded backend (0 on the single-threaded one).
    pub shards: u64,
    /// Sharded rounds of the measured phase (traced runs only).
    pub sharded_rounds: u64,
    /// Shard-rounds in which a shard processed nothing (traced runs only).
    pub sharded_stalled: u64,
    /// Per-layer host timing (traced runs only).
    pub layers: Option<Report>,
}

impl Rep {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Runs one repetition of `workload`.
pub fn run(workload: &str, seed: u64, trace: bool) -> Option<Rep> {
    let rep = match workload {
        "fv_fig2" => fv_fig2(seed, trace),
        "cap_churn" => cap_churn(seed, trace),
        "ring" => ring(seed, trace, RuntimeKind::SingleThreaded, RING_ROUNDS),
        "ring_sharded" => ring(seed, trace, RuntimeKind::Sharded, RING_SHARDED_ROUNDS),
        _ => return None,
    };
    Some(rep)
}

/// Builds the runtime, wrapped for per-layer timing when `trace` is set.
fn runtime(
    kind: RuntimeKind,
    mut config: RuntimeConfig,
    trace: bool,
) -> (Box<dyn Runtime>, Option<Probe>, usize) {
    let workers = match kind {
        RuntimeKind::SingleThreaded => 1,
        RuntimeKind::Sharded => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            cores.min(config.nodes)
        }
    };
    config.workers = Some(workers);
    let rt = build_runtime(kind, &config);
    if trace {
        let (rt, probe) = traced(rt);
        (rt, Some(probe), workers)
    } else {
        (rt, None, workers)
    }
}

/// State captured at the start of the measured phase.
struct Mark {
    wall: Instant,
    virt: SimTime,
    steps: u64,
    rounds: u64,
    stalled: u64,
}

const ROUNDS: &str = "runtime.sharded.rounds";
const STALLED: &str = "runtime.sharded.stalled_shard_rounds";

impl Mark {
    /// Ends set-up: records it in `rep` and starts the measured phase.
    fn start(rt: &mut dyn Runtime, probe: &Option<Probe>, setup: Instant, rep: &mut Rep) -> Mark {
        rep.setup_s = setup.elapsed().as_secs_f64();
        if let Some(p) = probe {
            if rep.shards > 0 {
                // The sharded engine counts rounds only while its
                // telemetry plane is on; the plane records but never
                // schedules, so the run itself is unchanged.
                rt.enable_telemetry(SimDuration::from_millis(1));
            }
            p.reset();
        }
        Mark {
            virt: rt.now(),
            steps: rt.steps(),
            rounds: rt.metrics().counter(ROUNDS),
            stalled: rt.metrics().counter(STALLED),
            wall: Instant::now(),
        }
    }

    /// Ends the measured phase.
    fn stop(self, rt: &dyn Runtime, probe: &Option<Probe>, rep: &mut Rep) {
        rep.run_s = self.wall.elapsed().as_secs_f64();
        rep.events = rt.steps() - self.steps;
        rep.sim_span_ns = rt.now().duration_since(self.virt).as_nanos();
        rep.sharded_rounds = rt.metrics().counter(ROUNDS) - self.rounds;
        rep.sharded_stalled = rt.metrics().counter(STALLED) - self.stalled;
        rep.layers = probe.as_ref().map(Probe::report);
    }
}

fn record_latencies(rep: &mut Rep, mut lat_ns: Vec<u64>) {
    lat_ns.sort_unstable();
    let rank = |q: f64| {
        let n = lat_ns.len();
        let i = ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1;
        lat_ns.get(i).copied().unwrap_or(0)
    };
    rep.lat_p50_ns = rank(0.50);
    rep.lat_p99_ns = rank(0.99);
}

fn record_traffic(rep: &mut Rep, t: &TrafficStats) {
    rep.net_msgs = t.network_msgs();
    rep.net_bytes = t.network_bytes();
    rep.net_wire_bytes = rep.net_bytes + rep.net_msgs * WIRE_HEADER_BYTES;
    rep.net_data_msgs = t.network_data_msgs();
}

fn live_caps(tb: &mut Testbed) -> u64 {
    let ctrls = tb.dir.borrow().all_ctrls();
    let mut total = 0;
    for ctrl in ctrls {
        let procs = tb.dir.borrow().procs_of(ctrl);
        total += tb.with_controller(ctrl, |c| {
            procs.iter().map(|&p| c.capspace_len(p) as u64).sum::<u64>()
        });
    }
    total
}

fn paper_testbed(seed: u64, trace: bool, rep: &mut Rep) -> (Testbed, Option<Probe>) {
    let topology = Topology::paper_testbed();
    let params = NetParams::paper_with_jitter(JITTER);
    let config = Testbed::runtime_config(&topology, &params, seed);
    let (rt, probe, workers) = runtime(RuntimeKind::SingleThreaded, config, trace);
    rep.backend = rt.backend_name();
    rep.workers = workers;
    (Testbed::with_runtime(topology, params, rt), probe)
}

/// The paper's Fig 2 pipeline with results stored on the output SSD.
fn fv_fig2(seed: u64, trace: bool) -> Rep {
    let mut rep = Rep {
        workload: "fv_fig2",
        seed,
        ops: FV_REQUESTS,
        ..Rep::default()
    };
    let setup = Instant::now();
    let (mut tb, probe) = paper_testbed(seed, trace, &mut rep);
    let ctrls = tb.controllers_per_node(false);
    let cfg = FvConfig {
        img_bytes: FV_IMG,
        store_results: true,
        ..FvConfig::default()
    };
    deploy_faceverify(&mut tb, &ctrls, cfg, FV_DB);
    let mut svc = FvClient::new(FV_IMG, FV_BATCH, FV_REQUESTS, FV_IN_FLIGHT);
    svc.expect_stored = true;
    let client = tb.add_process("client", cpu(2), ctrls[2], svc);
    tb.reset_traffic();

    let mark = Mark::start(tb.sim.as_mut(), &probe, setup, &mut rep);
    tb.start_process(client);
    tb.run();
    mark.stop(tb.sim.as_ref(), &probe, &mut rep);

    let (lat, matched) = tb.with_service::<FvClient, _>(client, |c| {
        let lat: Vec<u64> = c.samples.iter().map(|s| s.latency().as_nanos()).collect();
        (
            lat,
            c.samples.iter().filter(|s| s.all_matched).count() as u64,
        )
    });
    let samples = lat.len() as u64;
    rep.check(samples == FV_REQUESTS, || {
        format!("fv_fig2: {samples} samples for {FV_REQUESTS} requests")
    });
    rep.check(matched == samples, || {
        format!(
            "fv_fig2: {} of {samples} samples not all_matched",
            samples - matched
        )
    });
    rep.verified = matched.min(FV_REQUESTS);
    record_latencies(&mut rep, lat);
    record_traffic(&mut rep, &tb.traffic());
    rep.live_caps = live_caps(&mut tb);
    rep
}

/// Provider tag of the `cap_churn` server's Request.
const TAG_CHURN: u64 = 0x7c00;
/// Tag of the client's per-iteration reply Request.
const TAG_CHURN_REPLY: u64 = 0x7c01;
const CHURN_KEY: &str = "perfbench.churn";

/// The `cap_churn` server: answers each delegated Request through the
/// reply Request it carries.
#[derive(Default)]
pub struct ChurnServer {
    /// Delegations received (a Memory capability plus a reply Request).
    pub delegations: u64,
    /// Requests that arrived without both capabilities.
    pub malformed: u64,
}

impl Service for ChurnServer {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.request_create_new(TAG_CHURN, vec![], vec![], |_s, res, fos| {
            fos.kv_put(CHURN_KEY, res.cid(), |_, _, _| {});
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let &[_mem, reply] = req.caps.as_slice() else {
            self.malformed += 1;
            return;
        };
        self.delegations += 1;
        fos.request_invoke(reply, |_, _, _| {});
    }
}

/// The `cap_churn` client: per iteration, mints a Memory capability,
/// delegates it with a reply Request through a Request derived from the
/// server's, and revokes it once the server has answered.
pub struct ChurnClient {
    iters: u64,
    server: Option<Cid>,
    addr: u64,
    mem: Option<Cid>,
    started: SimTime,
    /// Virtual latency of each finished iteration, in ns.
    pub lat_ns: Vec<u64>,
    /// Revokes that returned Ok.
    pub revoked: u64,
    /// Failed syscalls and revokes.
    pub errors: u64,
}

impl ChurnClient {
    fn new(iters: u64) -> Self {
        ChurnClient {
            iters,
            server: None,
            addr: 0,
            mem: None,
            started: SimTime::ZERO,
            lat_ns: Vec::with_capacity(iters as usize),
            revoked: 0,
            errors: 0,
        }
    }

    fn begin(&mut self, fos: &Fos<Self>) {
        let (Some(server), i) = (self.server, self.lat_ns.len() as u64) else {
            return;
        };
        self.started = fos.now();
        fos.memory_create(
            self.addr,
            CHURN_MEM,
            Perms::RW,
            move |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(mem) = res else {
                    s.errors += 1;
                    return;
                };
                s.mem = Some(mem);
                fos.request_create_new(
                    TAG_CHURN_REPLY,
                    vec![imm(i)],
                    vec![],
                    move |s, res, fos| {
                        let SyscallResult::NewCid(reply) = res else {
                            s.errors += 1;
                            return;
                        };
                        fos.request_derive(
                            server,
                            vec![imm(i)],
                            vec![mem, reply],
                            |s, res, fos| {
                                let SyscallResult::NewCid(req) = res else {
                                    s.errors += 1;
                                    return;
                                };
                                fos.request_invoke(req, |s: &mut Self, res, _| {
                                    if !res.is_ok() {
                                        s.errors += 1;
                                    }
                                });
                            },
                        );
                    },
                );
            },
        );
    }
}

impl Service for ChurnClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        self.addr = fos.mem_alloc(CHURN_MEM);
        fos.kv_get(CHURN_KEY, |s: &mut Self, res, fos| {
            let SyscallResult::NewCid(server) = res else {
                s.errors += 1;
                return;
            };
            s.server = Some(server);
            s.begin(fos);
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let expected = self.lat_ns.len() as u64;
        if req.tag != TAG_CHURN_REPLY || imm_at(&req.imms, 0) != Some(expected) {
            self.errors += 1;
            return;
        }
        let Some(mem) = self.mem.take() else {
            self.errors += 1;
            return;
        };
        fos.call(Syscall::CapRevoke { cid: mem }, |s: &mut Self, res, fos| {
            if res.is_ok() {
                s.revoked += 1;
            } else {
                s.errors += 1;
            }
            s.lat_ns
                .push(fos.now().duration_since(s.started).as_nanos());
            if (s.lat_ns.len() as u64) < s.iters {
                s.begin(fos);
            }
        });
    }
}

/// Capability lifecycle: client on node 1, server on node 0.
fn cap_churn(seed: u64, trace: bool) -> Rep {
    let mut rep = Rep {
        workload: "cap_churn",
        seed,
        ops: CHURN_ITERS,
        ..Rep::default()
    };
    let setup = Instant::now();
    let (mut tb, probe) = paper_testbed(seed, trace, &mut rep);
    let ctrls: Vec<ControllerAddr> = tb.controllers_per_node(false);
    let server = tb.add_process("churn-server", cpu(0), ctrls[0], ChurnServer::default());
    tb.start_process(server);
    tb.run();
    let client = tb.add_process(
        "churn-client",
        cpu(1),
        ctrls[1],
        ChurnClient::new(CHURN_ITERS),
    );
    tb.reset_traffic();

    let mark = Mark::start(tb.sim.as_mut(), &probe, setup, &mut rep);
    tb.start_process(client);
    tb.run();
    mark.stop(tb.sim.as_ref(), &probe, &mut rep);

    let (lat, revoked, errors) = tb.with_service::<ChurnClient, _>(client, |c| {
        (std::mem::take(&mut c.lat_ns), c.revoked, c.errors)
    });
    let (delegations, malformed) =
        tb.with_service::<ChurnServer, _>(server, |s| (s.delegations, s.malformed));
    let done = lat.len() as u64;
    rep.check(done == CHURN_ITERS, || {
        format!("cap_churn: {done} of {CHURN_ITERS} iterations finished")
    });
    rep.check(revoked == CHURN_ITERS && errors == 0, || {
        format!("cap_churn: {revoked} revokes Ok, {errors} failed syscalls")
    });
    rep.check(delegations == CHURN_ITERS && malformed == 0, || {
        format!("cap_churn: server received {delegations} delegations, {malformed} malformed")
    });
    rep.verified = revoked.min(delegations).min(done);
    record_latencies(&mut rep, lat);
    record_traffic(&mut rep, &tb.traffic());
    rep.live_caps = live_caps(&mut tb);
    rep
}

/// The raw ping-pong ring: client on node i, server on node i+1, eight
/// nodes in two racks.
fn ring(seed: u64, trace: bool, kind: RuntimeKind, rounds: u64) -> Rep {
    let mut rep = Rep {
        workload: if kind == RuntimeKind::Sharded {
            "ring_sharded"
        } else {
            "ring"
        },
        seed,
        ops: u64::from(RING_NODES) * rounds,
        ..Rep::default()
    };
    let setup = Instant::now();
    let mut topology = Topology::new();
    for i in 0..RING_NODES {
        topology.add_node(NodeConfig::cpu_only(&format!("n{i}")).in_rack(i / RING_RACK));
    }
    // The ring's p99 is set by its two cross-rack hops, and over a million
    // round trips the jitter alone no longer moves it by a nanosecond; the
    // seeded switch latency makes the tail depend on the seed as well.
    let cross_rack = RING_CROSS_RACK_NS + SimRng::new(seed).gen_range(RING_CROSS_RACK_SPREAD_NS);
    let params = NetParams {
        cross_rack_extra: SimDuration::from_nanos(cross_rack),
        ..NetParams::paper_with_jitter(JITTER)
    };
    let config = Testbed::runtime_config(&topology, &params, seed);
    let (mut sim, probe, workers) = runtime(kind, config, trace);
    rep.backend = sim.backend_name();
    rep.workers = workers;
    if kind == RuntimeKind::Sharded {
        rep.shards = u64::from(RING_NODES);
    }
    let fabric = Shared::named("fabric", Fabric::new(topology, params));
    let mut clients = Vec::new();
    for a in 0..RING_NODES {
        let b = (a + 1) % RING_NODES;
        let server_ep = Endpoint::cpu(NodeId(b));
        let server = sim.add_actor_on(
            b as usize,
            &format!("server{a}to{b}"),
            Box::new(PingPongServer::new(server_ep, fabric.clone())),
        );
        let client = sim.add_actor_on(
            a as usize,
            &format!("client{a}"),
            Box::new(PingPongClient::new(
                Endpoint::cpu(NodeId(a)),
                Peer {
                    actor: server,
                    endpoint: server_ep,
                },
                rounds,
                fabric.clone(),
            )),
        );
        clients.push(client);
    }

    let mark = Mark::start(sim.as_mut(), &probe, setup, &mut rep);
    for &client in &clients {
        sim.post(SimDuration::ZERO, client, PingStart);
    }
    sim.run();
    mark.stop(sim.as_ref(), &probe, &mut rep);

    let name = rep.workload;
    let mut lat = Vec::with_capacity(rep.ops as usize);
    for (i, &client) in clients.iter().enumerate() {
        let got = sim.with_actor::<PingPongClient, _>(client, |c| {
            lat.extend(c.latencies.iter().map(|d| d.as_nanos()));
            c.latencies.len() as u64
        });
        rep.check(got == rounds, || {
            format!("{name}: client{i} holds {got} of {rounds} latencies")
        });
        rep.verified += got.min(rounds);
    }
    record_latencies(&mut rep, lat);
    record_traffic(&mut rep, fabric.borrow().stats());
    rep
}
