//! Criterion microbenchmarks of the real (wall-clock) data structures the
//! OS layer runs on: capability spaces, revocation trees, the wire codec
//! and the event queue. These complement the virtual-time reproduction
//! benches — the paper's Controllers spend their cycles in exactly these
//! structures (§7 notes capability/object lookups as an sNIC hotspot).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fractos_cap::{CapRef, CapSpace, ControllerAddr, Epoch, ObjectId, ObjectTable, ProcessToken};
use fractos_core::types::Syscall;
use fractos_core::wire::Wire;
use fractos_sim::{Actor, Ctx, Msg, Runtime, RuntimeExt, Sim, SimDuration};

fn capref(n: u64) -> CapRef {
    CapRef {
        ctrl: ControllerAddr(0),
        epoch: Epoch(0),
        object: ObjectId(n),
    }
}

fn bench_capspace(c: &mut Criterion) {
    c.bench_function("capspace_insert_get_remove", |b| {
        b.iter_batched(
            CapSpace::new,
            |mut space| {
                for i in 0..64 {
                    let cid = space.insert(capref(i)).unwrap();
                    black_box(space.get(cid).unwrap());
                    if i % 2 == 0 {
                        space.remove(cid).unwrap();
                    }
                }
                space
            },
            BatchSize::SmallInput,
        );
    });
}

/// Revocation scrub of a space holding `live` capabilities: free the holder
/// of each of 64 revoked refs, then re-mint it so the space stays at size.
/// `capspace_scrub_*` finds holders through the reverse index and should
/// stay flat from 1k to 100k slots; `capspace_scan_*` finds them by
/// scanning every live slot, as the Controller's owner-failure path does.
fn bench_capspace_scrub(c: &mut Criterion) {
    for (label, live) in [("1k", 1_000u64), ("100k", 100_000)] {
        let mut space = CapSpace::new();
        for i in 0..live {
            space.insert(capref(i)).unwrap();
        }
        let victims: Vec<CapRef> = (0..64).map(|i| capref(i * (live / 64))).collect();
        c.bench_function(&format!("capspace_scrub_64_refs_{label}_live"), |b| {
            b.iter(|| {
                for &r in &victims {
                    black_box(space.remove_ref(r));
                    space.insert(r).unwrap();
                }
            });
        });
        c.bench_function(&format!("capspace_scan_64_refs_{label}_live"), |b| {
            b.iter(|| {
                for &r in &victims {
                    black_box(space.remove_where(|cap| *cap == r));
                    space.insert(r).unwrap();
                }
            });
        });
    }
}

fn bench_revtree(c: &mut Criterion) {
    c.bench_function("revtree_build_and_cascade_64", |b| {
        b.iter_batched(
            || {
                let mut table: ObjectTable<u64> = ObjectTable::new(ControllerAddr(0));
                let root = table.create(ProcessToken(0), 0);
                for i in 0..64 {
                    table
                        .create_revtree_node(root.object, ProcessToken(i))
                        .unwrap();
                }
                (table, root)
            },
            |(mut table, root)| {
                let outcome = table.revoke(root.object).unwrap();
                black_box(outcome.nodes_visited())
            },
            BatchSize::SmallInput,
        );
    });

    c.bench_function("delegate_monitored_64", |b| {
        b.iter_batched(
            || {
                let mut table: ObjectTable<u64> = ObjectTable::new(ControllerAddr(0));
                let cap = table.create(ProcessToken(0), 0);
                table
                    .monitor_delegate(
                        cap.object,
                        fractos_cap::Watcher {
                            process: ProcessToken(0),
                            callback_id: 0,
                        },
                    )
                    .unwrap();
                (table, cap)
            },
            |(mut table, cap)| {
                for i in 0..64 {
                    black_box(table.delegate(cap.object, ProcessToken(i + 1)).unwrap());
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_wire(c: &mut Criterion) {
    let sc = Syscall::RequestCreate {
        base: Some(fractos_cap::Cid(3)),
        tag: 7,
        imms: vec![vec![0xAB; 256].into(), vec![1, 2, 3].into()],
        caps: vec![fractos_cap::Cid(1), fractos_cap::Cid(2)],
    };
    c.bench_function("wire_encode_request_create", |b| {
        b.iter(|| black_box(sc.to_bytes()));
    });
    let bytes = sc.to_bytes();
    c.bench_function("wire_decode_request_create", |b| {
        b.iter(|| black_box(Syscall::from_bytes(&bytes).unwrap()));
    });
}

struct Sink(u64);
impl Actor for Sink {
    fn handle(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {
        self.0 += 1;
    }
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim_dispatch_10k_events", |b| {
        b.iter_batched(
            || {
                let mut sim = Sim::new(0);
                let a = sim.add_actor("sink", Box::new(Sink(0)));
                for i in 0..10_000u64 {
                    sim.post(SimDuration::from_nanos(i % 977), a, ());
                }
                sim
            },
            |mut sim| {
                sim.run();
                black_box(sim.steps())
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_capspace,
    bench_capspace_scrub,
    bench_revtree,
    bench_wire,
    bench_event_queue
);
criterion_main!(benches);
