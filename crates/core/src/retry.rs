//! Reliable transmit, retransmission policy and duplicate suppression for
//! control messages.
//!
//! The fabric's fault plan can drop control-plane messages
//! ([`fractos_net::Fabric::try_send`]). Every control channel therefore
//! carries wire-level sequence numbers (modeled inside the already-charged
//! 64-byte wire header, like a RoCE BTH PSN, so traffic accounting is
//! unchanged), and senders retransmit lost messages with exponential
//! backoff under a bounded retry budget. Receivers suppress duplicates with
//! a per-channel [`DedupFilter`], which keeps retransmitted Controller
//! operations idempotent.
//!
//! All three reliable channels — Process→Controller syscalls,
//! Controller→Process replies/deliveries and Controller→Controller peer
//! ops — send through the one `transmit`: a single fabric attempt with
//! its hop spans, the presumed-lost duplicate, and the drop/backoff
//! decision. Each sender keeps only its own envelope, retransmit message
//! and exhaustion verdict.
//!
//! Exhausting the retry budget (`Sent::Exhausted`) is translated into the
//! existing §3.6 failure verdicts by the caller (`ControllerUnreachable` for
//! a syscall or for operations pending on a peer, channel-severed
//! translation for a Process) — it never *declares* a peer dead; only the
//! external watchdog does that.
//!
//! Timeouts and budgets (initial RTO, attempt caps, last-resort ack and
//! syscall timeouts) live in the typed [`fractos_net::RetryPolicy`] carried
//! on the fabric's `NetParams`, so every sender reads one consistent,
//! tweakable policy instead of scattered constants.
//!
//! Sequence assignment and duplicate filtering are always on (they are
//! cheap and memory-bounded); retransmit and timeout timers are armed only
//! while a fault plan is active, so fault-free runs schedule no extra
//! events and stay bit-identical to a build without this layer.

use std::collections::BTreeSet;

use fractos_net::{Endpoint, Fabric, RetryPolicy, TrafficClass};
use fractos_sim::{Ctx, Shared, SimDuration, SimTime, SpanKind, TraceCtx};

/// One transmit attempt on a reliable control channel.
pub(crate) struct Hop {
    /// Sending endpoint.
    pub src: Endpoint,
    /// Receiving endpoint.
    pub dst: Endpoint,
    /// Wire size of the message in bytes.
    pub size: u64,
    /// Traffic class the fabric accounts the message under.
    pub class: TrafficClass,
    /// Label of the hop spans (`"proc->ctrl"`, `"ctrl->proc"`, …).
    pub label: &'static str,
    /// Start of the serialization span. Earlier than `depart` when the
    /// sender's CPU serialization cost is folded into the hop.
    pub ser_start: SimTime,
    /// Instant the message leaves the sender (`ctx.now()` or later).
    pub depart: SimTime,
    /// Trace context the hop spans hang under (`NONE` outside traces).
    pub base: TraceCtx,
    /// Transmit attempt, 0 for the original send.
    pub attempt: u32,
}

/// What the caller must do after [`transmit`]. Every delay counts from
/// `ctx.now()`.
pub(crate) enum Sent {
    /// Deliver the envelope `after`, carrying `tctx`. If `dup` is set, a
    /// presumed-lost duplicate arrives `dup` from now: send it first.
    Delivered {
        after: SimDuration,
        dup: Option<SimDuration>,
        tctx: TraceCtx,
    },
    /// The fabric dropped the message: schedule attempt `attempt + 1`
    /// `after` (the departure offset plus this attempt's RTO).
    Retry { after: SimDuration },
    /// The fabric dropped the last attempt the budget allows: apply the
    /// channel's §3.6 verdict.
    Exhausted,
}

/// Sends one attempt of a control message through the fabric.
///
/// On delivery, records the FabricSer and FabricProp hop spans, and — on
/// the first attempt under an armed fault plan — re-sends a copy once when
/// delivery is slower than `rto(0)`: the message is presumed lost and the
/// receiver's [`DedupFilter`] absorbs whichever copy arrives second. The
/// duplicate rides the same trace context and records no spans. On a drop,
/// records the Fault `"drop"` and Retransmit spans unless the budget is
/// spent. RNG draws: the primary send, then the duplicate.
// analyze: hot-path
pub(crate) fn transmit(fabric: &Shared<Fabric>, ctx: &mut Ctx<'_>, hop: Hop) -> Sent {
    let lead = hop.depart.duration_since(ctx.now());
    let (faults, retry) = {
        let fabric = fabric.borrow();
        (fabric.has_faults(), fabric.params().retry)
    };
    let outcome = fabric.borrow_mut().try_send_parts(
        hop.depart,
        ctx.rng(),
        hop.src,
        hop.dst,
        hop.size,
        hop.class,
    );
    match outcome {
        Some((delay, prop)) => {
            // Two hop spans split the fabric delay: serialization (link
            // occupancy + queueing) then propagation. The envelope carries
            // the propagation span so the receiver parents its own work
            // under the arriving hop.
            let tctx = if hop.base.is_some() {
                let ser_end = hop.depart + delay.saturating_sub(prop);
                let ser = ctx.span(
                    SpanKind::FabricSer,
                    hop.label,
                    hop.base,
                    hop.ser_start,
                    ser_end,
                );
                ctx.span(
                    SpanKind::FabricProp,
                    hop.label,
                    ser,
                    ser_end,
                    hop.depart + delay,
                )
            } else {
                TraceCtx::NONE
            };
            let dup = if hop.attempt == 0 && delay > retry.rto(0) && faults {
                fabric
                    .borrow_mut()
                    .try_send_parts(hop.depart, ctx.rng(), hop.src, hop.dst, hop.size, hop.class)
                    .map(|(d2, _)| lead + d2)
            } else {
                None
            };
            Sent::Delivered {
                after: lead + delay,
                dup,
                tctx,
            }
        }
        None if hop.attempt + 1 < retry.max_attempts => {
            let rto = retry.rto(hop.attempt);
            if hop.base.is_some() {
                ctx.span(SpanKind::Fault, "drop", hop.base, hop.depart, hop.depart);
                ctx.span(
                    SpanKind::Retransmit,
                    hop.label,
                    hop.base,
                    hop.depart,
                    hop.depart + rto,
                );
            }
            Sent::Retry { after: lead + rto }
        }
        None => Sent::Exhausted,
    }
}

/// The last-resort timeout `pick` selects from the fabric's retry policy,
/// or `None` when no fault plan is armed (fault-free runs arm no timers).
pub(crate) fn last_resort(
    fabric: &Shared<Fabric>,
    pick: impl FnOnce(&RetryPolicy) -> SimDuration,
) -> Option<SimDuration> {
    let fabric = fabric.borrow();
    fabric.has_faults().then(|| pick(&fabric.params().retry))
}

/// Monotonic per-channel sequence assigner.
#[derive(Debug, Default, Clone)]
pub struct SeqGen(u64);

impl SeqGen {
    /// A generator starting at sequence 0.
    pub fn new() -> Self {
        SeqGen(0)
    }

    /// Returns the next sequence number.
    pub fn next_seq(&mut self) -> u64 {
        let s = self.0;
        self.0 += 1;
        s
    }
}

/// Sliding-window duplicate filter over per-channel sequence numbers.
///
/// Tracks a contiguous frontier (`everything below `next` was delivered`)
/// plus the out-of-order set above it, so memory is bounded by the
/// reordering window plus the (finite) number of sequences whose every
/// transmit was lost.
#[derive(Debug, Default, Clone)]
pub struct DedupFilter {
    next: u64,
    pending: BTreeSet<u64>,
}

impl DedupFilter {
    /// An empty filter (no sequence seen yet).
    pub fn new() -> Self {
        DedupFilter::default()
    }

    /// Records a delivery. Returns `true` the first time `seq` is seen and
    /// `false` for duplicates.
    pub fn fresh(&mut self, seq: u64) -> bool {
        if seq < self.next {
            return false;
        }
        if !self.pending.insert(seq) {
            return false;
        }
        while self.pending.remove(&self.next) {
            self.next += 1;
        }
        true
    }

    /// Number of sequences seen above the contiguous frontier (tests).
    pub fn out_of_order(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_gen_is_monotonic() {
        let mut g = SeqGen::new();
        assert_eq!(g.next_seq(), 0);
        assert_eq!(g.next_seq(), 1);
        assert_eq!(g.next_seq(), 2);
    }

    #[test]
    fn dedup_accepts_in_order_with_no_memory_growth() {
        let mut f = DedupFilter::new();
        for s in 0..1000 {
            assert!(f.fresh(s));
        }
        assert_eq!(f.out_of_order(), 0);
    }

    #[test]
    fn dedup_rejects_duplicates_before_and_after_frontier() {
        let mut f = DedupFilter::new();
        assert!(f.fresh(0));
        assert!(f.fresh(1));
        assert!(!f.fresh(0), "below the frontier");
        assert!(f.fresh(5));
        assert!(!f.fresh(5), "above the frontier");
        assert_eq!(f.out_of_order(), 1);
    }

    #[test]
    fn dedup_handles_reordering_then_compacts() {
        let mut f = DedupFilter::new();
        assert!(f.fresh(2));
        assert!(f.fresh(1));
        assert_eq!(f.out_of_order(), 2);
        assert!(f.fresh(0));
        // Frontier advanced through the gap: set drained.
        assert_eq!(f.out_of_order(), 0);
        assert!(!f.fresh(2));
    }
}
