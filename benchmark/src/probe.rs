//! The protocol-seam probe: a wrapper around any dissemination stack that
//! meters it from outside, at the sans-IO `Protocol` trait both the
//! simulator and the live reactor call.
//!
//! `Probe<P>` delegates *every* trait method to the inner `P` and keeps
//! `Message = P::Message`, so it runs unchanged under `Runner`,
//! `ShardedNetwork` and `Cluster`, and the run's fingerprint is the
//! unwrapped run's.
//!
//! * Untraced, it records two marks per repetition — the first
//!   `publish_message` (end of set-up) and the first `report` /
//!   `scale_report` (start of collect) — and, per handler call, tests one
//!   `bool`.
//! * Traced, it counts every handler call by [`Class`] and times 1 call in
//!   [`SAMPLE_EVERY`] with `Instant`.
//! * In a simulator repetition, traced or not, it also counts the message
//!   and timer calls and runs one slice of the speed reference every
//!   [`crate::reference::EVERY`] of them, outside any timed call (see that
//!   module).

use crate::procfs::Mark;
use crate::reference::{RefTime, Reference, EVERY};
use crate::stats::log2_hist_count_past;
use brisa::{BrisaMsg, BrisaNode, StackMsg, TIMER_KEEPALIVE, TIMER_REPAIR, TIMER_SHUFFLE};
use brisa_simnet::{Context, NodeId, Protocol, SimTime, TimerTag};
use brisa_workloads::{BuildCtx, DisseminationProtocol, NodeReport, ScaleNodeReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One handler call in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Most messages a tap keeps for the wire-codec timing.
const MSG_SAMPLE_CAP: usize = 8192;

/// What a handler call was for: the layer it enters and the kind of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Start,
    HpvMsg,
    BrisaData,
    BrisaControl,
    ShuffleTick,
    KeepaliveTick,
    RepairTick,
    OtherTimer,
    LinkDown,
    Publish,
}

impl Class {
    pub const ALL: [Class; 10] = [
        Class::Start,
        Class::HpvMsg,
        Class::BrisaData,
        Class::BrisaControl,
        Class::ShuffleTick,
        Class::KeepaliveTick,
        Class::RepairTick,
        Class::OtherTimer,
        Class::LinkDown,
        Class::Publish,
    ];

    /// The span name: layer first, so a prefix selects a layer. `on_start`
    /// and `on_link_down` belong to membership (join, view repair); the
    /// BRISA work a membership event triggers inside the stack (neighbour
    /// up/down) cannot be split off from outside and stays with it.
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Start => "membership.hyparview.start",
            Class::HpvMsg => "membership.hyparview.msg",
            Class::ShuffleTick => "membership.hyparview.shuffle_tick",
            Class::KeepaliveTick => "membership.hyparview.keepalive_tick",
            Class::LinkDown => "membership.hyparview.link_down",
            Class::BrisaData => "brisa.core.data",
            Class::BrisaControl => "brisa.core.control",
            Class::RepairTick => "brisa.core.repair_tick",
            Class::Publish => "brisa.core.publish",
            Class::OtherTimer => "stack.other_timer",
        }
    }
}

/// How a stack's messages and timers map onto [`Class`]es.
pub trait Layered: Protocol {
    fn msg_class(msg: &Self::Message) -> Class;
    fn timer_class(tag: TimerTag) -> Class;
}

impl Layered for BrisaNode {
    fn msg_class(msg: &StackMsg) -> Class {
        match msg {
            StackMsg::Hpv(_) => Class::HpvMsg,
            StackMsg::Brisa(BrisaMsg::Data(_)) => Class::BrisaData,
            StackMsg::Brisa(_) => Class::BrisaControl,
        }
    }

    fn timer_class(tag: TimerTag) -> Class {
        match tag.kind {
            TIMER_SHUFFLE => Class::ShuffleTick,
            TIMER_KEEPALIVE => Class::KeepaliveTick,
            TIMER_REPAIR => Class::RepairTick,
            _ => Class::OtherTimer,
        }
    }
}

/// One timed handler call.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub class: Class,
    pub start: Instant,
    pub end: Instant,
}

/// Handler calls counted so far, indexed like [`Class::ALL`].
pub type Calls = [u64; Class::ALL.len()];

/// What every probe of one repetition (or launch) records into.
pub struct Tap<M> {
    traced: bool,
    keep_msgs: bool,
    /// A delivery later than this (µs) is a failed operation; see
    /// [`Tap::late`].
    limit_us: u64,
    late: AtomicU64,
    first_publish: OnceLock<Mark>,
    first_collect: OnceLock<Mark>,
    calls: [AtomicU64; Class::ALL.len()],
    spans: Mutex<Vec<RawSpan>>,
    msgs: Mutex<Vec<M>>,
    /// The speed reference of a simulator repetition.
    reference: Option<Mutex<Reference>>,
    ticks: AtomicU64,
    /// Slices run and the time they took, before and from the first publish.
    ref_slices: [AtomicU64; 2],
    ref_ns: [AtomicU64; 2],
}

impl<M> Tap<M> {
    /// `keep_msgs` additionally clones sampled inbound messages (traced
    /// only), for timing the wire codec on real traffic afterwards.
    /// `limit_us` is the latency limit late deliveries are counted against
    /// at collect. `reference` runs the speed reference between the handler
    /// calls.
    pub fn new(traced: bool, keep_msgs: bool, limit_us: u64, reference: bool) -> Arc<Self> {
        Arc::new(Tap {
            traced,
            keep_msgs: traced && keep_msgs,
            limit_us,
            late: AtomicU64::new(0),
            first_publish: OnceLock::new(),
            first_collect: OnceLock::new(),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
            msgs: Mutex::new(Vec::new()),
            reference: reference.then(Mutex::default),
            ticks: AtomicU64::new(0),
            ref_slices: Default::default(),
            ref_ns: Default::default(),
        })
    }

    /// Reference time spent so far: `[set-up, measured phase]`.
    pub fn reference_time(&self) -> [RefTime; 2] {
        std::array::from_fn(|phase| RefTime {
            slices: self.ref_slices[phase].load(Ordering::Relaxed),
            ns: self.ref_ns[phase].load(Ordering::Relaxed),
        })
    }

    /// Counts one message or timer call; every [`EVERY`]th runs a slice of
    /// the reference and books it to the phase the repetition is in.
    #[inline]
    fn tick(&self) {
        // A load and a store, not `fetch_add`: the sequential simulator
        // calls every handler from one thread, and a locked instruction per
        // call would cost more than the slices do. Relaxed: a statistic.
        let n = self.ticks.load(Ordering::Relaxed) + 1;
        self.ticks.store(n, Ordering::Relaxed);
        if n.is_multiple_of(EVERY) {
            self.run_slice();
        }
    }

    #[cold]
    fn run_slice(&self) {
        let Some(reference) = &self.reference else {
            return;
        };
        let ns = reference
            .lock()
            .expect("no probe panicked holding the lock")
            .slice();
        let phase = self.first_publish.get().is_some() as usize;
        self.ref_slices[phase].fetch_add(1, Ordering::Relaxed);
        self.ref_ns[phase].fetch_add(ns, Ordering::Relaxed);
    }

    /// When the first message was published: the end of set-up.
    pub fn first_publish(&self) -> Option<Mark> {
        self.first_publish.get().copied()
    }

    /// When the first node was asked for its report: the start of collect.
    pub fn first_collect(&self) -> Option<Mark> {
        self.first_collect.get().copied()
    }

    /// Deliveries past the limit at the *eligible* nodes (bootstrapped,
    /// not the source, alive at collect), folded from each node's compact
    /// report as the engine collects it. The engine's own streaming summary
    /// merges every live node's histogram, mid-run joiners included, whose
    /// catch-up deliveries are not operations anyone attempted.
    pub fn late(&self) -> u64 {
        self.late.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> Calls {
        std::array::from_fn(|i| self.calls[i].load(Ordering::Relaxed))
    }

    pub fn take_spans(&self) -> Vec<RawSpan> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no probe panicked holding the lock"),
        )
    }

    pub fn take_msgs(&self) -> Vec<M> {
        std::mem::take(
            &mut *self
                .msgs
                .lock()
                .expect("no probe panicked holding the lock"),
        )
    }

    /// Counts one call of `class`; `Some(start)` when this one is timed.
    fn enter(&self, class: Class) -> Option<Instant> {
        // Relaxed: a statistic, it publishes no other data.
        let n = self.calls[class as usize].fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(SAMPLE_EVERY).then(Instant::now)
    }

    fn exit(&self, class: Class, start: Option<Instant>) {
        if let Some(start) = start {
            let end = Instant::now();
            self.spans
                .lock()
                .expect("no probe panicked holding the lock")
                .push(RawSpan { class, start, end });
        }
    }
}

/// Run-wide configuration of a probed stack: the inner stack's own, plus
/// the tap its nodes record into.
pub struct ProbeConfig<P: DisseminationProtocol> {
    pub inner: P::Config,
    pub tap: Arc<Tap<P::Message>>,
}

impl<P: DisseminationProtocol> Clone for ProbeConfig<P> {
    fn clone(&self) -> Self {
        ProbeConfig {
            inner: self.inner.clone(),
            tap: Arc::clone(&self.tap),
        }
    }
}

/// The wrapper. See the module documentation.
pub struct Probe<P: DisseminationProtocol> {
    inner: P,
    tap: Arc<Tap<P::Message>>,
    traced: bool,
    reference: bool,
    eligible: bool,
}

impl<P: DisseminationProtocol + Layered> Protocol for Probe<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        if !self.traced {
            return self.inner.on_start(ctx);
        }
        let t = self.tap.enter(Class::Start);
        self.inner.on_start(ctx);
        self.tap.exit(Class::Start, t);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        from: NodeId,
        msg: Self::Message,
    ) {
        if self.reference {
            self.tap.tick();
        }
        if !self.traced {
            return self.inner.on_message(ctx, from, msg);
        }
        let class = P::msg_class(&msg);
        let t = self.tap.enter(class);
        if t.is_some() && self.tap.keep_msgs {
            let mut kept = self
                .tap
                .msgs
                .lock()
                .expect("no probe panicked holding the lock");
            if kept.len() < MSG_SAMPLE_CAP {
                kept.push(msg.clone());
            }
        }
        // The clone above is outside the timed interval.
        let t = t.map(|_| Instant::now());
        self.inner.on_message(ctx, from, msg);
        self.tap.exit(class, t);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Message>, tag: TimerTag) {
        if self.reference {
            self.tap.tick();
        }
        if !self.traced {
            return self.inner.on_timer(ctx, tag);
        }
        let class = P::timer_class(tag);
        let t = self.tap.enter(class);
        self.inner.on_timer(ctx, tag);
        self.tap.exit(class, t);
    }

    fn on_link_down(&mut self, ctx: &mut Context<'_, Self::Message>, peer: NodeId) {
        if !self.traced {
            return self.inner.on_link_down(ctx, peer);
        }
        let t = self.tap.enter(Class::LinkDown);
        self.inner.on_link_down(ctx, peer);
        self.tap.exit(Class::LinkDown, t);
    }

    fn approx_state_bytes(&self) -> usize {
        self.inner.approx_state_bytes()
    }
}

impl<P> DisseminationProtocol for Probe<P>
where
    P: DisseminationProtocol + Layered,
    P::Message: Send,
{
    type Config = ProbeConfig<P>;

    fn protocol_name() -> &'static str {
        P::protocol_name()
    }

    fn build(cfg: &Self::Config, id: NodeId, bctx: &BuildCtx) -> Self {
        Probe {
            inner: P::build(&cfg.inner, id, bctx),
            tap: Arc::clone(&cfg.tap),
            traced: cfg.tap.traced,
            reference: cfg.tap.reference.is_some(),
            eligible: !bctx.is_source && bctx.index < bctx.population,
        }
    }

    fn publish_message(&mut self, ctx: &mut Context<'_, Self::Message>, payload_bytes: usize) {
        self.tap.first_publish.get_or_init(Mark::now);
        if !self.traced {
            return self.inner.publish_message(ctx, payload_bytes);
        }
        let t = self.tap.enter(Class::Publish);
        self.inner.publish_message(ctx, payload_bytes);
        self.tap.exit(Class::Publish, t);
    }

    fn report(&self) -> NodeReport {
        self.tap.first_collect.get_or_init(Mark::now);
        self.inner.report()
    }

    fn scale_report(&self, publish_times: &[SimTime]) -> ScaleNodeReport {
        self.tap.first_collect.get_or_init(Mark::now);
        let report = self.inner.scale_report(publish_times);
        if self.eligible {
            let late = log2_hist_count_past(report.latency.buckets(), self.tap.limit_us);
            self.tap.late.fetch_add(late, Ordering::Relaxed);
        }
        report
    }
}

/// What one back-to-back `Instant::now()` pair reads on this machine, in
/// nanoseconds: subtracted from every sampled handler duration, which would
/// otherwise be inflated by the clock read itself.
pub fn timer_overhead_ns() -> u64 {
    let mut deltas: Vec<u64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as u64
        })
        .collect();
    deltas.sort_unstable();
    deltas[deltas.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisa_membership::HpvMsg;

    #[test]
    fn brisa_stack_messages_and_timers_are_classed_by_layer() {
        assert_eq!(
            BrisaNode::msg_class(&StackMsg::Brisa(BrisaMsg::Activate)),
            Class::BrisaControl
        );
        assert_eq!(
            BrisaNode::msg_class(&StackMsg::Hpv(HpvMsg::Join)),
            Class::HpvMsg
        );
        assert_eq!(
            BrisaNode::timer_class(TimerTag::of_kind(TIMER_REPAIR)),
            Class::RepairTick
        );
        assert_eq!(
            BrisaNode::timer_class(TimerTag::of_kind(TIMER_SHUFFLE)),
            Class::ShuffleTick
        );
        assert_eq!(
            BrisaNode::timer_class(TimerTag::of_kind(999)),
            Class::OtherTimer
        );
        for (i, c) in Class::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "Class::ALL is in discriminant order");
        }
        assert!(Class::KeepaliveTick
            .span_name()
            .starts_with("membership.hyparview."));
        assert!(Class::RepairTick.span_name().starts_with("brisa.core."));
    }

    #[test]
    fn tap_counts_every_call_and_times_one_in_sixteen() {
        let tap: Arc<Tap<()>> = Tap::new(true, false, u64::MAX, false);
        for _ in 0..40 {
            let t = tap.enter(Class::BrisaData);
            tap.exit(Class::BrisaData, t);
        }
        assert_eq!(tap.calls()[Class::BrisaData as usize], 40);
        let spans = tap.take_spans();
        assert_eq!(spans.len(), 3, "calls 0, 16 and 32");
        assert!(spans
            .iter()
            .all(|s| s.class == Class::BrisaData && s.end >= s.start));
        assert!(tap.take_spans().is_empty());
        assert!(timer_overhead_ns() < 1_000_000);
    }

    #[test]
    fn every_4096th_call_runs_a_reference_slice_booked_to_its_phase() {
        let tap: Arc<Tap<()>> = Tap::new(false, false, u64::MAX, true);
        for _ in 0..EVERY + 1 {
            tap.tick();
        }
        tap.first_publish.get_or_init(Mark::now);
        for _ in 0..2 * EVERY {
            tap.tick();
        }
        let [setup, measured] = tap.reference_time();
        assert_eq!((setup.slices, measured.slices), (1, 2));
        assert!(setup.ns > 0 && measured.ns > 0);
        // A tap that was not asked to runs none.
        let tap = Tap::<()>::new(false, false, u64::MAX, false);
        (0..EVERY).for_each(|_| tap.tick());
        assert_eq!(tap.reference_time(), [RefTime::default(); 2]);
    }
}
