//! BRISA's repair (Section II-F), one function per rule, in the paper's
//! order: a parent is lost ([`BrisaCore::lose_parent`], whatever ended it,
//! silence included: [`BrisaCore::drop_silent_parent`]);
//! an orphan repairs, softly through a non-child neighbour or hard by
//! flooding ([`BrisaCore::repair`], [`BrisaCore::hard_repair`]); the tick
//! escalates and retries ([`BrisaCore::supervise_repair`]); a neighbour
//! with an upstream answers the orphan's `Activate`
//! ([`BrisaCore::answer_activate`]); an adoption ends the repair
//! ([`BrisaCore::finish_repair`]). [`BrisaCore::reparent`] is the one
//! switch from the current parents to a closer sender.

use super::recovery::EDGE_QUIET_AFTER;
use super::BrisaCore;
use crate::cycle::CycleGuard;
use crate::message::{BrisaMsg, BrisaSink};
use brisa_simnet::{NodeId, SimDuration, SimTime};
use brisa_telemetry::EventKind as TelEventKind;

/// How long a node waits for a soft repair to produce a parent before
/// escalating to the hard (flooding) repair.
pub const SOFT_REPAIR_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Minimum interval between successive hard-repair re-attempts while a node
/// remains orphaned.
pub const HARD_REPAIR_RETRY: SimDuration = SimDuration::from_secs(2);

/// A parent is silent, and lost, once neither data from it nor any `Edge`
/// has come for `EDGE_QUIET_AFTER + PARENT_SILENT_TICKS ×
/// repair_tick_period` (3 s at the default 500 ms tick). With
/// `Q = EDGE_QUIET_AFTER` and `P` the tick period: a healthy parent whose
/// data went quiet at `t` sends its first `Edge` on its first tick at or
/// after `t + Q`, so before `t + Q + P`, and another every `P` after that.
/// If two in a row are lost, the third still leaves before `t + Q + 3P`.
/// The child's last reception from that parent is its last relayed data,
/// at `t` or later, so a limit of `Q + 4P` leaves the third `Edge` a whole
/// tick for the link's latency: a healthy parent that loses two `Edge`s in
/// a row is never dropped.
pub const PARENT_SILENT_TICKS: u64 = 4;

/// Classification of an ongoing parent-recovery procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// A replacement parent candidate existed in the active view; only its
    /// inbound link had to be re-activated.
    Soft,
    /// No replacement existed: the node re-bootstrapped by flooding,
    /// forgetting its position and propagating a re-activation order down
    /// its sub-tree.
    Hard,
}

/// What ended a parenthood: the entries into [`BrisaCore::lose_parent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Loss {
    /// The membership layer reported the parent down.
    LinkDown,
    /// The parent sent a symmetric `Deactivate`: it stopped relaying to us.
    Deactivated,
    /// Data from the parent failed the cycle rule (a path through this
    /// node, or a depth label no longer shallower than its own); the
    /// caller has already deactivated the link.
    Cycle,
    /// Neither data from the parent nor any `Edge` came for the
    /// silence limit ([`PARENT_SILENT_TICKS`]).
    Silent,
    /// The parent, hard-repairing, sent a re-activation order: behave like
    /// the orphan that sent it (the cascade).
    Order,
}

impl BrisaCore {
    /// Parent lost: `parent` leaves the parent set, the loss is counted in
    /// `parents_lost`, and a node now without a parent is counted in
    /// `orphaned` and starts a [repair](Self::repair).
    ///
    /// Two entries differ, on purpose:
    /// - a [`Loss::Cycle`] is not counted in `parents_lost`: the parent is
    ///   alive, the structure was wrong;
    /// - a [`Loss::Order`] is an instruction, not a failure. It is counted
    ///   nowhere, and it repairs even when DAG parents remain. The sender
    ///   is never an alternative, and a cascade forwards the order to the
    ///   children as they were when it arrived: without a sender that was
    ///   our parent, but with one that was our child (the two relayed to
    ///   each other), which gets the order back.
    ///
    /// The source has no parent to lose and ignores orders.
    pub(super) fn lose_parent(
        &mut self,
        now: SimTime,
        parent: NodeId,
        loss: Loss,
        out: &mut impl BrisaSink,
    ) {
        if self.is_source {
            return;
        }
        let was_parent = self.links.drop_parent(parent);
        match loss {
            Loss::Order => {
                let spare = was_parent.then_some(parent);
                return self.repair(now, Some(parent), spare, out);
            }
            Loss::Cycle => {}
            Loss::LinkDown | Loss::Deactivated | Loss::Silent => self.stats.parents_lost.push(now),
        }
        if self.links.parent_count() == 0 {
            self.stats.orphaned.push(now);
            self.with_tel(|t| t.orphans.inc());
            self.tel_event(now, TelEventKind::Orphan, parent.0 as u64, 0);
            self.repair(now, None, None, out);
        }
    }

    /// A silent parent is a lost parent: once neither data from the parent
    /// nor any `Edge` (only a node that relays to this one sends it) has
    /// come for the silence limit ([`PARENT_SILENT_TICKS`]), the parent is
    /// dropped as [`Loss::Silent`] and the soft repair takes over — a
    /// neighbour's answer to `Activate`, adoption, then `Retransmit` from
    /// the ledger's cursor. This is how a node recovers whose parent no
    /// longer counts it as a child: it hears neither the stream nor its
    /// edge again (the deaf tail). Only a node the soft repair can serve —
    /// one with a neighbour it does not relay to — drops its parent; any
    /// other would hard-repair, flooding and ordering its whole sub-tree,
    /// on silence alone. A node with a parent has seen the stream and has
    /// no repair pending.
    pub(super) fn drop_silent_parent(&mut self, now: SimTime, out: &mut impl BrisaSink) {
        let Some(parent) = self.links.parents().next() else {
            return;
        };
        let limit = EDGE_QUIET_AFTER + self.cfg.repair_tick_period * PARENT_SILENT_TICKS;
        let silent = self
            .last_parent_delivery
            .is_some_and(|t| now.saturating_since(t) >= limit);
        let soft = || {
            self.links
                .neighbors()
                .any(|n| !self.links.is_outbound_active(n))
        };
        if silent && soft() {
            self.lose_parent(now, parent, Loss::Silent, out);
        }
    }

    /// Starts the repair: soft if any neighbour that is not a child (nor
    /// `except`) can take over — re-activate their inbound links and ask
    /// them to relay (`Activate`); hard otherwise, ordering every child but
    /// `spare`. An orphan records the repair as pending; one already
    /// pending keeps its kind and its start. A node that still has a parent
    /// (a DAG node obeying an order) records nothing.
    fn repair(
        &mut self,
        now: SimTime,
        except: Option<NodeId>,
        spare: Option<NodeId>,
        out: &mut impl BrisaSink,
    ) {
        let alternatives: Vec<NodeId> = self
            .links
            .neighbors()
            .filter(|&n| Some(n) != except && !self.links.is_child(n))
            .collect();
        let kind = if alternatives.is_empty() {
            RepairKind::Hard
        } else {
            RepairKind::Soft
        };
        if self.links.parent_count() == 0 {
            self.pending_repair.get_or_insert((now, kind));
        }
        for &n in &alternatives {
            self.links.reactivate_inbound(n);
            out.send(n, BrisaMsg::Activate);
        }
        if kind == RepairKind::Hard {
            self.hard_repair(now, spare, out);
        }
    }

    /// The hard repair: forget the position, re-activate every inbound
    /// link, activate every neighbour, and send a re-activation order to
    /// every child but `spare`, so the sub-tree re-bootstraps over
    /// flooding.
    fn hard_repair(&mut self, now: SimTime, spare: Option<NodeId>, out: &mut impl BrisaSink) {
        self.last_repair_attempt = Some(now);
        self.cycle.reset();
        self.links.reactivate_all_inbound();
        for n in self.links.neighbors() {
            out.send(n, BrisaMsg::Activate);
        }
        for c in self.links.children().filter(|&c| Some(c) != spare) {
            self.stats.reactivation_orders_sent += 1;
            out.send(c, BrisaMsg::ReactivationOrder);
        }
    }

    /// Repair supervision, on the repair tick. A soft repair with no parent
    /// after [`SOFT_REPAIR_TIMEOUT`] (every neighbour it activated may be a
    /// descendant) escalates to a hard one and keeps its start; a hard one
    /// is retried every [`HARD_REPAIR_RETRY`] while the node is orphaned.
    pub(super) fn supervise_repair(&mut self, now: SimTime, out: &mut impl BrisaSink) {
        let Some((started, kind)) = self.pending_repair else {
            return;
        };
        if self.links.parent_count() > 0 || self.is_source {
            self.pending_repair = None;
            return;
        }
        let due = match kind {
            RepairKind::Soft => now.saturating_since(started) >= SOFT_REPAIR_TIMEOUT,
            RepairKind::Hard => self
                .last_repair_attempt
                .is_some_and(|t| now.saturating_since(t) >= HARD_REPAIR_RETRY),
        };
        if due {
            self.pending_repair = Some((started, RepairKind::Hard));
            self.hard_repair(now, None, out);
        }
    }

    /// `from`, repairing, asked this node to relay to it (`Activate`): the
    /// outbound link is re-activated, and the answer is the most recent
    /// buffered message, so the orphan can adopt without waiting for the
    /// next injection. Two guards, each from a mass-crash wedge (DESIGN.md,
    /// "Scale mode", bugs 1 and 2):
    /// - only a node with an upstream answers: two orphans answering each
    ///   other would mutually adopt, a cycle no fresh data ever enters;
    /// - only a requester still in the membership view is answered: an
    ///   evicted one would adopt a parent that never relays to it.
    pub(super) fn answer_activate(&mut self, now: SimTime, from: NodeId, out: &mut impl BrisaSink) {
        self.links.reactivate_outbound(from);
        let has_upstream =
            self.is_source || (self.links.parent_count() > 0 && self.pending_repair.is_none());
        let latest = (has_upstream && self.links.is_neighbor(from))
            .then(|| self.buffer.highest_seq().and_then(|s| self.buffer.get(s)))
            .flatten();
        if let Some(m) = latest {
            let answer = self.data_msg(now, m.seq, m.payload_bytes);
            out.send(from, BrisaMsg::data(answer));
        }
    }

    /// Repair done: the orphan just adopted `parent`. The repair is counted
    /// by kind with its delay, and the new parent is asked for everything
    /// from the ledger's cursor on; the gap detector's rate limit counts
    /// that request, so it covers the adoption burst too.
    pub(super) fn finish_repair(&mut self, now: SimTime, parent: NodeId, out: &mut impl BrisaSink) {
        let Some((started, kind)) = self.pending_repair.take() else {
            return;
        };
        let delay = now.saturating_since(started).as_micros();
        self.with_tel(|t| {
            t.orphan_heals.inc();
            t.orphan_us.record(delay);
        });
        self.tel_event(now, TelEventKind::OrphanHealed, parent.0 as u64, delay);
        match kind {
            RepairKind::Soft => {
                self.stats.soft_repairs += 1;
                self.with_tel(|t| t.soft_repairs.inc());
                self.stats.soft_repair_delays_us.push(delay);
            }
            RepairKind::Hard => {
                self.stats.hard_repairs += 1;
                self.with_tel(|t| t.hard_repairs.inc());
                self.stats.hard_repair_delays_us.push(delay);
            }
        }
        self.request_all(now, parent, out);
    }

    /// Re-parent onto `from`, which sent `guard`: deactivate every current
    /// parent not in `keep`, adopt `from` and follow its position. Returns
    /// false, having done nothing, unless `from` sits strictly closer to
    /// the source than this node: two neighbours that prefer each other
    /// could otherwise re-parent onto one another concurrently, each
    /// passing the cycle check against the other's pre-switch metadata,
    /// and stitch a cycle that starves both sub-trees.
    pub(super) fn reparent(
        &mut self,
        now: SimTime,
        from: NodeId,
        guard: &CycleGuard,
        keep: &[NodeId],
        out: &mut impl BrisaSink,
    ) -> bool {
        if self
            .cycle
            .position()
            .is_some_and(|pos| guard.sender_depth() >= pos)
        {
            return false;
        }
        let losers: Vec<NodeId> = self.links.parents().filter(|p| !keep.contains(p)).collect();
        for loser in losers {
            self.deactivate(now, loser, false, out);
        }
        self.adopt(now, from, guard, out);
        true
    }
}
