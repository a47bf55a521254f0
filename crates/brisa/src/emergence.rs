//! The structure's emergence (Sections II-C and II-E): the first stream
//! message floods the overlay, every later one is relayed on the links
//! still active, and a node that hears a message twice deactivates the
//! surplus inbound link, so a tree or a DAG emerges from the flood.

use super::repair::Loss;
use super::BrisaCore;
use crate::config::ParentStrategy;
use crate::message::{BrisaMsg, BrisaSink, DataMsg};
use crate::parent::NeighborTelemetry;
use brisa_simnet::{NodeId, SimDuration, SimTime};
use brisa_telemetry::EventKind as TelEventKind;
use std::sync::Arc;

/// A parenthood is *stale* when neither stream data from a parent nor any
/// `Edge` has arrived for this long (ten intervals at the paper's 5 msg/s).
/// A first reception from a non-parent then is recovery evidence, not a
/// surplus link — see the fresh-feeder path in `handle_data`.
pub const PARENT_STALE_AFTER: SimDuration = SimDuration::from_secs(2);

impl BrisaCore {
    /// Stream data from `from`: taken into the ledger (`take_in`), its
    /// sender observed as a parent candidate, the parent machinery run,
    /// and, on its first reception, the payload relayed once.
    pub(super) fn handle_data(
        &mut self,
        now: SimTime,
        from: NodeId,
        data: Arc<DataMsg>,
        telemetry: &dyn NeighborTelemetry,
        out: &mut impl BrisaSink,
    ) {
        let Some(first) = self.take_in(now, from, &data, out) else {
            return;
        };
        // The sender is (re)observed as a parent candidate. Only the
        // delay-aware strategy ever ranks by RTT, so only it pays for the
        // membership layer's lookup.
        let rtt = match self.cfg.strategy {
            ParentStrategy::DelayAware => telemetry.rtt(from),
            _ => None,
        };
        self.candidates
            .observe(from, now, rtt, data.sender_uptime_secs, data.sender_load);
        if self.is_source {
            // The source never needs inbound stream traffic.
            self.deactivate(now, from, false, out);
            return;
        }
        let adoptable = self.can_adopt(from, &data.guard);
        if self.links.is_parent(from) {
            self.last_parent_delivery = Some(now);
            // The rule that admits a parent also keeps it: data from a
            // current parent that it refuses (a path through this node,
            // Section II-D, or a depth label no longer shallower than this
            // node's) forces a re-selection.
            if self.cycle.permits(self.me, &data.guard) {
                self.update_position(&data.guard);
            } else {
                self.deactivate(now, from, false, out);
                self.lose_parent(now, from, Loss::Cycle, out);
            }
        } else if adoptable && self.links.parent_count() < self.cfg.mode.target_parents() {
            // A free parent slot: adopt this sender.
            self.adopt(now, from, &data.guard, out);
        } else if !adoptable {
            // The sender cannot be a parent; stop it from relaying to us.
            self.deactivate(now, from, false, out);
        } else if data.seq == 0 || self.pending_repair.is_some() {
            // Duplicate of the bootstrap flood (or a reception while a repair
            // is in progress): run the parent selection strategy over the
            // current parents plus this candidate (Figure 3). Strategy-driven
            // switches are confined to structure-formation time; switching an
            // established tree on in-flight (possibly stale) path metadata
            // can stitch a cycle out of two concurrent switches.
            self.consider_replacement(now, from, &data.guard, out);
        } else if first && self.parents_stale(now) {
            // A *first* reception from a surplus sender while no parent has
            // delivered anything for PARENT_STALE_AFTER: the incumbent
            // parenthood is dead weight (alive parent, silent link) and this
            // sender is provably connected to fresh data. Deactivating it
            // silenced the only live feeder after a mass crash, and the
            // stream died overlay-wide (DESIGN.md, "Scale mode", bug 3). Instead,
            // re-parent onto it when it sits strictly closer to the source
            // (`reparent`'s upward guard); otherwise leave the link active
            // until a genuine duplicate prunes it.
            self.reparent(now, from, &data.guard, &[], out);
        } else if !first {
            // Steady-state duplicate: keep the incumbent parents and silence
            // the surplus sender. Deactivation is *duplicate-triggered*
            // (Section II-C): a first reception from a surplus sender is a
            // latency race, not redundancy, and deactivating on firsts is
            // how the mass-crash deadlock above started. Leaving the link
            // active costs a few duplicates until it prunes normally.
            self.deactivate_surplus(now, from, out);
        }
        if first && !self.cycle.is_unset() {
            self.relay(now, data.seq, data.payload_bytes, Some(from), out);
        }
    }

    /// `from` asked this node to stop relaying to it. If it was a parent
    /// and stopped relaying to us too (`symmetric`), that parenthood is
    /// dead: clinging to it would starve this node silently.
    pub(super) fn handle_deactivate(
        &mut self,
        now: SimTime,
        from: NodeId,
        symmetric: bool,
        out: &mut impl BrisaSink,
    ) {
        self.links.deactivate_outbound(from);
        if symmetric && self.links.is_parent(from) {
            self.lose_parent(now, from, Loss::Deactivated, out);
        }
    }

    /// Sends stream message `seq` to every outbound-active neighbor except
    /// `exclude`, carrying this node's own position metadata. The copy is
    /// built once, on the first recipient, and shared by all of them — so
    /// an interior node allocates exactly one message and a leaf, which has
    /// nobody to relay to, none.
    pub(super) fn relay(
        &self,
        now: SimTime,
        seq: u64,
        payload_bytes: usize,
        exclude: Option<NodeId>,
        out: &mut impl BrisaSink,
    ) {
        let mut shared: Option<Arc<DataMsg>> = None;
        for peer in self.links.outbound_active() {
            if Some(peer) == exclude {
                continue;
            }
            let copy =
                shared.get_or_insert_with(|| Arc::new(self.data_msg(now, seq, payload_bytes)));
            out.send(peer, BrisaMsg::Data(Arc::clone(copy)));
        }
    }

    /// The message this node sends for stream message `seq`: the payload
    /// as received, the metadata this node's own — its position, uptime
    /// and load. The guard shares the node's path, so building the message
    /// copies no path.
    pub(super) fn data_msg(&self, now: SimTime, seq: u64, payload_bytes: usize) -> DataMsg {
        let uptime = self.started_at.map(|s| now.saturating_since(s));
        DataMsg {
            seq,
            payload_bytes,
            guard: self.cycle.outgoing_guard(self.me),
            sender_uptime_secs: uptime.map_or(0, |u| u.as_secs_f64() as u32),
            sender_load: self.links.degree().min(u16::MAX as usize) as u16,
        }
    }

    /// Sends a deactivation for the inbound link from `peer` and updates the
    /// construction-time bookkeeping. `symmetric` is set by the caller that
    /// *also* deactivates its own outbound link towards `peer` (Section
    /// II-E), telling the peer both directions are dead.
    pub(super) fn deactivate(
        &mut self,
        now: SimTime,
        peer: NodeId,
        symmetric: bool,
        out: &mut impl BrisaSink,
    ) {
        self.links.deactivate_inbound(peer);
        self.with_tel(|t| t.deactivations.inc());
        self.tel_event(now, TelEventKind::Deactivate, peer.0 as u64, 0);
        if self.stats.first_deactivation.is_none() {
            self.stats.first_deactivation = Some(now);
        }
        out.send(peer, BrisaMsg::Deactivate { symmetric });
        self.check_construction(now);
    }

    /// Deactivates the inbound link from `from`, a surplus sender. In a
    /// first-come first-picked tree this is a symmetric deactivation
    /// (Section II-E): we cannot be `from`'s parent either, so we stop
    /// relaying to it without waiting for its deactivation — and say so on
    /// the wire, so a stale parenthood on the other side dies with the link.
    pub(super) fn deactivate_surplus(
        &mut self,
        now: SimTime,
        from: NodeId,
        out: &mut impl BrisaSink,
    ) {
        let symmetric =
            self.cfg.strategy == ParentStrategy::FirstComeFirstPicked && self.cfg.mode.is_tree();
        self.deactivate(now, from, symmetric, out);
        if symmetric {
            self.links.deactivate_outbound(from);
        }
    }

    /// True if no current parent has delivered stream data (nor been
    /// adopted) within [`PARENT_STALE_AFTER`].
    fn parents_stale(&self, now: SimTime) -> bool {
        self.last_parent_delivery
            .is_none_or(|t| now.saturating_since(t) >= PARENT_STALE_AFTER)
    }

    pub(super) fn check_construction(&mut self, now: SimTime) {
        if self.stats.first_deactivation.is_some()
            && self.stats.construction_done.is_none()
            && self.links.inbound_active_count() <= self.cfg.mode.target_parents()
        {
            self.stats.construction_done = Some(now);
        }
    }
}
