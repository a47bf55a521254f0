//! Parent selection and the node's position (Sections II-E and II-G): whom
//! a node may adopt, whom its strategy prefers, and where it sits below
//! its parents. Every rule that reads a path or a depth label is
//! [`crate::cycle::CycleState`]'s; this file asks it.

use super::BrisaCore;
use crate::cycle::CycleGuard;
use crate::message::BrisaSink;
use brisa_simnet::{NodeId, SimTime};
use brisa_telemetry::EventKind as TelEventKind;

impl BrisaCore {
    /// Whether `from` may be adopted as a new parent right now: the cycle
    /// rule ([`CycleState::permits`]) decides, for a *current overlay
    /// neighbor* only. A sender that evicted us from its view never relays
    /// to us again, so adopting it (from the data answering a repair's
    /// `Activate` that crossed the eviction, as live schedules do) would
    /// starve this node silently.
    ///
    /// [`CycleState::permits`]: crate::cycle::CycleState::permits
    pub(super) fn can_adopt(&self, from: NodeId, guard: &CycleGuard) -> bool {
        self.links.is_neighbor(from) && self.cycle.permits(self.me, guard)
    }

    /// Adopts `from`, whose data carried `guard`, as a parent and takes
    /// the position below it, completing any pending repair
    /// ([`Self::finish_repair`]).
    pub(super) fn adopt(
        &mut self,
        now: SimTime,
        from: NodeId,
        guard: &CycleGuard,
        out: &mut impl BrisaSink,
    ) {
        self.links.adopt_parent(from);
        self.update_position(guard);
        self.last_parent_delivery = Some(now);
        let parents = self.links.parent_count() as u64;
        self.with_tel(|t| {
            t.adopts.inc();
            t.parent_count.record(parents);
        });
        self.tel_event(now, TelEventKind::Adopt, from.0 as u64, parents);
        self.finish_repair(now, from, out);
        self.check_construction(now);
    }

    /// Runs the parent selection strategy over the current parents plus the
    /// duplicate sender `from`, deactivating whichever link loses
    /// (Figure 3).
    pub(super) fn consider_replacement(
        &mut self,
        now: SimTime,
        from: NodeId,
        guard: &CycleGuard,
        out: &mut impl BrisaSink,
    ) {
        let mut pool: Vec<NodeId> = self.links.parents().collect();
        if !pool.contains(&from) {
            pool.push(from);
        }
        let target = self.cfg.mode.target_parents();
        let selected = self.candidates.select(self.cfg.strategy, &pool, target);
        // `from` displaces the worst current parent(s), if it sits closer to
        // the source than we do.
        if !(selected.contains(&from) && self.reparent(now, from, guard, &selected, out)) {
            self.deactivate_surplus(now, from, out);
        }
    }

    /// Updates our own position after delivering from (or adopting) an
    /// accepted parent that sent `guard`: a path follows the parent's, a
    /// depth label is taken once ([`CycleState::position_after`]).
    ///
    /// [`CycleState::position_after`]: crate::cycle::CycleState::position_after
    pub(super) fn update_position(&mut self, guard: &CycleGuard) {
        self.cycle.position_after(self.me, guard);
    }
}
