//! Gap and edge recovery: Section II-F's buffer-based compensation,
//! applied outside the repair path. A node asks an upstream buffer for
//! what it missed: a hole is revealed by later data, or, at the stream's
//! tail where nothing later comes, by a parent's advertised edge.

use super::BrisaCore;
use crate::message::{BrisaMsg, BrisaSink, DataMsg};
use brisa_simnet::{NodeId, SimDuration, SimTime};
use brisa_telemetry::EventKind as TelEventKind;

/// Base interval between successive retransmission requests for the same
/// delivery gap. Short enough that a node behind a healed partition
/// catches up within a few stream intervals, long enough that a single
/// loss costs one request, not a burst. Requests that make no progress
/// back off exponentially (doubling per fruitless attempt, capped at 32×
/// this base), so a hole nobody can fill anymore — evicted from every
/// upstream buffer — decays to background noise instead of soliciting the
/// same retransmissions forever.
pub const GAP_RETRY: SimDuration = SimDuration::from_millis(500);
/// Cap on the exponential gap-retry backoff (`GAP_RETRY << GAP_BACKOFF_MAX`).
pub const GAP_BACKOFF_MAX: u32 = 5;
/// How long the data path must be quiet (no reception or publish) before a
/// node starts advertising its stream edge to children on the repair tick.
/// While data flows, later messages reveal holes on their own; the
/// advertisement exists for the tail of the stream, where a lost final
/// message is followed by nothing and would otherwise stay invisible
/// forever. Gating on quiescence keeps the advertisement free in steady
/// state (one stream interval at 5 msg/s is 200 ms, well under this).
pub const EDGE_QUIET_AFTER: SimDuration = SimDuration::from_secs(1);

impl BrisaCore {
    /// Takes stream message `data` from `from` into the ledger: delivered
    /// and buffered if it is new, a gap it reveals asked of `from`. `None`
    /// if its number is refused, else whether it was new.
    pub(super) fn take_in(
        &mut self,
        now: SimTime,
        from: NodeId,
        data: &DataMsg,
        out: &mut impl BrisaSink,
    ) -> Option<bool> {
        // A node that has never delivered anything anchors its contiguous
        // prefix one buffer window below the first message it sees: a
        // joiner arriving mid-stream must not treat history that is long
        // evicted from every buffer as a recoverable gap, but everything a
        // peer could still serve — including seq 0 when an original node's
        // first reception arrives ahead of a lost bootstrap copy — remains
        // requestable. Only then is the number held to the window, so a
        // joiner is admitted however far into the stream it arrives.
        if !self.is_source {
            self.stats
                .delivery
                .anchor(data.seq.saturating_sub(self.cfg.buffer_size as u64));
        }
        if !self.admits(data.seq) {
            return None;
        }
        self.see(data.seq);
        self.last_data_at = Some(now);
        let low = self.stats.delivery.low();
        let first = self.stats.delivery.record(data.seq, now);
        if first {
            self.with_tel(|t| t.delivered.inc());
            out.deliver(data.seq);
            self.buffer.insert(data.seq, data.payload_bytes);
            if self.stats.delivery.low() != low {
                self.gap_attempts = 0;
            }
        }
        // Steady-state loss recovery: a sequence number ahead of the
        // contiguous delivered prefix reveals a hole (a message lost on the
        // wire, or everything missed behind a healed partition). Ask the
        // sender — it relayed the newer message, so its buffer covers the
        // gap or soon will — rate-limited so one hole costs one request.
        // While a repair is pending, the adoption path asks instead.
        if !self.is_source && self.stats.delivery.low() < data.seq && self.pending_repair.is_none()
        {
            self.request_gap(now, from, out);
        }
        Some(first)
    }

    /// A stream-edge advertisement from an upstream node: anything between
    /// our contiguous prefix and the advertised edge is now a *known* gap,
    /// so the regular rate-limited retransmission path can close it — this
    /// is how a message lost at the stream's tail (which no later data ever
    /// reveals) gets repaired.
    pub(super) fn handle_edge(
        &mut self,
        now: SimTime,
        from: NodeId,
        highest: u64,
        out: &mut impl BrisaSink,
    ) {
        if self.is_source || !self.admits(highest) {
            return;
        }
        // Only a node that relays to this one advertises its edge to it, so
        // any edge says this node is still on the stream's path. Asking
        // whether the sender is a parent would cost a link-table look-up,
        // a cache miss, on every edge.
        self.last_parent_delivery = Some(now);
        // A node that has never delivered anchors exactly like the data
        // path: only what an upstream buffer could still serve is treated
        // as a recoverable gap.
        self.stats
            .delivery
            .anchor(highest.saturating_sub(self.cfg.buffer_size as u64));
        self.see(highest);
        if self.known_gap() && self.pending_repair.is_none() {
            self.request_gap(now, from, out);
        }
    }

    /// Serves `from`'s retransmission request from this node's buffer.
    pub(super) fn handle_retransmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        from_seq: u64,
        to_seq: u64,
        out: &mut impl BrisaSink,
    ) {
        let missing = self.buffer.range(from_seq, to_seq);
        for m in &missing {
            self.stats.retransmissions_served += 1;
            self.with_tel(|t| t.retransmits_served.inc());
            let copy = self.data_msg(now, m.seq, m.payload_bytes);
            out.send(from, BrisaMsg::data(copy));
        }
        if let n @ 1.. = missing.len() as u64 {
            self.tel_event(now, TelEventKind::RetransmitServed, from.0 as u64, n);
        }
    }

    /// The tick's half of loss recovery. Once the data path has gone quiet
    /// (the stream's tail, or an outage), the children hear where the edge
    /// is, so a hole *after* their last reception — invisible to the
    /// data-driven detector — becomes a known, requestable gap. And a known
    /// gap that persists (the retransmission was lost, or the upstream is
    /// still catching up) is asked of a parent again, for when nothing
    /// arrives at all anymore.
    pub(super) fn recover_tail(&mut self, now: SimTime, out: &mut impl BrisaSink) {
        if let Some(highest) = self.highest_seq_seen {
            let quiet = self
                .last_data_at
                .is_none_or(|t| now.saturating_since(t) >= EDGE_QUIET_AFTER);
            if quiet {
                let mut advertised = 0u64;
                for child in self.links.children() {
                    advertised += 1;
                    out.send(child, BrisaMsg::Edge { highest });
                }
                if advertised > 0 {
                    self.with_tel(|t| t.edges_advertised.add(advertised));
                    self.tel_event(now, TelEventKind::EdgeAdvertised, highest, advertised);
                }
            }
        }
        if self.pending_repair.is_none() && !self.is_source {
            let parent = self.links.parents().next();
            if let Some(parent) = parent.filter(|_| self.known_gap()) {
                self.request_gap(now, parent, out);
            }
        }
    }

    /// True if `seq`, read off the wire, lies inside the ledger's window. A
    /// number outside it is counted and its message dropped before it
    /// touches any state: it could only come from a faulty or hostile peer,
    /// and letting it reach `highest_seq_seen` would make it a gap to
    /// request and an edge to advertise.
    fn admits(&mut self, seq: u64) -> bool {
        let inside = self.stats.delivery.admit(seq);
        if !inside {
            self.with_tel(|t| t.seq_refused.inc());
        }
        inside
    }

    /// Raises the highest sequence number seen to `seq`.
    pub(super) fn see(&mut self, seq: u64) {
        self.highest_seq_seen = self.highest_seq_seen.max(Some(seq));
    }

    /// True if messages between the ledger's cursor and the highest
    /// sequence number seen are known to be missing.
    fn known_gap(&self) -> bool {
        self.highest_seq_seen
            .is_some_and(|h| self.stats.delivery.low() <= h)
    }

    /// Requests retransmission of the known delivery gap from the ledger's
    /// cursor to `highest_seq_seen` from `target`, rate-limited with
    /// exponential backoff while no progress is made (see [`GAP_RETRY`]).
    fn request_gap(&mut self, now: SimTime, target: NodeId, out: &mut impl BrisaSink) {
        let backoff = GAP_RETRY * (1u64 << self.gap_attempts.min(GAP_BACKOFF_MAX));
        let due = self
            .last_gap_request
            .is_none_or(|t| now.saturating_since(t) >= backoff);
        if !due {
            return;
        }
        let Some(highest) = self.highest_seq_seen else {
            return;
        };
        let low = self.stats.delivery.low();
        if low > highest {
            return;
        }
        self.last_gap_request = Some(now);
        self.gap_attempts += 1;
        self.stats.gap_retransmit_requests += 1;
        self.with_tel(|t| t.gap_requests.inc());
        self.tel_event(now, TelEventKind::GapDetected, low, highest - low + 1);
        self.tel_event(now, TelEventKind::RetransmitSent, target.0 as u64, low);
        out.send(
            target,
            BrisaMsg::Retransmit {
                from_seq: low,
                to_seq: highest,
            },
        );
    }

    /// Asks `parent`, just adopted by an orphan, for everything from the
    /// ledger's cursor on; the gap detector's rate limit counts it.
    pub(super) fn request_all(&mut self, now: SimTime, parent: NodeId, out: &mut impl BrisaSink) {
        self.last_gap_request = Some(now);
        out.send(
            parent,
            BrisaMsg::Retransmit {
                from_seq: self.stats.delivery.low(),
                to_seq: u64::MAX,
            },
        );
    }
}
