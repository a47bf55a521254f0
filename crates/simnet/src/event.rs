//! The discrete-event queue.
//!
//! Events are totally ordered by `(time, prio, sequence)`. The priority is
//! the event's *lane key* — derived by the network from the causing node
//! and that node's cause counter — so same-instant ordering is a function
//! of causality, not of the order pushes happen to arrive in; the sequence
//! number (assigned monotonically at insertion) only resolves pushes the
//! priority leaves equal. This is what lets a sharded run reproduce the
//! sequential event order bit-for-bit.
//!
//! The queue is the timing wheel of [`crate::sched`], keyed by that order.

use crate::node::NodeId;
use crate::sched::TimingWheel;

/// A tag identifying a timer set by a protocol.
///
/// Protocols multiplex all their periodic and one-shot timers through a
/// single `on_timer` callback; `kind` distinguishes timer families (e.g.
/// "shuffle tick" vs "pull tick") and `data` carries an optional payload
/// (e.g. a message sequence number the timer refers to). The simulator never
/// interprets the contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerTag {
    /// Protocol-defined timer family.
    pub kind: u16,
    /// Protocol-defined payload.
    pub data: u64,
}

impl TimerTag {
    /// Convenience constructor.
    pub const fn new(kind: u16, data: u64) -> Self {
        TimerTag { kind, data }
    }

    /// A tag with no payload.
    pub const fn of_kind(kind: u16) -> Self {
        TimerTag { kind, data: 0 }
    }
}

/// Kinds of event processed by the simulation loop.
#[derive(Debug, Clone)]
pub(crate) enum EventKind<M> {
    /// A message reaches its destination.
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        size: usize,
    },
    /// A timer set by `node` fires.
    Timer { node: NodeId, tag: TimerTag },
    /// `node` learns (through connection-level failure detection) that the
    /// connection to `peer` is broken.
    LinkDown { node: NodeId, peer: NodeId },
    /// A node previously added with a start delay begins executing.
    Start { node: NodeId },
    /// A node crashes (fail-stop).
    Crash { node: NodeId },
}

/// The deterministic priority queue of simulation events.
pub(crate) type EventQueue<M> = TimingWheel<EventKind<M>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn timer(node: u32) -> EventKind<()> {
        EventKind::Timer {
            node: NodeId(node),
            tag: TimerTag::of_kind(0),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimTime::from_millis(30), 0, timer(3));
        q.push(SimTime::from_millis(10), 0, timer(1));
        q.push(SimTime::from_millis(20), 0, timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_micros())
            .collect();
        assert_eq!(order, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn same_time_pops_in_insertion_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10u32 {
            q.push(t, 0, timer(i));
        }
        let nodes: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.item {
                EventKind::Timer { node, .. } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1), 0, timer(0));
        q.push(SimTime::from_secs(2), 0, timer(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn timer_tag_constructors() {
        assert_eq!(TimerTag::new(3, 9), TimerTag { kind: 3, data: 9 });
        assert_eq!(TimerTag::of_kind(5), TimerTag { kind: 5, data: 0 });
    }
}
