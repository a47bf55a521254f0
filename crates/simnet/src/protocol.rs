//! The protocol/simulator interface.
//!
//! Protocols are written in a *sans-IO* style: the simulator calls into the
//! protocol with events (start, message, timer, link-down) and the protocol
//! reacts by issuing commands through the [`Context`] (send a message, set a
//! timer, open or close a connection). No I/O, threads or global state is
//! involved, which keeps protocol implementations deterministic and unit
//! testable.

use crate::event::TimerTag;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use brisa_telemetry::Telemetry;
use rand::rngs::SmallRng;

/// Types that know their size on the wire.
///
/// The simulator charges this many bytes of upload to the sender and of
/// download to the receiver of each message. A message with a
/// [`WireCodec`](crate::wire::WireCodec) gets it from its encoder run over a
/// byte counter; the baselines, which never run live, state it as a formula.
pub trait WireSize {
    /// Size of the encoded message in bytes.
    fn wire_size(&self) -> usize;
}

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

/// A protocol stack run by one simulated node.
pub trait Protocol: Sized {
    /// The single message type exchanged between nodes running this stack.
    type Message: Clone + WireSize;

    /// Called once when the node starts executing (joins the system).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Called when a message from `from` is delivered to this node.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        from: NodeId,
        msg: Self::Message,
    );

    /// Called when a timer previously set through [`Context::set_timer`]
    /// fires. Timers cannot be cancelled; a protocol that no longer cares
    /// about a timer simply ignores the callback.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Message>, tag: TimerTag);

    /// Called when connection-level failure detection reports that the
    /// connection to `peer` is broken (the peer crashed, or a connection
    /// attempt to a dead peer timed out).
    fn on_link_down(&mut self, ctx: &mut Context<'_, Self::Message>, peer: NodeId) {
        let _ = (ctx, peer);
    }

    /// Rough memory footprint of this protocol state in bytes, including
    /// owned heap storage. The default counts only the inline struct size;
    /// stacks with significant heap state (delivery ledgers, views,
    /// buffers) should override it. Summed across nodes by
    /// [`crate::Network::footprint`] as the bytes-per-node proxy of the
    /// scale benches.
    fn approx_state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Commands emitted by a protocol while handling an event.
///
/// Inside the simulator these are consumed by the event loop; they are also
/// public so *external* drivers (the live runtime in `brisa-runtime`) can
/// execute the same sans-IO protocols over real transports: build a
/// [`Context`] with [`Context::external`], run a callback, then drain the
/// command vector and translate each entry into socket writes and wall-clock
/// timers.
#[derive(Debug)]
pub enum Command<M> {
    /// Send `msg` to `to` over the (reliable, FIFO) link.
    Send {
        /// Destination node.
        to: NodeId,
        /// Message to deliver.
        msg: M,
    },
    /// Arm a one-shot timer firing after `delay`.
    SetTimer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Tag handed back to [`Protocol::on_timer`].
        tag: TimerTag,
    },
    /// Open a monitored connection to `peer` (failure detection).
    OpenConnection {
        /// The peer to monitor.
        peer: NodeId,
    },
    /// Close the monitored connection to `peer`.
    CloseConnection {
        /// The peer to stop monitoring.
        peer: NodeId,
    },
}

/// Execution context handed to a protocol callback.
///
/// All interaction with the outside world goes through this handle: the
/// current simulated time, the node's own identifier, a per-node
/// deterministic random number generator, and the command sink.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) id: NodeId,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) commands: &'a mut Vec<Command<M>>,
    pub(crate) telemetry: &'a Telemetry,
}

impl<'a, M> Context<'a, M> {
    /// Builds a context for an external driver.
    ///
    /// The simulator constructs contexts internally; this constructor is the
    /// seam that lets other executors — the wall-clock runtime of
    /// `brisa-runtime` — drive the same [`Protocol`] implementations. The
    /// driver supplies the current time (for the live runtime: microseconds
    /// of wall clock since the cluster epoch), the node's identity and RNG,
    /// and a command vector it drains after the callback returns.
    pub fn external(
        now: SimTime,
        id: NodeId,
        rng: &'a mut SmallRng,
        commands: &'a mut Vec<Command<M>>,
    ) -> Self {
        Self::external_with_telemetry(now, id, rng, commands, &brisa_telemetry::DISABLED)
    }

    /// [`Context::external`] with an explicit telemetry handle, so external
    /// drivers that carry an enabled registry (the live reactor) expose it to
    /// protocol callbacks. Telemetry is strictly out-of-band: the handle
    /// never influences protocol behaviour, only what gets recorded.
    pub fn external_with_telemetry(
        now: SimTime,
        id: NodeId,
        rng: &'a mut SmallRng,
        commands: &'a mut Vec<Command<M>>,
        telemetry: &'a Telemetry,
    ) -> Self {
        Context {
            now,
            id,
            rng,
            commands,
            telemetry,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Identifier of the node executing the callback.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// The node's RNG and the command buffer, borrowed together: for a
    /// callee that draws randomness while an adapter of the caller's turns
    /// its effects into commands (a sans-IO layer writing into a sink, as
    /// HyParView does). Pushing a [`Command`] here is exactly what
    /// [`Context::send`] and its siblings do.
    pub fn rng_and_commands(&mut self) -> (&mut SmallRng, &mut Vec<Command<M>>) {
        (self.rng, self.commands)
    }

    /// The run's telemetry handle (disabled unless the driver attached
    /// one). Protocols may clone it and resolve metric handles; they must
    /// never branch on it in a way that alters protocol behaviour.
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry
    }

    /// Sends `msg` to `to`. Delivery is reliable and FIFO per destination
    /// (unless the peer crashes before the message arrives, in which case it
    /// is silently dropped — exactly what a broken TCP connection does).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.commands.push(Command::Send { to, msg });
    }

    /// Arms a one-shot timer that fires after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) {
        self.commands.push(Command::SetTimer { delay, tag });
    }

    /// Declares an open connection to `peer` for the purpose of failure
    /// detection: if `peer` crashes (or is already dead), this node receives
    /// an `on_link_down(peer)` callback after the configured detection
    /// delay. HyParView opens a connection per active-view entry.
    pub fn open_connection(&mut self, peer: NodeId) {
        self.commands.push(Command::OpenConnection { peer });
    }

    /// Closes a previously opened connection; no further link-down
    /// notifications will be delivered for `peer`.
    pub fn close_connection(&mut self, peer: NodeId) {
        self.commands.push(Command::CloseConnection { peer });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_records_commands() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut commands: Vec<Command<u32>> = Vec::new();
        let mut ctx = Context {
            now: SimTime::from_secs(5),
            id: NodeId(3),
            rng: &mut rng,
            commands: &mut commands,
            telemetry: &brisa_telemetry::DISABLED,
        };
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        assert_eq!(ctx.id(), NodeId(3));
        ctx.send(NodeId(1), 99);
        ctx.set_timer(SimDuration::from_millis(10), TimerTag::of_kind(7));
        ctx.open_connection(NodeId(2));
        ctx.close_connection(NodeId(2));
        let _ = ctx.rng();
        let (_rng, raw) = ctx.rng_and_commands();
        assert_eq!(raw.len(), 4, "the same buffer the helpers push into");
        assert_eq!(commands.len(), 4);
        assert!(matches!(
            commands[0],
            Command::Send {
                to: NodeId(1),
                msg: 99
            }
        ));
        assert!(matches!(commands[1], Command::SetTimer { .. }));
        assert!(matches!(
            commands[2],
            Command::OpenConnection { peer: NodeId(2) }
        ));
        assert!(matches!(
            commands[3],
            Command::CloseConnection { peer: NodeId(2) }
        ));
    }

    #[test]
    fn unit_has_zero_wire_size() {
        assert_eq!(().wire_size(), 0);
    }

    #[test]
    fn external_context_behaves_like_internal() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut commands: Vec<Command<u8>> = Vec::new();
        let mut ctx =
            Context::external(SimTime::from_millis(42), NodeId(9), &mut rng, &mut commands);
        assert_eq!(ctx.now(), SimTime::from_millis(42));
        assert_eq!(ctx.id(), NodeId(9));
        ctx.send(NodeId(1), 5);
        ctx.set_timer(SimDuration::from_millis(3), TimerTag::new(1, 2));
        assert!(matches!(
            commands.as_slice(),
            [
                Command::Send {
                    to: NodeId(1),
                    msg: 5
                },
                Command::SetTimer { .. }
            ]
        ));
    }
}
