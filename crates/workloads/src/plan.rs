//! The timed plan: what happens when, in both worlds.
//!
//! A run's stream, churn script, fault transitions and scripted lifecycle
//! events are one time-ordered list of [`Step`]s, and [`timed_plan`] is the
//! one function that builds it. The simulator engine ([`crate::Runner`])
//! and the live soak runner (`brisa_runtime::run_chaos`) both execute that
//! list, so the same script means the same order of steps in both.
//!
//! At one instant the steps run in this order: the link-fault profile
//! switches on, the partition cuts, lifecycle events fire, the stream
//! message is published, churn acts. Adversity lands before the traffic
//! it should hit. Each world then adds its own [`Step::Mark`]s (the
//! engine's phase-boundary reading, the live runner's invariant sweeps)
//! with [`add_marks`], after every plan step of their instant.

use crate::spec::{ChurnEvent, ChurnSpec, FaultSpec, ScaleEvent, ScaleEventKind, StreamSpec};
use brisa_simnet::{LinkFaults, PartitionSpec, SimTime};

/// One step of a timed plan. `M` is what the executing world marks on
/// its own; [`timed_plan`] never emits a mark.
#[derive(Debug, Clone)]
pub enum Step<M = ()> {
    /// Switch the per-link stochastic profile on (at stream start).
    LinkFaults(LinkFaults),
    /// Install a timed partition (at its cut instant; it heals by window).
    Partition(PartitionSpec),
    /// A scripted lifecycle event.
    Event(ScaleEventKind),
    /// Publish the next stream message at the source.
    Publish,
    /// One event of the churn script.
    Churn(ChurnEvent),
    /// A step of the executing world's own, added by [`add_marks`].
    Mark(M),
}

/// The merged plan of one run whose stream starts at `stream_start` over
/// `population` initial nodes: fault transitions, lifecycle `events`
/// (relative to stream start), publishes and churn, stably sorted by time.
///
/// With churn, the stream keeps flowing for the whole churn window so
/// repairs complete through regular traffic.
pub fn timed_plan<M>(
    stream_start: SimTime,
    stream: &StreamSpec,
    churn: Option<ChurnSpec>,
    faults: &FaultSpec,
    events: &[ScaleEvent],
    population: u32,
) -> Vec<(SimTime, Step<M>)> {
    let mut plan = Vec::new();
    let link = faults.link_faults();
    if !link.is_inert() {
        plan.push((stream_start, Step::LinkFaults(link)));
    }
    // A zero-width window can never be active; installing it exactly at its
    // own heal instant would only trip the simulator's healed-in-the-past
    // assertion.
    if let Some(phase) = faults.partition.filter(|p| !p.duration.is_zero()) {
        let partition = phase.to_partition(stream_start, population);
        plan.push((partition.start, Step::Partition(partition)));
    }
    plan.extend(
        events
            .iter()
            .map(|ev| (stream_start + ev.after, Step::Event(ev.kind))),
    );
    let interval = stream.interval();
    let duration = match churn {
        Some(c) if c.duration > stream.duration() => c.duration,
        _ => stream.duration(),
    };
    let messages = (duration.as_micros() / interval.as_micros().max(1)).max(1);
    plan.extend((0..messages).map(|seq| (stream_start + interval * seq, Step::Publish)));
    if let Some(c) = churn {
        let script = c.schedule(stream_start, population as usize);
        plan.extend(script.into_iter().map(|(t, e)| (t, Step::Churn(e))));
    }
    plan.sort_by_key(|(t, _)| *t);
    plan
}

/// Adds a world's own `marks` to `plan`; each runs after every plan step
/// of its instant.
pub fn add_marks<M>(
    plan: &mut Vec<(SimTime, Step<M>)>,
    marks: impl IntoIterator<Item = (SimTime, M)>,
) {
    plan.extend(marks.into_iter().map(|(t, m)| (t, Step::Mark(m))));
    plan.sort_by_key(|(t, _)| *t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PartitionPhase;
    use brisa_simnet::SimDuration;

    /// Every kind of step lands at one instant; the plan, not a comment in
    /// each world, fixes their order.
    #[test]
    fn one_instant_runs_faults_then_events_then_publish_then_churn_then_marks() {
        let start = SimTime::from_secs(30);
        let mut faults = FaultSpec::loss(0.01);
        faults.partition = Some(PartitionPhase::drop(
            0.25,
            SimDuration::ZERO,
            SimDuration::from_secs(1),
        ));
        let churn = ChurnSpec {
            rate_percent: 10.0,
            interval: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(1),
        };
        let events = [ScaleEvent {
            after: SimDuration::ZERO,
            kind: ScaleEventKind::Kill { node: 3 },
        }];
        let mut plan = timed_plan(
            start,
            &StreamSpec::short(2, 64),
            Some(churn),
            &faults,
            &events,
            10,
        );
        add_marks(&mut plan, [(start, "sweep")]);
        let kind = |step: &Step<&'static str>| match step {
            Step::LinkFaults(_) => "link faults",
            Step::Partition(_) => "partition",
            Step::Event(_) => "event",
            Step::Publish => "publish",
            Step::Churn(_) => "churn",
            Step::Mark(mark) => mark,
        };
        let at_start: Vec<&str> = plan
            .iter()
            .filter(|(t, _)| *t == start)
            .map(|(_, step)| kind(step))
            .collect();
        assert_eq!(
            at_start,
            [
                "link faults",
                "partition",
                "event",
                "publish",
                "churn",
                "sweep"
            ]
        );
        assert!(plan.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
