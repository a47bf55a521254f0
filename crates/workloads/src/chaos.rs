//! Chaos schedules — one fault/lifecycle script, two execution modes.
//!
//! A [`ChaosSchedule`] names the adversity a run is subjected to: a
//! [`FaultSpec`] (per-link loss, jitter, a timed partition) plus a list of
//! timed lifecycle events (named kills, delayed restarts, flash joins),
//! all expressed relative to stream start. The same schedule drives:
//!
//! * the **simulator**, via [`ChaosSchedule::to_scenario`], which lowers
//!   the schedule onto the engine's [`ScaleEvent`] steps and fault
//!   plumbing; and
//! * a **live cluster**, via the runtime's soak runner, which replays the
//!   events in wall-clock time against real nodes whose sends go through
//!   the same `simnet::faults::FaultLayer`.
//!
//! Because both worlds run that one layer over the same counter-based
//! split-seed PRF ([`brisa_simnet::FaultPrf`]), the stochastic profile
//! means the same thing in both, and the divergence gate in
//! `brisa-bench` can hold the live run to a band around the sim
//! prediction.
//!
//! ## The restart model
//!
//! Live restarts resurrect the *same* identifier with empty state; the
//! simulator cannot re-animate a crashed [`brisa_simnet::NodeId`], so
//! [`ChaosEventKind::Restart`] lowers to a single fresh join
//! (`FlashCrowd { joiners: 1 }`) — a new node with an identifier `≥`
//! the original population. Both models agree on what the metrics see:
//! sim eligibility already excludes the dead original and the fresh
//! joiner, and the live side's survivor metrics exclude ever-killed
//! nodes, so delivery/completeness compare the same undisturbed
//! population. The restarted node's own catch-up (buffer anchoring) is
//! asserted separately by the lifecycle tests.

use brisa_simnet::SimDuration;

use crate::spec::{BrisaScenario, FaultSpec, ScaleEvent, ScaleEventKind, StreamSpec};

/// One timed lifecycle event of a chaos script, relative to stream start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// Offset from stream start.
    pub after: SimDuration,
    /// What happens.
    pub kind: ChaosEventKind,
}

/// The kinds of lifecycle event a chaos script can contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEventKind {
    /// Fail-stop the named node (never the source; a schedule naming the
    /// source is rejected by [`ChaosSchedule::validate`]).
    Kill {
        /// Identifier of the victim.
        node: u32,
    },
    /// Restart a previously killed node with empty state. Live: the same
    /// identifier rejoins through the source contact. Sim: lowered to one
    /// fresh join (see the module docs for why the models still compare).
    Restart {
        /// Identifier of the node to resurrect.
        node: u32,
    },
    /// `count` fresh nodes join at once through random live contacts.
    FlashJoin {
        /// Number of simultaneous joiners.
        count: u32,
    },
}

/// A named chaos script: stochastic faults plus timed lifecycle events.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Scenario name, used as the identity key in soak artifacts.
    pub name: String,
    /// Stochastic link faults and the optional partition window.
    pub faults: FaultSpec,
    /// Timed lifecycle events relative to stream start.
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// A quiet schedule with the given name — no faults, no events.
    pub fn named(name: &str) -> Self {
        ChaosSchedule {
            name: name.to_string(),
            faults: FaultSpec::default(),
            events: Vec::new(),
        }
    }

    /// Checks the script is well-formed for a `population`-node run with
    /// `source` as the stream source: events sorted by time, kills and
    /// restarts name original non-source nodes, and every restart is
    /// preceded by a kill of the same node.
    pub fn validate(&self, population: u32, source: u32) -> Result<(), String> {
        let mut killed: Vec<u32> = Vec::new();
        let mut last = SimDuration::ZERO;
        for ev in &self.events {
            if ev.after < last {
                return Err(format!(
                    "[{}] events out of order at {:?}",
                    self.name, ev.after
                ));
            }
            last = ev.after;
            match ev.kind {
                ChaosEventKind::Kill { node } => {
                    if node == source {
                        return Err(format!("[{}] schedule kills the source", self.name));
                    }
                    if node >= population {
                        return Err(format!(
                            "[{}] kill names node {node} outside population {population}",
                            self.name
                        ));
                    }
                    killed.push(node);
                }
                ChaosEventKind::Restart { node } => {
                    if !killed.contains(&node) {
                        return Err(format!(
                            "[{}] restart of node {node} without a prior kill",
                            self.name
                        ));
                    }
                }
                ChaosEventKind::FlashJoin { count } => {
                    if count == 0 {
                        return Err(format!("[{}] zero-sized flash join", self.name));
                    }
                }
            }
        }
        Ok(())
    }

    /// Identifiers of every node the script kills (deduplicated, sorted).
    pub fn killed_nodes(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .events
            .iter()
            .filter_map(|ev| match ev.kind {
                ChaosEventKind::Kill { node } => Some(node),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Lowers the lifecycle events onto the engine's scale-event steps:
    /// kills stay named, restarts and flash joins become fresh joins.
    pub fn sim_events(&self) -> Vec<ScaleEvent> {
        self.events
            .iter()
            .map(|ev| ScaleEvent {
                after: ev.after,
                kind: match ev.kind {
                    ChaosEventKind::Kill { node } => ScaleEventKind::Kill { node },
                    ChaosEventKind::Restart { .. } => ScaleEventKind::FlashCrowd { joiners: 1 },
                    ChaosEventKind::FlashJoin { count } => {
                        ScaleEventKind::FlashCrowd { joiners: count }
                    }
                },
            })
            .collect()
    }

    /// The simulator scenario predicting this schedule's live run: same
    /// population, stream, seed, faults and (lowered) events.
    pub fn to_scenario(&self, nodes: u32, stream: StreamSpec, seed: u64) -> BrisaScenario {
        BrisaScenario {
            nodes,
            seed,
            stream,
            faults: self.faults.clone(),
            events: self.sim_events(),
            ..BrisaScenario::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PartitionPhase;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn validate_accepts_well_formed_scripts() {
        let mut sched = ChaosSchedule::named("combined");
        sched.faults = FaultSpec::loss(0.01);
        sched.faults.partition = Some(PartitionPhase::drop(0.25, secs(10), secs(15)));
        sched.events = vec![
            ChaosEvent {
                after: secs(5),
                kind: ChaosEventKind::Kill { node: 3 },
            },
            ChaosEvent {
                after: secs(20),
                kind: ChaosEventKind::Restart { node: 3 },
            },
            ChaosEvent {
                after: secs(30),
                kind: ChaosEventKind::FlashJoin { count: 4 },
            },
        ];
        assert!(sched.validate(16, 0).is_ok());
        assert_eq!(sched.killed_nodes(), vec![3]);
    }

    #[test]
    fn validate_rejects_malformed_scripts() {
        let kill_source = ChaosSchedule {
            events: vec![ChaosEvent {
                after: secs(1),
                kind: ChaosEventKind::Kill { node: 0 },
            }],
            ..ChaosSchedule::named("bad")
        };
        assert!(kill_source.validate(16, 0).is_err());

        let out_of_range = ChaosSchedule {
            events: vec![ChaosEvent {
                after: secs(1),
                kind: ChaosEventKind::Kill { node: 99 },
            }],
            ..ChaosSchedule::named("bad")
        };
        assert!(out_of_range.validate(16, 0).is_err());

        let orphan_restart = ChaosSchedule {
            events: vec![ChaosEvent {
                after: secs(1),
                kind: ChaosEventKind::Restart { node: 3 },
            }],
            ..ChaosSchedule::named("bad")
        };
        assert!(orphan_restart.validate(16, 0).is_err());

        let unsorted = ChaosSchedule {
            events: vec![
                ChaosEvent {
                    after: secs(5),
                    kind: ChaosEventKind::Kill { node: 3 },
                },
                ChaosEvent {
                    after: secs(1),
                    kind: ChaosEventKind::Kill { node: 4 },
                },
            ],
            ..ChaosSchedule::named("bad")
        };
        assert!(unsorted.validate(16, 0).is_err());
    }

    #[test]
    fn sim_lowering_maps_lifecycle_events() {
        let sched = ChaosSchedule {
            events: vec![
                ChaosEvent {
                    after: secs(5),
                    kind: ChaosEventKind::Kill { node: 7 },
                },
                ChaosEvent {
                    after: secs(12),
                    kind: ChaosEventKind::Restart { node: 7 },
                },
                ChaosEvent {
                    after: secs(20),
                    kind: ChaosEventKind::FlashJoin { count: 3 },
                },
            ],
            ..ChaosSchedule::named("map")
        };
        let lowered = sched.sim_events();
        assert_eq!(lowered.len(), 3);
        assert_eq!(lowered[0].kind, ScaleEventKind::Kill { node: 7 });
        assert_eq!(lowered[1].kind, ScaleEventKind::FlashCrowd { joiners: 1 });
        assert_eq!(lowered[2].kind, ScaleEventKind::FlashCrowd { joiners: 3 });
        assert_eq!(lowered[0].after, secs(5));
    }

    #[test]
    fn to_scenario_carries_faults_and_events() {
        let mut sched = ChaosSchedule::named("carry");
        sched.faults = FaultSpec::loss(0.01);
        sched.events = vec![ChaosEvent {
            after: secs(3),
            kind: ChaosEventKind::Kill { node: 2 },
        }];
        let sc = sched.to_scenario(32, StreamSpec::short(20, 256), 0xC4405);
        assert_eq!(sc.nodes, 32);
        assert_eq!(sc.seed, 0xC4405);
        assert_eq!(sc.faults.loss_rate, 0.01);
        assert_eq!(sc.events.len(), 1);
    }
}
