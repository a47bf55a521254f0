//! Chaos schedules — one fault/lifecycle script, two execution modes.
//!
//! A [`ChaosSchedule`] names the adversity a run is subjected to: a
//! [`FaultSpec`] (per-link loss, jitter, a timed partition) plus a list of
//! timed lifecycle events (named kills, delayed restarts, flash joins),
//! all expressed relative to stream start. The same schedule drives:
//!
//! * the **simulator**, via [`ChaosSchedule::to_scenario`], whose
//!   scenario carries the script's faults and events unchanged; and
//! * a **live cluster**, via the runtime's soak runner, which replays the
//!   events in wall-clock time against real nodes whose sends go through
//!   the same `simnet::faults::FaultLayer`.
//!
//! Both worlds execute the one [`crate::plan::timed_plan`] of the script,
//! so its steps run in the same order in both. Because both run that one
//! fault layer over the same counter-based split-seed PRF
//! ([`brisa_simnet::FaultPrf`]), the stochastic profile means the same
//! thing in both, and the divergence gate in `brisa-bench` can hold the
//! live run to the sim prediction.
//!
//! ## The restart model
//!
//! Live restarts resurrect the *same* identifier with empty state; the
//! simulator cannot re-animate a crashed [`brisa_simnet::NodeId`], so the
//! engine's one [`ScaleEventKind::Restart`] arm (`engine.rs`, shared with
//! churn joins) adds a single fresh join — a new node with an identifier
//! `≥` the original population, exactly as `FlashCrowd { joiners: 1 }`.
//! Both models agree on what the comparison sees, because one rule
//! ([`crate::outcome::NodeClass::of`]) classes every node in both worlds:
//! the live restart is `Reborn`, the sim's is a `Joiner`, and the dead
//! original is gone from both, so the *survivors* — originals never
//! killed — are the same identifiers on both sides and the soak gate
//! compares their delivered sets. The restarted node's own catch-up
//! (buffer anchoring) is asserted separately by the lifecycle tests.

use brisa_simnet::SimDuration;

use crate::spec::{BrisaScenario, FaultSpec, ScaleEvent, ScaleEventKind, StreamSpec};

/// A named chaos script: stochastic faults plus timed lifecycle events.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Scenario name, used as the identity key in soak artifacts.
    pub name: String,
    /// Stochastic link faults and the optional partition window.
    pub faults: FaultSpec,
    /// Timed lifecycle events relative to stream start.
    pub events: Vec<ScaleEvent>,
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
    /// `source` as the stream source and means the same in both worlds:
    /// events sorted by time, kills name original non-source nodes, every
    /// restart names a node that is dead at that point, flash crowds are
    /// non-empty, and no mass crash (a live cluster cannot replay the
    /// simulator's random victims).
    pub fn validate(&self, population: u32, source: u32) -> Result<(), String> {
        let mut dead: Vec<u32> = Vec::new();
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
                ScaleEventKind::Kill { node } => {
                    if node == source {
                        return Err(format!("[{}] schedule kills the source", self.name));
                    }
                    if node >= population {
                        return Err(format!(
                            "[{}] kill names node {node} outside population {population}",
                            self.name
                        ));
                    }
                    if !dead.contains(&node) {
                        dead.push(node);
                    }
                }
                ScaleEventKind::Restart { node } => {
                    let Some(i) = dead.iter().position(|&d| d == node) else {
                        return Err(format!(
                            "[{}] restart of node {node}, which is not dead at {:?}",
                            self.name, ev.after
                        ));
                    };
                    dead.swap_remove(i);
                }
                ScaleEventKind::FlashCrowd { joiners } => {
                    if joiners == 0 {
                        return Err(format!("[{}] zero-sized flash crowd", self.name));
                    }
                }
                ScaleEventKind::MassCrash { .. } => {
                    return Err(format!(
                        "[{}] a mass crash draws random victims, which a live cluster cannot replay",
                        self.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// The simulator scenario predicting this schedule's live run: same
    /// population, stream, seed, faults and events.
    pub fn to_scenario(&self, nodes: u32, stream: StreamSpec, seed: u64) -> BrisaScenario {
        BrisaScenario {
            nodes,
            seed,
            stream,
            faults: self.faults.clone(),
            events: self.events.clone(),
            ..BrisaScenario::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{IntoRunSpec, Runner};
    use crate::protocols::BrisaStackConfig;
    use crate::spec::PartitionPhase;
    use brisa::BrisaNode;
    use ScaleEventKind::{FlashCrowd, Kill, MassCrash, Restart};

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn script(events: &[(u64, ScaleEventKind)]) -> ChaosSchedule {
        ChaosSchedule {
            events: events
                .iter()
                .map(|&(s, kind)| ScaleEvent {
                    after: secs(s),
                    kind,
                })
                .collect(),
            ..ChaosSchedule::named("script")
        }
    }

    #[test]
    fn validate_accepts_well_formed_scripts() {
        let mut sched = script(&[
            (5, Kill { node: 3 }),
            (20, Restart { node: 3 }),
            (25, Kill { node: 3 }),
            (28, Restart { node: 3 }),
            (30, FlashCrowd { joiners: 4 }),
        ]);
        sched.faults = FaultSpec::loss(0.01);
        sched.faults.partition = Some(PartitionPhase::drop(0.25, secs(10), secs(15)));
        assert!(sched.validate(16, 0).is_ok());
    }

    #[test]
    fn validate_rejects_malformed_scripts() {
        assert!(script(&[(1, Kill { node: 0 })]).validate(16, 0).is_err());
        assert!(script(&[(1, Kill { node: 99 })]).validate(16, 0).is_err());
        assert!(script(&[(1, Restart { node: 3 })]).validate(16, 0).is_err());
        assert!(script(&[(1, FlashCrowd { joiners: 0 })])
            .validate(16, 0)
            .is_err());
        let unsorted = script(&[(5, Kill { node: 3 }), (1, Kill { node: 4 })]);
        assert!(unsorted.validate(16, 0).is_err());
    }

    /// Live ignores a restart of a node that is already up, while the
    /// simulator would add a second fresh joiner: the worlds would run
    /// different populations.
    #[test]
    fn validate_rejects_a_second_restart() {
        let twice = script(&[
            (1, Kill { node: 3 }),
            (2, Restart { node: 3 }),
            (3, Restart { node: 3 }),
        ]);
        let err = twice.validate(16, 0).unwrap_err();
        assert!(err.contains("not dead"), "{err}");
    }

    /// A live cluster cannot draw the simulator's random victims.
    #[test]
    fn validate_rejects_a_mass_crash() {
        let crash = script(&[(1, MassCrash { fraction: 0.5 })]);
        let err = crash.validate(16, 0).unwrap_err();
        assert!(err.contains("mass crash"), "{err}");
    }

    #[test]
    fn sim_lowering_maps_lifecycle_events() {
        let sched = script(&[
            (5, Kill { node: 7 }),
            (12, Restart { node: 7 }),
            (20, FlashCrowd { joiners: 3 }),
        ]);
        let sc = sched.to_scenario(16, StreamSpec::short(20, 256), 1);
        assert_eq!(sc.events, sched.events);
    }

    #[test]
    fn to_scenario_carries_faults_and_events() {
        let mut sched = script(&[(3, Kill { node: 2 })]);
        sched.faults = FaultSpec::loss(0.01);
        let sc = sched.to_scenario(32, StreamSpec::short(20, 256), 0xC4405);
        assert_eq!(sc.nodes, 32);
        assert_eq!(sc.seed, 0xC4405);
        assert_eq!(sc.faults.loss_rate, 0.01);
        assert_eq!(sc.events.len(), 1);
    }

    /// Until the simulator re-animates a crashed identifier, its restart
    /// is one fresh join: the same run as `FlashCrowd { joiners: 1 }`.
    #[test]
    fn a_sim_restart_runs_as_a_one_node_flash_crowd() {
        let run = |second: ScaleEventKind| {
            let sched = script(&[(1, Kill { node: 3 }), (2, second)]);
            let sc = sched.to_scenario(16, StreamSpec::short(20, 256), 7);
            let cfg = BrisaStackConfig {
                hpv: sc.hyparview_config(),
                brisa: sc.brisa_config(),
            };
            Runner::<BrisaNode>::new(&cfg, &sc.run_spec()).run()
        };
        let restarted = run(Restart { node: 3 });
        assert_eq!(restarted.joins_injected, 1);
        assert_eq!(
            restarted.fingerprint(),
            run(FlashCrowd { joiners: 1 }).fingerprint()
        );
    }
}
