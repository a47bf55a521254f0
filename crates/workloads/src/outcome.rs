//! Who counts, and what a run delivered, decided once for both worlds. A
//! finished run, simulated ([`crate::EngineResult`]) or live (the runtime's
//! `LiveResult`), is read through a borrowed [`RunView`]: [`NodeClass::of`]
//! classes its nodes, and each metric is a projection over a [`Population`].

use crate::engine::NodeReport;
use brisa_simnet::{NodeId, SimTime};
use std::collections::BTreeMap;

/// What a node alive at the end of a run was to the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// The stream source.
    Source,
    /// An original, non-source node that was never killed.
    Survivor,
    /// An original node killed and restarted under its own identifier.
    Reborn,
    /// A node added after the stream started.
    Joiner,
}

impl NodeClass {
    /// The one rule. `ever_killed` is sorted; a simulated run passes it
    /// empty, because its restarts are fresh joiners (ROADMAP item 11).
    pub fn of(id: NodeId, source: NodeId, original_nodes: u32, ever_killed: &[u32]) -> NodeClass {
        if id == source {
            NodeClass::Source
        } else if id.0 >= original_nodes {
            NodeClass::Joiner
        } else if ever_killed.binary_search(&id.0).is_ok() {
            NodeClass::Reborn
        } else {
            NodeClass::Survivor
        }
    }
}

/// The classes a projection is taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// Every node alive at the end.
    All,
    /// Survivors and reborn nodes: the nodes owed the whole stream.
    Eligible,
    /// Survivors only: the nodes both worlds run undisturbed.
    Survivors,
    /// Reborn nodes and joiners: the nodes that started mid-stream.
    Others,
}

impl Population {
    /// Whether `class` belongs to this population.
    pub(crate) fn contains(self, class: NodeClass) -> bool {
        use NodeClass::*;
        match self {
            Population::All => true,
            Population::Eligible => matches!(class, Survivor | Reborn),
            Population::Survivors => class == Survivor,
            Population::Others => matches!(class, Reborn | Joiner),
        }
    }
}

/// Delivered counts over a population against the published stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Nodes counted.
    pub eligible: u64,
    /// Counted nodes that delivered every message.
    pub complete: u64,
    /// Sum over counted nodes of `min(delivered, published)`.
    pub got: u64,
    /// `eligible × published`.
    pub expected: u64,
}

impl Tally {
    /// Counts one node that delivered `delivered` of `published` messages.
    pub(crate) fn add(&mut self, delivered: u64, published: u64) {
        self.eligible += 1;
        self.complete += u64::from(delivered >= published);
        self.got += delivered.min(published);
        self.expected += published;
    }

    /// Fraction of (node × message) pairs delivered; 1.0 if none was owed.
    pub fn delivery_rate(&self) -> f64 {
        ratio_or_one(self.got, self.expected)
    }

    /// Fraction of counted nodes that delivered every message; 1.0 if
    /// none was counted.
    pub fn completeness(&self) -> f64 {
        ratio_or_one(self.complete, self.eligible)
    }
}

fn ratio_or_one(part: u64, whole: u64) -> f64 {
    match whole {
        0 => 1.0,
        _ => part as f64 / whole as f64,
    }
}

/// Repair traffic summed over a population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Retransmission requests the gap detectors issued.
    pub gap_requests: u64,
    /// Retransmissions served to recovering peers.
    pub retransmissions_served: u64,
}

/// Injection-to-first-delivery latency of each of `report`'s deliveries in
/// ms; a sequence number with no publish time is skipped.
pub(crate) fn latencies_ms<'r>(
    report: &'r NodeReport,
    publish_times: &'r [SimTime],
) -> impl Iterator<Item = f64> + 'r {
    let latency = |&(seq, at): &(u64, SimTime)| {
        let published = publish_times.get(seq as usize)?;
        Some(at.saturating_since(*published).as_millis_f64())
    };
    report.first_delivery.iter().filter_map(latency)
}

/// A borrowed view of a finished run, from either world.
#[derive(Debug, Clone)]
pub struct RunView<'a> {
    /// The stream source.
    pub source: NodeId,
    /// Nodes present before the stream started.
    pub original_nodes: u32,
    /// Nodes killed at least once, sorted (empty for a simulated run).
    pub ever_killed: &'a [u32],
    /// Injection time of every message published, by sequence number.
    pub publish_times: &'a [SimTime],
    /// The nodes alive at the end and their reports, in node order.
    pub nodes: Vec<(NodeId, &'a NodeReport)>,
}

impl<'a> RunView<'a> {
    /// The nodes of `population`, in node order.
    pub fn members(
        &self,
        population: Population,
    ) -> impl Iterator<Item = (NodeId, &'a NodeReport)> + '_ {
        let class = |id| NodeClass::of(id, self.source, self.original_nodes, self.ever_killed);
        let nodes = self.nodes.iter().copied();
        nodes.filter(move |&(id, _)| population.contains(class(id)))
    }

    /// The delivery tally of `population`.
    pub fn tally(&self, population: Population) -> Tally {
        let mut tally = Tally::default();
        for (_, report) in self.members(population) {
            tally.add(report.delivered, self.publish_times.len() as u64);
        }
        tally
    }

    /// Injection-to-first-delivery latency of every (node, message) pair
    /// of `population` in ms, sorted; a sequence number with no publish
    /// time is skipped.
    pub fn latencies_ms(&self, population: Population) -> Vec<f64> {
        let latencies = |(_, report)| latencies_ms(report, self.publish_times);
        let mut samples: Vec<f64> = self.members(population).flat_map(latencies).collect();
        samples.sort_by(f64::total_cmp);
        samples
    }

    /// Each node of `population`'s delivered sequence numbers, ascending:
    /// what a correct protocol delivers in both worlds alike.
    pub fn delivered_sets(&self, population: Population) -> BTreeMap<u32, Vec<u64>> {
        let seqs = |r: &NodeReport| r.first_delivery.iter().map(|&(s, _)| s).collect();
        self.members(population)
            .map(|(id, r)| (id.0, seqs(r)))
            .collect()
    }

    /// Repair traffic of `population`.
    pub fn recovery(&self, population: Population) -> Recovery {
        let mut recovery = Recovery::default();
        for (_, report) in self.members(population) {
            recovery.gap_requests += report.repairs.gap_requests;
            recovery.retransmissions_served += report.repairs.retransmissions_served;
        }
        recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RepairTelemetry;
    use crate::{BrisaScenario, BrisaStackConfig, IntoRunSpec, ResultMode, Runner};
    use brisa::BrisaNode;

    fn report(seqs: &[u64]) -> NodeReport {
        NodeReport {
            delivered: seqs.len() as u64,
            first_delivery: seqs
                .iter()
                .map(|&s| (s, SimTime::from_micros(1_000 * (s + 1) + 500)))
                .collect(),
            ..Default::default()
        }
    }

    /// Five original nodes (source 0, node 3 killed and restarted) plus
    /// joiner 5, three messages published at 1, 2 and 3 ms.
    fn nodes() -> Vec<(NodeId, NodeReport)> {
        vec![
            (NodeId(0), report(&[0, 1, 2])),
            (NodeId(1), report(&[0, 1, 2])),
            (NodeId(2), report(&[0, 2])),
            (NodeId(3), report(&[2])),
            (NodeId(5), report(&[1, 2])),
        ]
    }

    const PUBLISHED_AT: [SimTime; 3] = [
        SimTime::from_micros(1_000),
        SimTime::from_micros(2_000),
        SimTime::from_micros(3_000),
    ];

    fn view(nodes: &[(NodeId, NodeReport)]) -> RunView<'_> {
        RunView {
            source: NodeId(0),
            original_nodes: 5,
            ever_killed: &[3, 4],
            publish_times: &PUBLISHED_AT,
            nodes: nodes.iter().map(|(id, r)| (*id, r)).collect(),
        }
    }

    #[test]
    fn one_node_of_each_class() {
        let nodes = nodes();
        let v = view(&nodes);
        use NodeClass::*;
        let classes: Vec<NodeClass> = nodes
            .iter()
            .map(|(id, _)| NodeClass::of(*id, NodeId(0), 5, &[3, 4]))
            .collect();
        assert_eq!(classes, [Source, Survivor, Survivor, Reborn, Joiner]);
        let ids = |p| v.members(p).map(|(id, _)| id.0).collect::<Vec<_>>();
        assert_eq!(ids(Population::All), [0, 1, 2, 3, 5]);
        assert_eq!(ids(Population::Eligible), [1, 2, 3]);
        assert_eq!(ids(Population::Survivors), [1, 2]);
        assert_eq!(ids(Population::Others), [3, 5]);
        // Without kills (the simulator's case) node 3 is a survivor.
        assert_eq!(NodeClass::of(NodeId(3), NodeId(0), 5, &[]), Survivor);
    }

    #[test]
    fn the_tally_counts_the_population_it_is_given() {
        let nodes = nodes();
        let v = view(&nodes);
        let eligible = v.tally(Population::Eligible);
        assert_eq!(
            eligible,
            Tally {
                eligible: 3,
                complete: 1,
                got: 6,
                expected: 9
            }
        );
        assert_eq!(eligible.delivery_rate(), 6.0 / 9.0);
        assert_eq!(eligible.completeness(), 1.0 / 3.0);
        let survivors = v.tally(Population::Survivors);
        assert_eq!((survivors.got, survivors.expected), (5, 6));
        // A count past the stream (a duplicate first delivery) is capped.
        let mut capped = Tally::default();
        capped.add(7, 3);
        assert_eq!((capped.got, capped.complete), (3, 1));
    }

    #[test]
    fn an_empty_run_tallies_to_one() {
        let empty = view(&[]);
        let t = empty.tally(Population::Eligible);
        assert_eq!(t, Tally::default());
        assert_eq!((t.delivery_rate(), t.completeness()), (1.0, 1.0));
        assert!(empty.latencies_ms(Population::All).is_empty());
        assert!(empty.delivered_sets(Population::All).is_empty());
        assert_eq!(empty.recovery(Population::All), Recovery::default());
    }

    #[test]
    fn latencies_are_sorted_and_skip_sequence_numbers_never_published() {
        let mut nodes = nodes();
        // Node 2 delivered sequence number 3, which has no publish time.
        nodes[2].1 = report(&[2, 3, 0]);
        let v = view(&nodes);
        let survivors = v.latencies_ms(Population::Survivors);
        assert_eq!(survivors, [0.5; 5]);
        let mut all = v.latencies_ms(Population::All);
        assert_eq!(all.len(), 3 + 3 + 2 + 1 + 2);
        all.dedup();
        assert_eq!(all, [0.5]);
    }

    #[test]
    fn delivered_sets_are_taken_over_the_population() {
        let nodes = nodes();
        let v = view(&nodes);
        let sets = v.delivered_sets(Population::Survivors);
        assert_eq!(sets, BTreeMap::from([(1, vec![0, 1, 2]), (2, vec![0, 2])]));
        let others = v.delivered_sets(Population::Others);
        assert_eq!(others, BTreeMap::from([(3, vec![2]), (5, vec![1, 2])]));
        assert_eq!(v.delivered_sets(Population::All).len(), nodes.len());
    }

    /// The recovery columns count every node alive at the end, the source
    /// included: it holds the whole stream and serves most retransmissions.
    #[test]
    fn recovery_counts_the_source() {
        let mut nodes = nodes();
        let repairs = |gap_requests, retransmissions_served| RepairTelemetry {
            gap_requests,
            retransmissions_served,
            ..Default::default()
        };
        nodes[0].1.repairs = repairs(0, 19);
        nodes[2].1.repairs = repairs(1, 0);
        nodes[3].1.repairs = repairs(2, 1);
        let v = view(&nodes);
        let all = v.recovery(Population::All);
        assert_eq!((all.gap_requests, all.retransmissions_served), (3, 20));
        let survivors = v.recovery(Population::Survivors);
        assert_eq!(
            (survivors.gap_requests, survivors.retransmissions_served),
            (1, 0)
        );
    }

    #[test]
    fn the_streaming_and_classic_tallies_agree() {
        let sc = BrisaScenario::small_test(24);
        let cfg = BrisaStackConfig {
            hpv: sc.hyparview_config(),
            brisa: sc.brisa_config(),
        };
        let classic = Runner::<BrisaNode>::new(&cfg, &sc.run_spec()).run();
        let streaming_sc = BrisaScenario {
            results: ResultMode::Streaming,
            ..sc
        };
        let streaming = Runner::<BrisaNode>::new(&cfg, &streaming_sc.run_spec()).run();
        let summary = streaming.streaming.as_ref().expect("a streaming summary");
        assert_eq!(classic.view().tally(Population::Eligible), summary.tally());
        assert_eq!(summary.eligible, 23);
        assert_eq!(classic.delivery_rate(), streaming.delivery_rate());
        assert_eq!(classic.completeness(), streaming.completeness());
    }
}
