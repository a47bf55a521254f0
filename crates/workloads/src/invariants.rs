//! Online invariant checking.
//!
//! An [`Invariant`] is a predicate over the *live* state of a running
//! experiment, evaluated repeatedly **during** the drive phase (after every
//! schedule step and once after the drain) rather than post-hoc on the
//! collected result. Online evaluation is what makes the checks worth
//! having under adversity: a transient violation — a cycle stitched
//! mid-repair, a delivery count running ahead of the publishes, a FIFO
//! clock moving backwards — is visible at the step where it happens and
//! carries its timestamp, where an end-of-run check would only see the
//! healed aftermath.
//!
//! Checks are collected in an [`InvariantSuite`] attached to a run through
//! [`crate::engine::Runner::invariants`]; an empty suite is skipped
//! entirely (a plain `Runner::new(..).run()` pays nothing). Violations are
//! recorded, not panicked, so a harness can assert
//! [`InvariantSuite::assert_clean`] or inspect them selectively.
//!
//! Invariants see the simulation through the object-safe [`NetQuery`] view
//! (liveness and FIFO link clocks) of the simulation [`Driver`] — the
//! suite itself is not generic over the protocol or the driver's placement,
//! so one suite type serves every stack in the harness, sequential or
//! sharded.
//!
//! Three invariants ship with the harness, all protocol-generic (they look
//! only at [`NodeReport`]s and the [`NetQuery`] view):
//!
//! * [`DeliveryInvariant`] — no sequence number counted twice, delivery
//!   counts monotone over time and never ahead of what the source has
//!   published, in either result mode;
//! * [`TreeValidityInvariant`] — parent counts within the target bound and
//!   no *persistent* parent cycle among live nodes (a cycle observed at two
//!   consecutive checks; transient cycles are repaired by the protocol's
//!   own detection and are not violations);
//! * [`LinkClockInvariant`] — every directed FIFO link clock in the
//!   simulator is monotone non-decreasing across checks.

use crate::engine::NodeReport;
use brisa_simnet::delivery::WINDOW;
use brisa_simnet::{Driver, NodeId, Placement, Protocol, SimTime};
use std::collections::HashMap;

/// The read-only view of a simulation driver that invariants check
/// against: node liveness and the simulator's FIFO link clocks.
pub trait NetQuery {
    /// True if the node exists and has not crashed.
    fn is_alive(&self, id: NodeId) -> bool;

    /// Every directed link's FIFO clock (last scheduled arrival), sorted by
    /// `(sender, dest)`.
    fn link_clock_entries(&self) -> Vec<(NodeId, NodeId, SimTime)>;
}

impl<P: Protocol, Pl: Placement> NetQuery for Driver<P, Pl> {
    fn is_alive(&self, id: NodeId) -> bool {
        Driver::is_alive(self, id)
    }

    fn link_clock_entries(&self) -> Vec<(NodeId, NodeId, SimTime)> {
        Driver::link_clock_entries(self)
    }
}

/// Context handed to every check: what the harness knows about the run at
/// this instant.
#[derive(Debug, Clone, Copy)]
pub struct InvariantCtx {
    /// Current simulated time.
    pub now: SimTime,
    /// Messages the source has published so far.
    pub published: u64,
    /// The stream source.
    pub source: NodeId,
}

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct InvariantViolation {
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Simulated time of the check that caught it.
    pub at: SimTime,
    /// Human-readable description of the violation.
    pub detail: String,
}

/// An online invariant over a running experiment.
pub trait Invariant {
    /// Display name (used in violation reports).
    fn name(&self) -> &'static str;

    /// Checks the invariant against the live network state; returns a
    /// description of the violation if it does not hold. Checks may keep
    /// state across calls (monotonicity needs the previous observation).
    /// `reports` holds every live node's [`NodeReport`], in ascending node
    /// order — built once per check pass by the engine and shared by all
    /// invariants.
    fn check(
        &mut self,
        net: &dyn NetQuery,
        reports: &[(NodeId, NodeReport)],
        ctx: &InvariantCtx,
    ) -> Result<(), String>;
}

/// An ordered collection of invariants plus the violations they recorded.
#[derive(Default)]
pub struct InvariantSuite {
    checks: Vec<Box<dyn Invariant>>,
    violations: Vec<InvariantViolation>,
    checks_run: u64,
}

impl InvariantSuite {
    /// An empty suite (checking is skipped entirely).
    pub fn new() -> Self {
        InvariantSuite {
            checks: Vec::new(),
            violations: Vec::new(),
            checks_run: 0,
        }
    }

    /// The three standard invariants. `tree_parents` bounds the parent
    /// count and enables the cycle check; pass `None` for DAG modes, whose
    /// depth labels are approximate by design (cycles there are prevented
    /// only probabilistically, see EXPERIMENTS notes), or for protocols
    /// without a parent structure.
    pub fn standard(tree_parents: Option<usize>) -> Self {
        let mut suite = Self::new()
            .with(DeliveryInvariant::new())
            .with(LinkClockInvariant::new());
        if let Some(max_parents) = tree_parents {
            suite = suite.with(TreeValidityInvariant::new(max_parents));
        }
        suite
    }

    /// Adds an invariant (builder style).
    pub fn with(mut self, invariant: impl Invariant + 'static) -> Self {
        self.checks.push(Box::new(invariant));
        self
    }

    /// True if no invariants are registered (the engine skips checking).
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Runs every check once against the current state. `reports` is the
    /// live nodes' [`NodeReport`]s in ascending node order (the engine
    /// builds them once per pass).
    pub fn run_checks(
        &mut self,
        net: &dyn NetQuery,
        reports: &[(NodeId, NodeReport)],
        ctx: &InvariantCtx,
    ) {
        self.checks_run += 1;
        for check in &mut self.checks {
            if let Err(detail) = check.check(net, reports, ctx) {
                self.violations.push(InvariantViolation {
                    invariant: check.name(),
                    at: ctx.now,
                    detail,
                });
            }
        }
    }

    /// Violations recorded so far, in detection order.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Number of times the suite was evaluated (0 means the checks never
    /// ran — an assertion that the suite is clean would be vacuous).
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// Panics with every recorded violation if any check failed, and if the
    /// suite holds checks that never ran (a mis-wired harness would
    /// otherwise pass vacuously).
    pub fn assert_clean(&self) {
        if !self.checks.is_empty() {
            assert!(
                self.checks_run > 0,
                "invariant suite was never evaluated — harness mis-wired"
            );
        }
        assert!(
            self.violations.is_empty(),
            "online invariants violated:\n{}",
            self.violations
                .iter()
                .map(|v| format!("  [{} @ {}] {}", v.invariant, v.at, v.detail))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// The stateless core of the delivery check, usable offline: validates one
/// node's report against what the source had published by `now`.
///
/// It reads only what every ledger keeps in both result modes — the count,
/// the highest sequence number delivered and the last delivery time — so
/// it holds for `ResultMode::Streaming` nodes too, which keep no
/// per-sequence times. A count above `highest + 1` means a sequence number
/// was counted twice. A classic report also lists its deliveries: they
/// must be strictly ascending and, while the ledger's storage cannot have
/// slid (everything below two `delivery::WINDOW`s), exactly as many as the
/// count.
///
/// Shared between the online [`DeliveryInvariant`] (which adds
/// monotonicity across checks) and post-hoc validation of non-simulated
/// traces — the live runtime (`brisa-runtime`) applies it to the reports a
/// real-transport cluster collected.
pub fn check_delivery_report(
    id: NodeId,
    report: &NodeReport,
    published: u64,
    now: SimTime,
) -> Result<(), String> {
    match (report.delivered, report.highest_delivered) {
        (0, None) => {}
        (_, Some(high)) if high >= published => {
            return Err(format!(
                "node {id}: delivered seq {high} but the source has only \
                 published {published} messages"
            ))
        }
        (n, Some(high)) if n > 0 && n <= high + 1 => {}
        (n, high) => {
            return Err(format!(
                "node {id}: delivered={n} cannot be the count of sequence \
                 numbers up to {high:?} — one was delivered twice or dropped \
                 from the record"
            ))
        }
    }
    let listed = &report.first_delivery;
    if !listed.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(format!(
            "node {id}: first deliveries not strictly ascending — a sequence \
             number was delivered twice"
        ));
    }
    let complete = report.highest_delivered.is_some_and(|h| h < 2 * WINDOW);
    if !listed.is_empty()
        && (listed.len() as u64 > report.delivered
            || complete && listed.len() as u64 != report.delivered)
    {
        return Err(format!(
            "node {id}: delivered={} but {} first deliveries listed",
            report.delivered,
            listed.len()
        ));
    }
    match report.last_delivery {
        Some(at) if at > now => Err(format!(
            "node {id}: last delivery stamped {at}, in the future of {now}"
        )),
        _ => Ok(()),
    }
}

/// Delivery sanity, in both result modes: per-node delivery counts never
/// count a sequence number twice, never exceed what the source has
/// published, never decrease over time, and never carry a timestamp from
/// the future.
pub struct DeliveryInvariant {
    prev_delivered: HashMap<u32, u64>,
}

impl DeliveryInvariant {
    /// A fresh checker.
    pub fn new() -> Self {
        DeliveryInvariant {
            prev_delivered: HashMap::new(),
        }
    }
}

impl Default for DeliveryInvariant {
    fn default() -> Self {
        Self::new()
    }
}

impl Invariant for DeliveryInvariant {
    fn name(&self) -> &'static str {
        "no-duplicate-delivery"
    }

    fn check(
        &mut self,
        _net: &dyn NetQuery,
        reports: &[(NodeId, NodeReport)],
        ctx: &InvariantCtx,
    ) -> Result<(), String> {
        for (id, report) in reports {
            let id = *id;
            check_delivery_report(id, report, ctx.published, ctx.now)?;
            let prev = self.prev_delivered.insert(id.0, report.delivered);
            if let Some(prev) = prev {
                if report.delivered < prev {
                    return Err(format!(
                        "node {id}: delivered count went backwards ({prev} -> {})",
                        report.delivered
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Structure sanity for tree-shaped runs: every live non-source node holds
/// at most `max_parents` parents, and no parent cycle among live nodes
/// *persists* across two consecutive checks. BRISA's path guards repair
/// transiently stitched cycles as soon as a message traverses them; a cycle
/// that survives a whole schedule step (hundreds of milliseconds) would
/// starve its members for good and is a genuine violation.
pub struct TreeValidityInvariant {
    max_parents: usize,
    /// Canonical signatures of the cycles seen at the previous check.
    prev_cycles: Vec<Vec<u32>>,
}

impl TreeValidityInvariant {
    /// A checker allowing up to `max_parents` parents per node.
    pub fn new(max_parents: usize) -> Self {
        TreeValidityInvariant {
            max_parents,
            prev_cycles: Vec::new(),
        }
    }

    /// Finds every distinct parent cycle among live nodes, following each
    /// node's first live parent. Returns canonical (rotated-to-minimum)
    /// member lists, sorted for set comparison.
    fn cycles(parent_of: &HashMap<u32, u32>) -> Vec<Vec<u32>> {
        let mut cycles: Vec<Vec<u32>> = Vec::new();
        let mut state: HashMap<u32, u8> = HashMap::new(); // 1 = visiting, 2 = done
        let mut ids: Vec<u32> = parent_of.keys().copied().collect();
        ids.sort_unstable();
        for &start in &ids {
            if state.contains_key(&start) {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = start;
            loop {
                match state.get(&cur) {
                    Some(1) => {
                        // Found a cycle: the tail of `path` from `cur` on.
                        let pos = path.iter().position(|&n| n == cur).expect("on path");
                        let mut cycle: Vec<u32> = path[pos..].to_vec();
                        let min_pos = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &n)| n)
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        cycle.rotate_left(min_pos);
                        cycles.push(cycle);
                        break;
                    }
                    Some(_) => break,
                    None => {
                        state.insert(cur, 1);
                        path.push(cur);
                        match parent_of.get(&cur) {
                            Some(&parent) => cur = parent,
                            None => break,
                        }
                    }
                }
            }
            for n in path {
                state.insert(n, 2);
            }
        }
        cycles.sort();
        cycles
    }
}

impl Invariant for TreeValidityInvariant {
    fn name(&self) -> &'static str {
        "tree-validity"
    }

    fn check(
        &mut self,
        net: &dyn NetQuery,
        reports: &[(NodeId, NodeReport)],
        ctx: &InvariantCtx,
    ) -> Result<(), String> {
        let mut parent_of: HashMap<u32, u32> = HashMap::new();
        for (id, report) in reports {
            let id = *id;
            if id != ctx.source && report.parents.len() > self.max_parents {
                return Err(format!(
                    "node {id}: {} parents exceeds the target of {}",
                    report.parents.len(),
                    self.max_parents
                ));
            }
            // Follow only links between live nodes: a dead parent cannot
            // close a cycle (it will never relay again).
            if let Some(parent) = report.parents.iter().find(|p| net.is_alive(**p)) {
                parent_of.insert(id.0, parent.0);
            }
        }
        let cycles = Self::cycles(&parent_of);
        let persistent: Vec<&Vec<u32>> = cycles
            .iter()
            .filter(|c| self.prev_cycles.binary_search(c).is_ok())
            .collect();
        self.prev_cycles = cycles.clone();
        if let Some(cycle) = persistent.first() {
            return Err(format!(
                "parent cycle {cycle:?} persisted across two consecutive checks — \
                 its members are starving"
            ));
        }
        Ok(())
    }
}

/// FIFO link-clock monotonicity: the simulator's per-directed-link clocks
/// (last scheduled arrival) never move backwards. A regression here would
/// let later sends overtake earlier ones on the same link, silently
/// breaking the FIFO contract every protocol in the workspace assumes.
pub struct LinkClockInvariant {
    prev: HashMap<(u32, u32), SimTime>,
}

impl LinkClockInvariant {
    /// A fresh checker.
    pub fn new() -> Self {
        LinkClockInvariant {
            prev: HashMap::new(),
        }
    }
}

impl Default for LinkClockInvariant {
    fn default() -> Self {
        Self::new()
    }
}

impl Invariant for LinkClockInvariant {
    fn name(&self) -> &'static str {
        "link-clock-monotonicity"
    }

    fn check(
        &mut self,
        net: &dyn NetQuery,
        _reports: &[(NodeId, NodeReport)],
        _ctx: &InvariantCtx,
    ) -> Result<(), String> {
        let entries = net.link_clock_entries();
        for &(sender, dest, clock) in &entries {
            if let Some(&prev) = self.prev.get(&(sender.0, dest.0)) {
                if clock < prev {
                    return Err(format!(
                        "link {sender} -> {dest}: FIFO clock went backwards \
                         ({prev} -> {clock})"
                    ));
                }
            }
            self.prev.insert((sender.0, dest.0), clock);
        }
        // Entries pruned by a crash may reappear at an earlier clock if the
        // pair reconnects much later; forget pairs that vanished so a
        // legitimate reset is not misread as a regression.
        let current: std::collections::HashSet<(u32, u32)> =
            entries.iter().map(|(s, d, _)| (s.0, d.0)).collect();
        self.prev.retain(|k, _| current.contains(k));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_detection_finds_and_canonicalises() {
        // 1 -> 2 -> 3 -> 1 plus a chain 4 -> 1.
        let parent_of: HashMap<u32, u32> = [(1, 2), (2, 3), (3, 1), (4, 1)].into();
        let cycles = TreeValidityInvariant::cycles(&parent_of);
        assert_eq!(cycles, vec![vec![1, 2, 3]]);
        // Pure chains have no cycle.
        let chain: HashMap<u32, u32> = [(1, 0), (2, 1), (3, 2)].into();
        assert!(TreeValidityInvariant::cycles(&chain).is_empty());
        // Two disjoint 2-cycles.
        let two: HashMap<u32, u32> = [(1, 2), (2, 1), (5, 6), (6, 5)].into();
        assert_eq!(
            TreeValidityInvariant::cycles(&two),
            vec![vec![1, 2], vec![5, 6]]
        );
    }

    #[test]
    #[should_panic(expected = "never evaluated")]
    fn assert_clean_rejects_vacuous_suites() {
        let suite = InvariantSuite::standard(Some(1));
        suite.assert_clean();
    }

    #[test]
    fn offline_delivery_check_catches_bad_reports() {
        let now = SimTime::from_secs(10);
        let full = NodeReport {
            delivered: 2,
            first_delivery: vec![(0, SimTime::from_secs(1)), (1, SimTime::from_secs(2))],
            highest_delivered: Some(1),
            last_delivery: Some(SimTime::from_secs(2)),
            ..NodeReport::default()
        };
        // Streaming ledgers keep the same facts without the per-sequence times.
        let streaming = NodeReport {
            first_delivery: Vec::new(),
            ..full.clone()
        };
        for good in [full, streaming] {
            assert!(check_delivery_report(NodeId(1), &good, 5, now).is_ok());
            // Delivered beyond what was published.
            assert!(check_delivery_report(NodeId(1), &good, 1, now).is_err());
            // Timestamp from the future.
            assert!(check_delivery_report(NodeId(1), &good, 5, SimTime::from_millis(1)).is_err());
            // More deliveries than sequence numbers up to the highest.
            let twice = NodeReport {
                delivered: 3,
                ..good.clone()
            };
            assert!(check_delivery_report(NodeId(1), &twice, 5, now).is_err());
            // A count without a highest sequence number, and the converse.
            let unnamed = NodeReport {
                highest_delivered: None,
                ..good.clone()
            };
            assert!(check_delivery_report(NodeId(1), &unnamed, 5, now).is_err());
            let uncounted = NodeReport {
                delivered: 0,
                ..good
            };
            assert!(check_delivery_report(NodeId(1), &uncounted, 5, now).is_err());
        }
        assert!(check_delivery_report(NodeId(1), &NodeReport::default(), 0, now).is_ok());
        // A classic report with a hole can hide a double count from the
        // highest sequence number ({0, 2, 2}: three = 2 + 1), not from its
        // list.
        let at = SimTime::from_secs(1);
        let holed = NodeReport {
            delivered: 3,
            first_delivery: vec![(0, at), (2, at), (2, at)],
            highest_delivered: Some(2),
            last_delivery: Some(at),
            ..NodeReport::default()
        };
        assert!(check_delivery_report(NodeId(1), &holed, 5, now).is_err());
        let short = NodeReport {
            first_delivery: vec![(0, at), (2, at)],
            ..holed
        };
        assert!(check_delivery_report(NodeId(1), &short, 5, now).is_err());
    }

    #[test]
    fn empty_suite_is_clean_and_skippable() {
        let suite = InvariantSuite::new();
        assert!(suite.is_empty());
        suite.assert_clean();
    }
}
