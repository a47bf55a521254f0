//! `repro`: the paper's evaluation as one table of claims that is checked.
//!
//! [`EXPERIMENTS`] has one row per entry of DESIGN.md's experiment index
//! (Figures 2 and 6–14, Tables I–II, four ablations). A row runs its
//! scenario family once and returns the table or CDF series the figure
//! shows plus the paper-shape sentences it argues for, each a [`Claim`]: an
//! ordering or a bound on what the run measured, never an absolute PlanetLab
//! number a simulator cannot owe anyone.
//!
//! [`render`] turns the selected rows into one markdown document: a
//! scorecard (experiment · claim · measured · `holds` / `does not hold`),
//! then one section per experiment. `REPRO.md` at the repository root is
//! that document at quick scale; `tests/integration_repro.rs` regenerates it
//! and compares byte for byte, so the committed file is the gate. A claim
//! that does not hold is committed as a finding with its numbers (DESIGN.md,
//! "Reproduction findings"); nothing here tunes a bound to make a row hold.

use crate::{
    cdf_series, run_brisa, run_flood, run_matrix, run_simple_gossip, run_simple_tree, run_tag,
    BaselineScenario, BrisaScenario, EngineResult, Scale,
};
use brisa::{BloomMembership, CycleGuard, ParentStrategy, StructureMode};
use brisa_metrics::report::render_table;
use brisa_metrics::{Cdf, PercentileSummary, StructureSnapshot};
use brisa_simnet::{NodeId, SimDuration};
use brisa_workloads::NodeOutcome;
use brisa_workloads::{scenarios, ChurnSpec, StreamSpec, Testbed};
use std::fmt::Write;

/// One paper-shape sentence, checked against the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The sentence, as the paper (or the scenario's doc) argues it.
    pub text: String,
    /// The numbers the verdict was taken from.
    pub measured: String,
    /// Whether the run agrees.
    pub holds: bool,
}

/// One `a` against `b` comparison of a claim: `(label, a, b)`.
pub type Cell = (String, f64, f64);

fn cell(label: impl ToString, a: f64, b: f64) -> Cell {
    (label.to_string(), a, b)
}

/// A number as the scorecard prints it: whole numbers bare, everything else
/// to about three significant digits.
fn num(x: f64) -> String {
    match x.abs() {
        a if x.fract() == 0.0 || a >= 1000.0 => format!("{x:.0}"),
        a if a >= 10.0 => format!("{x:.1}"),
        a if a >= 1.0 => format!("{x:.2}"),
        _ => format!("{x:.3}"),
    }
}

impl Claim {
    /// A claim whose verdict the caller computed.
    pub fn new(text: &str, measured: String, holds: bool) -> Claim {
        let text = text.to_string();
        Claim {
            text,
            measured,
            holds,
        }
    }

    /// The cells' values are strictly increasing, first to last.
    pub fn increasing(text: &str, cells: &[(String, f64)]) -> Claim {
        let values: Vec<f64> = cells.iter().map(|(_, v)| *v).collect();
        let mut measured = values.first().map(|&v| num(v)).unwrap_or_default();
        for w in values.windows(2) {
            let sign = if w[0] < w[1] { "<" } else { "≥" };
            write!(measured, " {sign} {}", num(w[1])).unwrap();
        }
        Claim::new(text, measured, values.windows(2).all(|w| w[0] < w[1]))
    }

    /// In every cell `a < b`.
    pub fn below(text: &str, cells: &[Cell]) -> Claim {
        Claim::ordered(text, cells, |a, b| a < b, ["<", "≥"])
    }

    /// In every cell `a <= b`.
    pub fn at_most(text: &str, cells: &[Cell]) -> Claim {
        Claim::ordered(text, cells, |a, b| a <= b, ["≤", ">"])
    }

    fn ordered(text: &str, cells: &[Cell], ok: fn(f64, f64) -> bool, signs: [&str; 2]) -> Claim {
        let show = |(label, a, b): &Cell| {
            let sign = signs[usize::from(!ok(*a, *b))];
            format!("{label}: {} {sign} {}", num(*a), num(*b))
        };
        let measured: Vec<String> = cells.iter().map(show).collect();
        let holds = cells.iter().all(|(_, a, b)| ok(*a, *b));
        Claim::new(text, measured.join("; "), holds)
    }

    /// In every cell `a` and `b` are within `factor` of each other
    /// (`1/factor <= a/b <= factor`).
    pub fn within(text: &str, factor: f64, cells: &[Cell]) -> Claim {
        let show = |(l, a, b): &Cell| format!("{l}: {} vs {} (×{:.2})", num(*a), num(*b), a / b);
        let measured: Vec<String> = cells.iter().map(show).collect();
        let ok = |(_, a, b): &Cell| *a <= b * factor && *b <= a * factor;
        Claim::new(text, measured.join("; "), cells.iter().all(ok))
    }

    /// Every `(label, value)` cell reaches `floor`.
    pub fn floor(text: &str, floor: f64, cells: &[(String, f64)]) -> Claim {
        let below = cells.iter().filter(|(_, v)| *v < floor).count();
        let lowest = cells.iter().min_by(|a, b| a.1.total_cmp(&b.1));
        let (label, lowest) = lowest.expect("a floor claim has at least one cell");
        let (lowest, of, floor) = (num(*lowest), cells.len(), num(floor));
        let measured = format!("lowest {lowest} ({label}); {below} of {of} cells under {floor}");
        Claim::new(text, measured, below == 0)
    }
}

/// What an experiment returns: the section body (today's table or CDF
/// series) and the claims it supports.
pub type Outcome = (String, Vec<Claim>);

/// One row of the experiment index.
pub struct Experiment {
    /// What `repro <id>` selects.
    pub id: &'static str,
    /// The figure or table and what it shows.
    pub title: &'static str,
    /// Where the parameters come from.
    pub scenario: &'static str,
    /// Runs the scenario family once.
    pub run: fn(Scale) -> Outcome,
}

/// DESIGN.md's experiment index, in its order, one row per line.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "fig02", title: "Figure 2: duplicates per message under flooding (HyParView)", scenario: "scenarios::fig2", run: fig02 },
    Experiment { id: "fig06_07", title: "Figures 6–7: depth and degree distributions of the emerged structure", scenario: "scenarios::fig6_7", run: fig06_07 },
    Experiment { id: "fig08", title: "Figure 8: sample emerged tree shapes, expansion factor 1", scenario: "scenarios::fig8", run: fig08 },
    Experiment { id: "fig09", title: "Figure 9: routing delays on PlanetLab", scenario: "scenarios::fig9", run: fig09 },
    Experiment { id: "fig10_11", title: "Figures 10–11: download and upload bandwidth during dissemination", scenario: "scenarios::fig10_11", run: fig10_11 },
    Experiment { id: "fig12", title: "Figure 12: data transmitted per node, by protocol and payload", scenario: "scenarios::comparison", run: fig12 },
    Experiment { id: "fig13", title: "Figure 13: structure construction time, BRISA vs TAG", scenario: "scenarios::fig13", run: fig13 },
    Experiment { id: "fig14", title: "Figure 14: parent recovery delay under churn, BRISA vs TAG", scenario: "scenarios::fig14", run: fig14 },
    Experiment { id: "table1", title: "Table I: impact of churn (parents lost, orphans, repairs)", scenario: "scenarios::table1", run: table1 },
    Experiment { id: "table2", title: "Table II: dissemination latency per protocol", scenario: "scenarios::comparison", run: table2 },
    Experiment { id: "ablation_strategies", title: "Ablation: parent selection strategies (Sections II-E, IV)", scenario: "inline", run: strategies },
    Experiment { id: "ablation_dag_parents", title: "Ablation: DAG parent count vs duplicates and robustness (Sections II-G, IV)", scenario: "inline", run: dag_parents },
    Experiment { id: "ablation_expansion_factor", title: "Ablation: HyParView expansion factor 1 vs 2 (Section II-A)", scenario: "inline", run: expansion },
    Experiment { id: "ablation_cycle_prevention", title: "Ablation: cycle-prevention metadata size (Sections II-D, II-G)", scenario: "inline (analytic)", run: cycle },
];

/// Runs the experiments named by `ids` (all of them when empty) at `scale`
/// and renders the scorecard plus one section per experiment. An unknown id
/// is the only error.
pub fn render(ids: &[String], scale: Scale) -> Result<String, String> {
    let find = |id: &String| {
        EXPERIMENTS.iter().find(|e| e.id == id).ok_or_else(|| {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            format!("unknown experiment {id:?}; known: {}", known.join(", "))
        })
    };
    let selected: Vec<&Experiment> = match ids {
        [] => EXPERIMENTS.iter().collect(),
        ids => ids.iter().map(find).collect::<Result<_, _>>()?,
    };
    let results: Vec<Outcome> = selected.iter().map(|e| (e.run)(scale)).collect();

    let claims = || results.iter().flat_map(|(_, claims)| claims);
    let (total, failing) = (claims().count(), claims().filter(|c| !c.holds).count());
    let mut out = format!(
        "# BRISA reproduction scorecard\n\n\
         `repro` at {} scale — {total} claims: {} `holds`, {failing} `does not hold`. Each claim is \
         an ordering or a bound the paper argues for, checked against one deterministic run; a \
         row that reads `does not hold` is a finding (DESIGN.md, \"Reproduction findings\"), not \
         a failure of this program. `REPRO.md` is this output at quick scale \
         (`cargo run --release -p brisa-bench --bin repro > REPRO.md`) and \
         `tests/integration_repro.rs` keeps it current.\n\n\
         | experiment | claim | measured | verdict |\n|---|---|---|---|\n",
        scale.pick("full", "quick"),
        total - failing,
    );
    for (e, (_, claims)) in selected.iter().zip(&results) {
        for c in claims {
            let (id, verdict) = (e.id, ["**does not hold**", "holds"][usize::from(c.holds)]);
            writeln!(out, "| `{id}` | {} | {} | {verdict} |", c.text, c.measured).unwrap();
        }
    }
    for (e, (detail, _)) in selected.iter().zip(&results) {
        let (id, title, scenario, detail) = (e.id, e.title, e.scenario, detail.trim_end());
        let heading = format!("## `{id}` — {title}\n\nScenario source: `{scenario}`.");
        writeln!(out, "\n{heading}\n\n```text\n{detail}\n```").unwrap();
    }
    Ok(out)
}

/// A table of numbers, one labelled row per cell of an experiment: what the
/// section prints is also what the claims read.
struct Grid {
    headers: Vec<&'static str>,
    decimals: &'static [usize],
    labels: Vec<String>,
    values: Vec<Vec<f64>>,
}

impl Grid {
    /// `headers` is `label|column|…`, `decimals` the precision each numeric
    /// column prints at.
    fn new(headers: &'static str, decimals: &'static [usize]) -> Grid {
        let (headers, labels, values) = (headers.split('|').collect(), Vec::new(), Vec::new());
        Grid {
            headers,
            decimals,
            labels,
            values,
        }
    }

    fn push(&mut self, label: impl ToString, values: &[f64]) {
        self.labels.push(label.to_string());
        self.values.push(values.to_vec());
    }

    fn rows(&self) -> impl Iterator<Item = (&String, &Vec<f64>)> {
        self.labels.iter().zip(&self.values)
    }

    fn render(&self) -> String {
        let row = |(label, values): (&String, &Vec<f64>)| {
            let numbers = values.iter().zip(self.decimals);
            let numbers = numbers.map(|(v, &decimals)| format!("{v:.decimals$}"));
            std::iter::once(label.clone()).chain(numbers).collect()
        };
        let rows: Vec<Vec<String>> = self.rows().map(row).collect();
        render_table(&self.headers, &rows)
    }

    /// Column `c`, labelled by row.
    fn column(&self, c: usize) -> Vec<(String, f64)> {
        self.rows()
            .map(|(label, v)| (label.clone(), v[c]))
            .collect()
    }

    /// In each row, column `a` against column `b`.
    fn across(&self, a: usize, b: usize) -> Vec<Cell> {
        self.rows()
            .map(|(label, v)| cell(label, v[a], v[b]))
            .collect()
    }

    /// Column `c` of row `a` against row `b`, for each `(a, b)`; the
    /// leading `, `-separated parts two labels share are written once.
    fn pairs(&self, c: usize, pairs: &[(usize, usize)]) -> Vec<Cell> {
        let pair = |&(a, b): &(usize, usize)| {
            let (la, lb) = (&self.labels[a], &self.labels[b]);
            let same = la
                .split(", ")
                .zip(lb.split(", "))
                .take_while(|(x, y)| x == y);
            let shared: usize = same.map(|(x, _)| x.len() + 2).sum();
            let label = format!("{} against {}", la, &lb[shared.min(lb.len())..]);
            cell(label, self.values[a][c], self.values[b][c])
        };
        pairs.iter().map(pair).collect()
    }
}

/// `tree, view=4` / `DAG-2, view=8`: the structure label of Figures 6–11.
fn structure_label(sc: &BrisaScenario) -> String {
    let mode = if sc.mode.is_tree() { "tree" } else { "DAG-2" };
    format!("{mode}, view={}", sc.view_size)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    Cdf::from_samples(values).mean()
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    Cdf::from_samples(values).quantile(0.5)
}

fn routing_delays(r: &EngineResult) -> Cdf {
    Cdf::from_samples(r.non_source().filter_map(|n| n.routing_delay_ms))
}

/// Completeness in percent, as the tables print it.
fn complete(r: &EngineResult) -> f64 {
    r.completeness() * 100.0
}

/// Degrees of a structure's nodes (in no particular order), the share of
/// zero-degree nodes in percent, and the largest degree.
fn degree_shape(structure: &StructureSnapshot) -> (Vec<f64>, f64, f64) {
    let degrees: Vec<f64> = structure.degrees().values().map(|&d| d as f64).collect();
    let leaves = degrees.iter().filter(|&&d| d == 0.0).count();
    let leaf_share = leaves as f64 / degrees.len().max(1) as f64 * 100.0;
    let max = degrees.iter().copied().fold(0.0, f64::max);
    (degrees, leaf_share, max)
}

/// The protocols of the cross-protocol comparisons (Figures 12–14, Table II).
#[derive(Clone, Copy)]
enum Proto {
    SimpleTree,
    Brisa,
    Tag,
    SimpleGossip,
}

/// The population the cross-protocol comparisons share: view 4, everything
/// not named here at the scenario defaults.
fn comparison(nodes: u32, testbed: Testbed, stream: StreamSpec) -> BaselineScenario {
    let view_size = 4;
    BaselineScenario {
        nodes,
        view_size,
        testbed,
        stream,
        ..Default::default()
    }
}

/// One cell of a cross-protocol comparison: `base`'s population, view,
/// testbed, stream and churn under `proto`, everything else at the
/// protocol's own scenario defaults.
fn run_protocol(proto: Proto, base: &BaselineScenario) -> EngineResult {
    match proto {
        Proto::SimpleTree => run_simple_tree(base),
        Proto::Tag => run_tag(base),
        Proto::SimpleGossip => run_simple_gossip(base),
        Proto::Brisa => run_brisa(&BrisaScenario {
            nodes: base.nodes,
            view_size: base.view_size,
            testbed: base.testbed,
            stream: base.stream,
            churn: base.churn,
            ..Default::default()
        }),
    }
}

/// Flooding over HyParView with views 4–10: duplicates per message per node.
fn fig02(scale: Scale) -> Outcome {
    let (nodes, messages, payload_bytes, views) = scenarios::fig2(scale);
    let stream = StreamSpec {
        messages,
        rate_per_sec: 5.0,
        payload_bytes,
    };
    let cell_for = |&view_size: &usize| {
        let base = comparison(nodes, Testbed::Cluster, stream);
        BaselineScenario { view_size, ..base }
    };
    let cells: Vec<BaselineScenario> = views.iter().map(cell_for).collect();
    let results = run_matrix(&cells, |_, sc| run_flood(sc));

    let headers = "view|completeness %|mean duplicates/message|median";
    let mut grid = Grid::new(headers, &[1, 2, 2]);
    let mut series = Vec::new();
    for (view, result) in views.iter().zip(&results) {
        let dups = result.non_source().map(|n| n.report.duplicates_per_message);
        let mut cdf = Cdf::from_samples(dups);
        let row = [complete(result), cdf.mean(), cdf.quantile(0.5)];
        grid.push(format!("view {view}"), &row);
        series.push((format!("view={view}"), cdf));
    }
    let shape = format!("nodes = {nodes}, messages = {messages}, payload = {payload_bytes} B");
    let cdfs = cdf_series("duplicates per message", &mut series, 12);
    #[rustfmt::skip]
    let claims = vec![
        Claim::increasing("duplicates per message grow with the view size (mean over nodes, views 4 / 6 / 8 / 10)", &grid.column(1)),
        Claim::floor("flooding reaches every node at every view size (completeness %)", 100.0, &grid.column(0)),
    ];
    (format!("{shape}\n\n{}\n{cdfs}", grid.render()), claims)
}

/// Depth (longest path from the source) and degree distributions, tree and
/// DAG-2 × view 4 and 8.
fn fig06_07(scale: Scale) -> Outcome {
    let cells = scenarios::fig6_7(scale);
    let results = run_matrix(&cells, |_, sc| run_brisa(sc));

    // Rows in `scenarios::fig6_7` order: tree 4, tree 8, DAG 4, DAG 8.
    let headers = "structure|nodes|max depth|mean depth|leaves %|max degree|expanded view|\
                   complete|acyclic";
    let mut grid = Grid::new(headers, &[0, 0, 2, 0, 0, 0, 0, 0]);
    let (mut depth_series, mut degree_series) = (Vec::new(), Vec::new());
    for (sc, result) in cells.iter().zip(&results) {
        let structure = result.structure();
        let depths: Vec<f64> = structure.depths().values().map(|&d| d as f64).collect();
        let max_depth = depths.iter().copied().fold(0.0, f64::max);
        let (degrees, leaf_share, max_degree) = degree_shape(&structure);
        let expanded = (sc.view_size * sc.expansion_factor) as f64;
        let sound = [structure.is_complete(), structure.is_acyclic()].map(f64::from);
        let shape = [
            degrees.len() as f64,
            max_depth,
            mean(depths.iter().copied()),
            leaf_share,
        ];
        let row = [&shape[..], &[max_degree, expanded], &sound].concat();
        grid.push(structure_label(sc), &row);
        depth_series.push((structure_label(sc), Cdf::from_samples(depths)));
        degree_series.push((structure_label(sc), Cdf::from_samples(degrees)));
    }
    let depth_table = cdf_series("depth", &mut depth_series, 16);
    let degree_table = cdf_series("degree (children)", &mut degree_series, 16);

    #[rustfmt::skip]
    let claims = vec![
        Claim::below("Figure 6: larger views give shallower structures, and DAGs are deeper than trees, depth being the longest path from the source (mean depth)", &grid.pairs(2, &[(1, 0), (3, 2), (0, 2), (1, 3)])),
        Claim::floor("Figures 6–7: every emerged structure reaches all nodes (complete = 1)", 1.0, &grid.column(6)),
        Claim::floor("Figures 6–7: every emerged structure is free of cycles (acyclic = 1)", 1.0, &grid.column(7)),
        Claim::below("Figure 7: DAGs leave fewer nodes as zero-degree leaves than trees, and larger views produce more leaves (leaf share %)", &grid.pairs(3, &[(2, 0), (3, 1), (0, 1), (2, 3)])),
        Claim::at_most("Figure 7: despite the expansion factor of 2 no node's degree exceeds the expanded active view (max degree against expansion factor × view)", &grid.across(4, 5)),
    ];
    let out = [grid.render(), depth_table, degree_table].join("\n");
    (out, claims)
}

/// Two sample trees (100 nodes, expansion factor 1), as height and leaf
/// share rather than a drawing.
fn fig08(scale: Scale) -> Outcome {
    let cells = scenarios::fig8(scale);
    let results = run_matrix(&cells, |_, sc| run_brisa(sc));
    let headers = "view|nodes|height|leaves %|max degree|complete";
    let mut grid = Grid::new(headers, &[0, 0, 0, 0, 0]);
    for (sc, result) in cells.iter().zip(&results) {
        let structure = result.structure();
        let height = structure.depths().values().max().copied().unwrap_or(0);
        let (degrees, leaf_share, max_degree) = degree_shape(&structure);
        let reached = f64::from(structure.is_complete());
        let row = [
            degrees.len() as f64,
            height as f64,
            leaf_share,
            max_degree,
            reached,
        ];
        grid.push(format!("view {}", sc.view_size), &row);
    }
    let shallower_and_wider = [grid.pairs(1, &[(1, 0)]), grid.pairs(2, &[(0, 1)])].concat();
    #[rustfmt::skip]
    let claims = vec![
        Claim::below("the view-8 tree is shallower (height) and wider (leaf share %) than the view-4 one", &shallower_and_wider),
        Claim::floor("both sample trees reach every node (complete = 1)", 1.0, &grid.column(4)),
    ];
    (grid.render(), claims)
}

/// Routing delay on PlanetLab: point-to-point reference, first-pick,
/// delay-aware, and flooding over the same overlay parameters.
fn fig09(scale: Scale) -> Outcome {
    let brisa_cells = scenarios::fig9(scale);
    let (nodes, stream) = (brisa_cells[0].nodes, brisa_cells[0].stream);
    let flood_cell = comparison(nodes, Testbed::PlanetLab, stream);
    // Cells 0 and 1 are first-pick and delay-aware, cell 2 is the flood.
    let results = run_matrix(&[0usize, 1, 2], |_, &i| match brisa_cells.get(i) {
        Some(sc) => run_brisa(sc),
        None => run_flood(&flood_cell),
    });

    // The point-to-point series is strategy-independent; take it from the
    // first run. Rows: p2p, first-pick, delay-aware, flood.
    let p2p = Cdf::from_samples(results[0].non_source().map(|n| n.point_to_point_ms));
    let mut grid = Grid::new("series|mean routing delay (ms)|completeness %", &[1, 1]);
    grid.push("point-to-point", &[p2p.mean(), 100.0]);
    let mut series = vec![("point-to-point".to_string(), p2p)];
    for (label, result) in ["first-pick", "delay-aware", "flood"].iter().zip(&results) {
        let cdf = routing_delays(result);
        grid.push(label, &[cdf.mean(), complete(result)]);
        series.push((label.to_string(), cdf));
    }
    let cdfs = cdf_series("routing delay (ms)", &mut series, 14);
    #[rustfmt::skip]
    let claims = vec![
        Claim::below("delay-aware parent selection clearly improves over first-pick (mean routing delay, ms)", &grid.pairs(0, &[(2, 1)])),
        Claim::below("flooding is the worst series (mean routing delay, ms)", &grid.pairs(0, &[(1, 3), (2, 3)])),
        Claim::below("every overlay series sits above the point-to-point reference (mean, ms)", &grid.pairs(0, &[(0, 1), (0, 2), (0, 3)])),
    ];
    (format!("{}\n{cdfs}", grid.render()), claims)
}

/// Download and upload KB/s percentiles during dissemination, by payload
/// size, tree and DAG-2 × view 4 and 8.
fn fig10_11(scale: Scale) -> Outcome {
    let (payloads, bases) = scenarios::fig10_11(scale);
    let with_payload = |&payload: &usize| {
        bases.iter().map(move |base| {
            let mut sc = base.clone();
            sc.stream.payload_bytes = payload;
            sc
        })
    };
    let cells: Vec<BrisaScenario> = payloads.iter().flat_map(with_payload).collect();
    let results = run_matrix(&cells, |_, sc| run_brisa(sc));

    // Rows payload-major, `scenarios::fig10_11` order within a payload: tree
    // 4, tree 8, DAG 4, DAG 8.
    let headers = "KB/s down|p5|p25|p50|p75|p90|mean|median KB|messages x payload KB";
    let mut down = Grid::new(headers, &[2, 2, 2, 2, 2, 2, 1, 0]);
    let mut up = Grid::new("KB/s up|p5|p25|p50|p75|p90|mean", &[2; 6]);
    for (sc, r) in cells.iter().zip(&results) {
        let payload_kb = sc.stream.payload_bytes as f64 / 1024.0;
        let label = format!("{payload_kb} KB, {}", structure_label(sc));
        let percentiles = |kbps: fn(&NodeOutcome) -> f64| {
            let s = PercentileSummary::from_samples(r.non_source().map(kbps));
            [s.p5, s.p25, s.p50, s.p75, s.p90, s.mean]
        };
        let bytes = r.non_source().map(|n| n.bandwidth.diss_down_bytes as f64);
        let volume = [
            median(bytes) / 1024.0,
            r.messages_published as f64 * payload_kb,
        ];
        let kbps_down = percentiles(|n| n.bandwidth.diss_down_kbps);
        down.push(&label, &[&kbps_down[..], &volume].concat());
        up.push(&label, &percentiles(|n| n.bandwidth.diss_up_kbps));
    }
    let tree_dag = |p: usize| [(4 * p, 4 * p + 2), (4 * p + 1, 4 * p + 3)];
    let tree_dag: Vec<(usize, usize)> = (0..payloads.len()).flat_map(tree_dag).collect();
    let twice = |&(tree, dag): &(usize, usize)| {
        let label = format!("{} against 2 × {}", down.labels[dag], down.labels[tree]);
        cell(label, down.values[dag][2], 2.0 * down.values[tree][2])
    };
    let twice: Vec<Cell> = tree_dag.iter().map(twice).collect();
    // The trees of the largest payload: the first two rows of the last four.
    let one_copy = &down.across(6, 7)[down.labels.len() - 4..down.labels.len() - 2];
    #[rustfmt::skip]
    let claims = vec![
        Claim::within("Figure 10: a tree node downloads one copy of each message (median KB downloaded against messages × payload, largest payload)", 1.1, one_copy),
        Claim::within("Figure 10: a DAG-2 node downloads roughly twice what a tree node does, one copy per parent (median KB/s)", 1.25, &twice),
        Claim::below("Figure 11: DAGs upload more than trees (mean KB/s)", &up.pairs(5, &tree_dag)),
    ];
    (format!("{}\n{}", down.render(), up.render()), claims)
}

/// MB uploaded per node (stabilisation + dissemination) by protocol and
/// payload size.
fn fig12(scale: Scale) -> Outcome {
    const PROTOCOLS: [Proto; 4] = [
        Proto::SimpleTree,
        Proto::Brisa,
        Proto::Tag,
        Proto::SimpleGossip,
    ];
    let (nodes, payloads, stream) = scenarios::comparison(scale);
    let per_payload = |&payload: &usize| PROTOCOLS.iter().map(move |&proto| (payload, proto));
    let cells: Vec<(usize, Proto)> = payloads.iter().flat_map(per_payload).collect();
    let mb = run_matrix(&cells, |_, &(payload_bytes, proto)| {
        let stream = StreamSpec {
            payload_bytes,
            ..stream
        };
        let base = comparison(nodes, Testbed::Cluster, stream);
        run_protocol(proto, &base).mean_uploaded_mb()
    });

    let headers = "payload|SimpleTree (MB)|BRISA tree v4 (MB)|TAG v4 (MB)|SimpleGossip (MB)|\
                   lowest but SimpleTree|highest but SimpleGossip";
    let mut grid = Grid::new(headers, &[2; 6]);
    for (payload, r) in payloads.iter().zip(mb.chunks(PROTOCOLS.len())) {
        let others = [r[1].min(r[2]).min(r[3]), r[0].max(r[1]).max(r[2])];
        grid.push(format!("{} KB", payload / 1024), &[r, &others].concat());
    }
    // Row 0 is the empty payload: no volume to compare.
    #[rustfmt::skip]
    let claims = vec![
        Claim::within("BRISA and TAG transmit comparable volumes once there is a payload (MB per node, BRISA against TAG)", 1.5, &grid.across(1, 2)[1..]),
        Claim::at_most("SimpleTree has the smallest overhead at every payload (MB per node, SimpleTree against the lowest other protocol)", &grid.across(0, 4)),
        Claim::below("SimpleGossip is the most expensive once there is a payload (MB per node, the highest other protocol against SimpleGossip)", &grid.across(5, 3)[1..]),
    ];
    (grid.render(), claims)
}

/// Construction time (BRISA: first deactivation to the target parent count;
/// TAG: join request to settled list position), cluster and PlanetLab.
fn fig13(scale: Scale) -> Outcome {
    let both = |&(testbed, nodes): &(Testbed, u32)| {
        [("BRISA", Proto::Brisa), ("TAG", Proto::Tag)].map(|proto| (testbed, nodes, proto))
    };
    let cells: Vec<_> = scenarios::fig13(scale).iter().flat_map(both).collect();
    let results = run_matrix(&cells, |_, &(testbed, nodes, (_, proto))| {
        let base = comparison(nodes, testbed, StreamSpec::short(30, 1024));
        run_protocol(proto, &base)
    });

    // Rows: BRISA cluster, TAG cluster, BRISA PlanetLab, TAG PlanetLab.
    let mut grid = Grid::new("series|median construction (ms)|twice that", &[1, 1]);
    let mut series = Vec::new();
    for ((testbed, _, (name, _)), result) in cells.iter().zip(&results) {
        let env = if *testbed == Testbed::Cluster {
            "cluster"
        } else {
            "PlanetLab"
        };
        let times = result
            .nodes
            .iter()
            .filter_map(|n| n.report.construction_time);
        let mut cdf = Cdf::from_samples(times.map(|d| d.as_millis_f64()));
        let median = cdf.quantile(0.5);
        grid.push(format!("{name}, {env}"), &[median, 2.0 * median]);
        series.push((format!("{name}, {env}"), cdf));
    }
    let cdfs = cdf_series("construction time (ms)", &mut series, 14);
    let wan = [cell(
        "2 × BRISA against TAG",
        grid.values[2][1],
        grid.values[3][0],
    )];
    #[rustfmt::skip]
    let claims = vec![
        Claim::within("on the cluster BRISA and TAG build their structures in comparable time (median ms, same order of magnitude)", 10.0, &grid.pairs(0, &[(0, 1)])),
        Claim::below("on PlanetLab TAG is much slower, its list traversal paying a WAN round trip per hop (median ms)", &wan),
    ];
    (format!("{}\n{cdfs}", grid.render()), claims)
}

/// Hard-repair recovery delays under 3 %/min churn, BRISA tree vs TAG.
fn fig14(scale: Scale) -> Outcome {
    let (nodes, churn, stream) = scenarios::fig14(scale);
    let mut base = comparison(nodes, Testbed::Cluster, stream);
    base.churn = Some(churn);
    let reports = run_matrix(&[Proto::Brisa, Proto::Tag], |_, &proto| {
        run_protocol(proto, &base).churn_report(&churn)
    });

    // The paper's figure focuses on hard repairs; the soft columns show
    // BRISA's other advantage.
    let headers = "protocol|soft repairs|median (ms)|hard repairs|median (ms)";
    let mut grid = Grid::new(headers, &[0, 1, 0, 1]);
    let mut series = Vec::new();
    for (name, r) in ["BRISA tree", "TAG"].iter().zip(&reports) {
        let soft = median(r.soft_delays_ms.iter().copied());
        let mut hard = Cdf::from_samples(r.hard_delays_ms.iter().copied());
        let row = [
            r.soft_repairs as f64,
            soft,
            r.hard_repairs as f64,
            hard.quantile(0.5),
        ];
        grid.push(name, &row);
        series.push((format!("{name} (hard repairs)"), hard));
    }
    let cdfs = cdf_series("recovery delay (ms)", &mut series, 12);
    let faster = "BRISA's hard repairs recover faster than TAG's (median ms)";
    let faster = match reports[0].hard_repairs {
        0 => Claim::new(faster, "BRISA needed none".to_string(), true),
        _ => Claim::below(faster, &grid.pairs(3, &[(0, 1)])),
    };
    #[rustfmt::skip]
    let claims = vec![
        Claim::below("BRISA needs hard repairs less often than TAG (hard repairs over the churn window)", &grid.pairs(2, &[(0, 1)])),
        faster,
    ];
    (format!("{}\n{cdfs}", grid.render()), claims)
}

/// Churn impact grid: 2 sizes × 3 and 5 %/min × tree and DAG-2.
fn table1(scale: Scale) -> Outcome {
    let cells = scenarios::table1(scale);
    let rows = run_matrix(&cells, |_, (_, _, _, sc)| {
        let r = run_brisa(sc);
        let churn = r.churn_report(&sc.churn.expect("table 1 runs always have churn"));
        let (lost, orphans) = (churn.parents_lost_per_min, churn.orphans_per_min);
        [lost, orphans, churn.soft_pct, churn.hard_pct, complete(&r)]
    });
    let headers = "cell|parents lost/min|orphans/min|% soft repairs|% hard repairs|completeness %";
    let mut grid = Grid::new(headers, &[1; 5]);
    for ((nodes, rate, mode, _), row) in cells.iter().zip(&rows) {
        let structure = if mode.is_tree() { "tree" } else { "DAG-2" };
        grid.push(format!("{nodes} nodes, {rate:.0} %/min, {structure}"), row);
    }
    // `scenarios::table1` is size-major, then rate, with each tree cell right
    // before its DAG-2 twin. A cell without a repair has both shares at 0.
    let (tree_dag, dag_tree) = (
        [(0, 1), (2, 3), (4, 5), (6, 7)],
        [(1, 0), (3, 2), (5, 4), (7, 6)],
    );
    let by_rate = [(0, 2), (1, 3), (4, 6), (5, 7)];
    let repaired = |(l, v): (&String, &Vec<f64>)| (v[2] + v[3] > 0.0).then(|| (l.clone(), v[2]));
    let repaired: Vec<(String, f64)> = grid.rows().filter_map(repaired).collect();
    #[rustfmt::skip]
    let claims = vec![
        Claim::below("DAGs lose parents more often than trees, having more of them (parents lost per minute)", &grid.pairs(0, &tree_dag)),
        Claim::below("DAGs are orphaned less often than trees (orphans per minute)", &grid.pairs(1, &dag_tree)),
        Claim::at_most("more churn costs more parents (parents lost per minute, 3 against 5 %/min)", &grid.pairs(0, &by_rate)),
        Claim::floor("the majority of disconnections are repaired by the soft mechanism (% soft, cells with at least one repair)", 50.0, &repaired),
        Claim::floor("the stream survives the churn: at least 99 % of the nodes present throughout receive every message (completeness %)", 99.0, &grid.column(4)),
    ];
    (grid.render(), claims)
}

/// Mean first-to-last delivery span per protocol; the ideal value is the
/// injection window.
fn table2(scale: Scale) -> Outcome {
    const PROTOCOLS: [(&str, Proto); 4] = [
        ("SimpleTree", Proto::SimpleTree),
        ("Brisa", Proto::Brisa),
        ("SimpleGossip", Proto::SimpleGossip),
        ("TAG", Proto::Tag),
    ];
    let (nodes, _payloads, stream) = scenarios::comparison(scale);
    let base = comparison(nodes, Testbed::Cluster, stream);
    let rows = run_matrix(&PROTOCOLS, |_, &(_, proto)| {
        let r = run_protocol(proto, &base);
        let span = mean(r.nodes.iter().filter_map(|n| n.dissemination_latency_secs));
        (span, complete(&r))
    });

    let (messages, rate, ideal) = (stream.messages, stream.rate_per_sec, stream.duration());
    let ideal = ideal.as_secs_f64();
    let headers = "protocol|latency (seconds)|ideal|overhead vs SimpleTree %|completeness %";
    let mut grid = Grid::new(headers, &[3, 1, 0, 1]);
    for ((name, _), &(span, complete)) in PROTOCOLS.iter().zip(&rows) {
        let overhead = (span / rows[0].0 - 1.0) * 100.0;
        grid.push(name, &[span, ideal, overhead, complete]);
    }
    let shape = format!("nodes = {nodes}, messages = {messages} at {rate}/s");
    let close = [
        grid.pairs(0, &[(1, 0), (2, 1)]),
        grid.across(0, 1)[1..2].to_vec(),
    ]
    .concat();
    #[rustfmt::skip]
    let claims = vec![
        Claim::floor("all four protocols deliver the whole stream before the run ends, which comparing their spans presupposes (completeness %)", 100.0, &grid.column(3)),
        Claim::within("SimpleTree ≈ BRISA ≈ ideal, SimpleGossip only a bit slower (mean first-to-last delivery span, s, within 5 %; last cell: BRISA against the injection window)", 1.05, &close),
        Claim::below("TAG is the slowest, because it pulls (s)", &grid.pairs(0, &[(0, 3), (1, 3), (2, 3)])),
    ];
    (format!("{shape}\n\n{}", grid.render()), claims)
}

/// First-come, delay-aware, gerontocratic and load-balancing parent
/// selection on the PlanetLab latency model, where strategies differ.
fn strategies(scale: Scale) -> Outcome {
    let strategies = [
        ("first-come", ParentStrategy::FirstComeFirstPicked),
        ("delay-aware", ParentStrategy::DelayAware),
        ("gerontocratic", ParentStrategy::Gerontocratic),
        ("load-balancing", ParentStrategy::LoadBalancing),
    ];
    let cell_for = |&(_, strategy): &(&str, ParentStrategy)| BrisaScenario {
        nodes: scale.pick(150, 48),
        view_size: 4,
        strategy,
        testbed: Testbed::PlanetLab,
        stream: StreamSpec::short(scale.pick(200, 30), 1024),
        ..Default::default()
    };
    let cells: Vec<BrisaScenario> = strategies.iter().map(cell_for).collect();
    let results = run_matrix(&cells, |_, sc| run_brisa(sc));

    let headers = "strategy|mean routing delay (ms)|p90 routing delay (ms)|max depth|p90 degree|\
                   completeness %";
    let mut grid = Grid::new(headers, &[1, 1, 0, 1, 1]);
    for ((name, _), result) in strategies.iter().zip(&results) {
        let mut delays = routing_delays(result);
        let structure = result.structure();
        let max_depth = structure.depths().values().max().copied().unwrap_or(0) as f64;
        let degrees = PercentileSummary::from_samples(degree_shape(&structure).0);
        let delays = [delays.mean(), delays.quantile(0.9)];
        grid.push(
            name,
            &[
                delays[0],
                delays[1],
                max_depth,
                degrees.p90,
                complete(result),
            ],
        );
    }
    #[rustfmt::skip]
    let claims = vec![
        Claim::below("delay-aware selection gives the lowest mean routing delay of the four strategies (ms)", &grid.pairs(0, &[(1, 0), (1, 2), (1, 3)])),
        Claim::at_most("load-balancing spreads the load at least as evenly as any other strategy (p90 degree)", &grid.pairs(3, &[(3, 0), (3, 1), (3, 2)])),
        Claim::floor("every strategy delivers everything (completeness %)", 100.0, &grid.column(4)),
    ];
    (grid.render(), claims)
}

/// Target parent count 1 (a tree) to 4 under 5 % churn: duplicate traffic
/// against orphaning.
fn dag_parents(scale: Scale) -> Outcome {
    let churn = ChurnSpec {
        rate_percent: 5.0,
        interval: SimDuration::from_secs(scale.pick(60, 15)),
        duration: SimDuration::from_secs(scale.pick(600, 60)),
    };
    let cell_for = |&parents: &usize| BrisaScenario {
        nodes: scale.pick(128, 64),
        view_size: 8,
        mode: match parents {
            1 => StructureMode::Tree,
            parents => StructureMode::Dag { parents },
        },
        stream: StreamSpec::short(scale.pick(500, 60), 1024),
        churn: Some(churn),
        ..Default::default()
    };
    let cells: Vec<BrisaScenario> = [1, 2, 3, 4].iter().map(cell_for).collect();
    let results = run_matrix(&cells, |_, sc| run_brisa(sc));

    let headers = "parents|mean dup/msg|mean parents found|parents lost/min|orphans/min|\
                   % soft repairs|completeness %";
    let mut grid = Grid::new(headers, &[2, 2, 1, 1, 1, 1]);
    for (parents, result) in (1..).zip(&results) {
        let report = result.churn_report(&churn);
        let dup = mean(result.non_source().map(|n| n.report.duplicates_per_message));
        let found = mean(result.non_source().map(|n| n.report.parents.len() as f64));
        let (lost, orphans) = (report.parents_lost_per_min, report.orphans_per_min);
        let row = [dup, found, lost, orphans, report.soft_pct, complete(result)];
        grid.push(format!("{parents} parents"), &row);
    }
    #[rustfmt::skip]
    let claims = vec![
        Claim::increasing("more parents mean more duplicate traffic (mean duplicates per message, 1 to 4 parents)", &grid.column(0)),
        Claim::below("every DAG is orphaned less often than the tree under the same churn (orphans per minute)", &grid.pairs(3, &[(1, 0), (2, 0), (3, 0)])),
        Claim::floor("the stream survives the churn at every parent count (completeness %)", 99.0, &grid.column(5)),
    ];
    (grid.render(), claims)
}

/// HyParView expansion factor 1 against 2: the degree distribution of the
/// emerged tree and the completeness of the dissemination.
fn expansion(scale: Scale) -> Outcome {
    let factors = [(4usize, 1usize), (4, 2), (8, 1), (8, 2)];
    let cell_for = |&(view_size, expansion_factor): &(usize, usize)| BrisaScenario {
        nodes: scale.pick(512, 96),
        view_size,
        expansion_factor,
        stream: StreamSpec::short(scale.pick(100, 20), 1024),
        ..Default::default()
    };
    let cells: Vec<BrisaScenario> = factors.iter().map(cell_for).collect();
    let results = run_matrix(&cells, |_, sc| run_brisa(sc));

    let headers = "cell|p50 degree|p90 degree|max degree|view x factor|% leaves|completeness %";
    let mut grid = Grid::new(headers, &[1, 1, 0, 0, 0, 1]);
    for (&(view, factor), result) in factors.iter().zip(&results) {
        let (degrees, leaf_share, max_degree) = degree_shape(&result.structure());
        let summary = PercentileSummary::from_samples(degrees);
        let bound = (view * factor) as f64;
        let row = [
            summary.p50,
            summary.p90,
            max_degree,
            bound,
            leaf_share,
            complete(result),
        ];
        grid.push(format!("view {view}, factor {factor}"), &row);
    }
    #[rustfmt::skip]
    let claims = vec![
        Claim::at_most("the expansion factor bounds the degree: no node serves more children than view × factor", &grid.across(2, 3)),
        Claim::floor("dissemination is complete under either factor (completeness %)", 100.0, &grid.column(5)),
    ];
    (grid.render(), claims)
}

/// Path embedding, depth labels and Bloom filters compared on the metadata a
/// stream message must carry and on the exactness of the check (analytic:
/// the scale does not matter).
fn cycle(_scale: Scale) -> Outcome {
    const PROBES: u32 = 100_000;
    let headers = "system|tree height (hops)|path embedding (bits)|1 000 x that|\
                   depth label (bits)|bloom 1e-6 (bits)|bloom false positives per 100 000|allowed";
    let mut grid = Grid::new(headers, &[0; 7]);
    let filter_bits = BloomMembership::with_false_positive_rate(1_000_000, 1e-6).num_bits() as f64;
    for (n, view) in [(1_000, 8), (100_000, 8), (1_000_000, 8), (1_000_000, 4)] {
        let height = (f64::from(n).ln() / f64::from(view).ln()).ceil() as u32;
        let path = (CycleGuard::Path((0..height).map(NodeId).collect()).wire_size() * 8) as f64;
        let depth = (CycleGuard::Depth(height).wire_size() * 8) as f64;
        // A filter sized for exactly the path it holds, probed with
        // identifiers that are not on it.
        let mut bloom = BloomMembership::with_false_positive_rate(height as usize, 1e-6);
        (0..height).for_each(|i| bloom.insert(NodeId(i)));
        let absent = (height..height + PROBES).filter(|&i| bloom.contains(NodeId(i)));
        let sizes = [f64::from(height), path, 1_000.0 * path, depth];
        let filter = [filter_bits, absent.count() as f64, 2.0];
        grid.push(
            format!("{n} nodes, view {view}"),
            &[&sizes[..], &filter].concat(),
        );
    }
    let paper_bits = [cell("bits", filter_bits, 28_755_176.0)];
    #[rustfmt::skip]
    let claims = vec![
        Claim::within("a Bloom filter over a million nodes at 1e-6 needs the paper's 28 755 176 bits", 1.05, &paper_bits),
        Claim::below("path embedding is orders of magnitude smaller than that filter (1 000 × path bits against filter bits)", &grid.across(2, 4)),
        Claim::at_most("a filter sized for its path at 1e-6 meets that rate: at most 2 of 100 000 absent identifiers admitted", &grid.across(5, 6)),
    ];
    let note = "path embedding is exact (zero false positives/negatives); depth labels are\n\
                constant-size but approximate (false negatives only); Bloom filters trade\n\
                enormous metadata for a configurable false-positive rate.";
    (format!("{}\n{note}", grid.render()), claims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_is_strict_and_shows_where_it_breaks() {
        let cells = |values: &[f64]| -> Vec<(String, f64)> {
            values.iter().map(|&v| (String::new(), v)).collect()
        };
        let up = Claim::increasing("t", &cells(&[5.21, 9.1, 12.9, 16.68]));
        assert!(up.holds);
        assert_eq!(up.measured, "5.21 < 9.10 < 12.9 < 16.7");
        let flat = Claim::increasing("t", &cells(&[1.0, 1.0, 2.0]));
        assert!(!flat.holds, "equal neighbours are not increasing");
        assert_eq!(flat.measured, "1 ≥ 1 < 2");
        assert!(!Claim::increasing("t", &cells(&[3.0, 2.0])).holds);
        assert!(Claim::increasing("t", &cells(&[3.0])).holds);
    }

    #[test]
    fn within_factor_is_symmetric_and_inclusive() {
        assert!(Claim::within("t", 2.0, &[cell("c", 1.0, 2.0)]).holds);
        assert!(Claim::within("t", 2.0, &[cell("c", 2.0, 1.0)]).holds);
        assert!(!Claim::within("t", 2.0, &[cell("c", 1.0, 2.1)]).holds);
        assert!(!Claim::within("t", 2.0, &[cell("c", 2.1, 1.0)]).holds);
        let one_bad = Claim::within("t", 1.5, &[cell("x", 1.0, 1.2), cell("y", 1.0, 1.6)]);
        assert!(!one_bad.holds, "every cell must be inside the factor");
        assert_eq!(
            one_bad.measured,
            "x: 1 vs 1.20 (×0.83); y: 1 vs 1.60 (×0.62)"
        );
    }

    #[test]
    fn a_below_b_must_hold_in_every_cell() {
        let all = Claim::below("t", &[cell("x", 0.0, 1.0), cell("y", 4.0, 7.0)]);
        assert!(all.holds);
        assert_eq!(all.measured, "x: 0 < 1; y: 4 < 7");
        let one_tied = Claim::below("t", &[cell("x", 0.0, 1.0), cell("y", 7.0, 7.0)]);
        assert!(!one_tied.holds, "below is strict");
        assert_eq!(one_tied.measured, "x: 0 < 1; y: 7 ≥ 7");
        assert!(Claim::at_most("t", &[cell("y", 7.0, 7.0)]).holds);
        let over = Claim::at_most("t", &[cell("y", 72.7, 66.1)]);
        assert!(!over.holds);
        assert_eq!(over.measured, "y: 72.7 > 66.1");
    }

    #[test]
    fn floor_names_the_lowest_cell() {
        let cells = vec![("a".to_string(), 100.0), ("b".to_string(), 41.6)];
        let c = Claim::floor("t", 99.0, &cells);
        assert!(!c.holds);
        assert_eq!(c.measured, "lowest 41.6 (b); 1 of 2 cells under 99");
        assert!(
            Claim::floor("t", 41.6, &cells).holds,
            "the floor is inclusive"
        );
    }

    #[test]
    fn ids_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.id != e.id),
                "{}",
                e.id
            );
        }
    }
}
