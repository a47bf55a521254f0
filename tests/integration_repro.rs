//! `REPRO.md` is `repro` at quick scale, byte for byte: the simulator is
//! deterministic and `run_matrix` is parallel ≡ sequential, so the committed
//! scorecard is the gate on every measured value and verdict in it.

use brisa_bench::repro::{render, EXPERIMENTS};
use brisa_workloads::Scale;
use std::collections::BTreeSet;

#[test]
fn repro_md_is_the_quick_scale_scorecard() {
    let fresh = render(&[], Scale::Quick).expect("no id given, none unknown");
    let committed = include_str!("../REPRO.md");
    if fresh != committed {
        let line = fresh
            .lines()
            .zip(committed.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.lines().count().min(committed.lines().count()));
        panic!(
            "REPRO.md is stale from line {}:\n  committed: {}\n  fresh:     {}\n\
             A measured value or a verdict changed. If that is intended, regenerate with\n  \
             cargo run --release -p brisa-bench --bin repro > REPRO.md\n\
             and review the diff: a row that flips is a finding (DESIGN.md, \"Reproduction findings\").",
            line + 1,
            committed.lines().nth(line).unwrap_or("<end of file>"),
            fresh.lines().nth(line).unwrap_or("<end of output>"),
        );
    }
    for e in EXPERIMENTS {
        assert!(
            fresh.contains(&format!("| `{}` | ", e.id)),
            "experiment {} carries no claim",
            e.id
        );
    }
}

#[test]
fn experiment_ids_are_designs_experiment_index() {
    let design = include_str!("../DESIGN.md");
    let index = design
        .split("\n## Experiment index\n")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has an \"Experiment index\" section");
    let indexed: BTreeSet<&str> = index
        .split("`repro ")
        .skip(1)
        .filter_map(|rest| rest.split('`').next())
        .collect();
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(
        ids, indexed,
        "repro's table and DESIGN.md's experiment index name different experiments"
    );
}

#[test]
fn an_unknown_id_is_an_error_naming_the_known_ones() {
    let err = render(&["fig99".to_string()], Scale::Quick).expect_err("fig99 is not an experiment");
    assert!(err.contains("\"fig99\"") && err.contains("fig02"), "{err}");
    // A known id selects just that experiment.
    let one = render(&["ablation_cycle_prevention".to_string()], Scale::Quick).unwrap();
    assert!(one.contains("| `ablation_cycle_prevention` | ") && !one.contains("| `fig02` | "));
}
