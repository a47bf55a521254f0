//! The whole matrix at smoke size (200-node simulations, a 16-node TCP
//! cluster): every workload in both modes must pass its correctness gate
//! and emit, with its unit, every metric the root `BENCHMARK.json` names.

use brisa_benchmark::report::{contract_section, PER_LAYER, WORKLOADS};
use brisa_benchmark::{run, RunArgs};
use std::time::Instant;

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

#[test]
fn every_contract_metric_is_emitted_with_its_unit_by_the_workloads_that_claim_it() {
    let t0 = Instant::now();
    for workload in WORKLOADS {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&RunArgs {
                workload,
                seed: 7,
                seconds: 1,
                traced,
                smoke: true,
            });
            assert!(report.correct, "{workload} trace {}", traced as u8);
            assert!(report.attempted >= 1 && report.failed <= report.attempted);
            let emitted = report.finished();
            let contract = contract_section(CONTRACT, section);
            assert!(!contract.is_empty());
            assert_eq!(emitted.len(), contract.len(), "{workload} {section}");
            for m in &contract {
                let (e, ran) = emitted
                    .iter()
                    .find(|(e, _)| e.name == m.name)
                    .unwrap_or_else(|| panic!("{workload} does not emit {}", m.name));
                assert_eq!(e.unit, m.unit, "{}", m.name);
                let claimed = !traced
                    || PER_LAYER
                        .iter()
                        .any(|(n, _, scope)| *n == m.name && scope.covers(workload));
                assert_eq!(*ran, claimed, "{workload} and {}", m.name);
            }
            // The closing line carries the same names.
            let line = report.json_line();
            for m in &contract {
                assert!(
                    brisa_benchmark::report::json_metric(&line, &m.name).is_some(),
                    "{} missing from the closing line",
                    m.name
                );
            }
            if traced {
                let trace = brisa_benchmark::out_dir().join(format!("trace-{workload}.jsonl"));
                assert!(trace.metadata().map(|m| m.len() > 0).unwrap_or(false));
            }
        }
    }
    let took = t0.elapsed().as_secs_f64();
    assert!(took < 15.0, "the smoke matrix took {took:.1} s");
}
