//! `--aa <n>`: the benchmark measured against itself. Two sets of `n`
//! end-to-end runs per workload of this same binary, the sets alternating
//! run by run, then each metric's two set medians side by side with their
//! relative difference and the bound. Run `i` of both sets takes seed `i`,
//! so everything the simulator counts must agree exactly between the sets.

use crate::report::{contract_section, json_field, json_metric, END_TO_END, WORKLOADS};
use crate::stats::median;
use std::process::Command;

/// The root contract, compiled in: `--aa` checks against the bounds the
/// driver uses, not a copy of them.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// What one child run printed that the comparison needs.
struct RunOut {
    json: String,
    /// The `fingerprint …` line of a simulator run: every exact count.
    fingerprint: Option<String>,
}

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<RunOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() || json_field(&json, "correct").as_deref() != Some("true") {
        return Err(format!(
            "{workload} seed {seed} failed ({}):\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(RunOut {
        fingerprint: stdout
            .lines()
            .find(|l| l.starts_with("fingerprint "))
            .map(str::to_string),
        json,
    })
}

/// Runs the A/A comparison; the process exit code.
pub fn run(runs: usize, seconds: u64) -> i32 {
    let bounds = contract_section(CONTRACT, "end_to_end");
    let mut bad = 0;
    for workload in WORKLOADS {
        let mut sets: [Vec<RunOut>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for set in &mut sets {
                match one_run(workload, i as u64 + 1, seconds) {
                    Ok(out) => set.push(out),
                    Err(e) => {
                        eprintln!("{e}");
                        return 1;
                    }
                }
            }
        }
        println!("{workload}: two sets of {runs} runs, alternating");
        println!(
            "  {:<26} {:>14} {:>14} {:>9} {:>7}",
            "metric", "median A", "median B", "diff", "bound"
        );
        for (name, _) in END_TO_END {
            let column = |set: &Vec<RunOut>| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| json_metric(&r.json, name))
                    .collect()
            };
            let (a, b) = (median(&column(&sets[0])), median(&column(&sets[1])));
            let diff = (b - a).abs() / a.abs();
            let bound = bounds
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.bound)
                .unwrap_or(f64::NAN);
            let ok = diff <= bound;
            bad += (!ok) as i32;
            println!(
                "  {name:<26} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
        for (a, b) in sets[0].iter().zip(&sets[1]) {
            let exact = |r: &RunOut| {
                (
                    r.fingerprint.clone(),
                    json_field(&r.json, "attempted"),
                    json_field(&r.json, "failed"),
                )
            };
            if workload.starts_with("sim-") && exact(a) != exact(b) {
                bad += 1;
                println!(
                    "  COUNTS DIFFER at one seed:\n    {:?}\n    {:?}",
                    exact(a),
                    exact(b)
                );
            }
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "A/A passed: every set median within its bound, every simulator count identical"
        } else {
            "A/A FAILED"
        }
    );
    (bad != 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_in_contract_bounds_every_end_to_end_metric() {
        let bounds = contract_section(CONTRACT, "end_to_end");
        assert_eq!(bounds.len(), END_TO_END.len());
        let bound_of = |name: &str| {
            let m = bounds.iter().find(|m| m.name == name).expect(name);
            m.bound.expect("end-to-end metrics carry a bound")
        };
        for (name, _) in END_TO_END {
            assert!(bound_of(name) > 0.0 && bound_of(name) <= 0.25);
            assert!(
                bound_of(name) <= bound_of("setup_s"),
                "setup_s has the largest bound"
            );
        }
    }
}
