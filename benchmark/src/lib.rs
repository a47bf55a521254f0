//! # brisa-benchmark — the repository's one benchmark
//!
//! Four fixed-work workloads, six end-to-end metrics, a probe at the
//! protocol seam for the per-layer numbers, and a speed reference that takes
//! the shared host's moods out of the simulator's host-time readings. `README.md` beside this crate
//! is the metric dictionary; the root `BENCHMARK.json` is the contract.
//!
//! Every layer is measured from outside, through public functions only —
//! `Runner`, `IntoRunSpec`, `BrisaScenario`, `BrisaStackConfig`,
//! `DisseminationProtocol`, `Protocol`, `Context`, `Network`,
//! `ShardedNetwork`, `Cluster`, `ClusterConfig`, `RuntimeConfig`,
//! `WireCodec`, `Telemetry`, `SchedulerKind::default()` — never a named
//! scheduler variant, a deprecated shim or a private module.

pub mod aa;
pub mod layers;
pub mod live;
pub mod null;
pub mod probe;
pub mod procfs;
pub mod reference;
pub mod report;
pub mod sim;
pub mod spans;
pub mod stats;

use report::{Report, WORKLOADS};
use std::path::PathBuf;

/// Environment switches that change what a run measures. A number must
/// never silently be for another configuration, so the benchmark refuses
/// to start while one is set (`SchedulerKind::default()` reads the first).
pub const REFUSED_ENV: [&str; 3] = ["BRISA_SCHEDULER", "BRISA_SCALE", "BRISA_THREADS"];

/// Where the traced run writes its span files: `out/` beside this crate's
/// manifest, inside the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Fewest and most repetitions (or launches) of an end-to-end run; between
/// them the `--seconds` budget decides.
pub const MIN_REPS: usize = 8;
pub const MAX_REPS: usize = 14;

/// Repeats `one` — always the same fixed work — within `args`' budget:
/// another repetition is started only while it is likely to end inside the
/// budget, never fewer than [`MIN_REPS`] and never more than [`MAX_REPS`]
/// (smoke: exactly `smoke_reps`).
pub fn repeat_within_budget<T>(
    args: &RunArgs,
    smoke_reps: usize,
    mut one: impl FnMut() -> T,
) -> Vec<T> {
    let (min, max) = if args.smoke {
        (smoke_reps, smoke_reps)
    } else {
        (MIN_REPS, MAX_REPS)
    };
    let t0 = std::time::Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min
        || (reps.len() < max
            && t0.elapsed().as_secs_f64() * (1.0 + 1.0 / reps.len() as f64) <= args.seconds as f64)
    {
        reps.push(one());
    }
    println!(
        "{} repetitions in {:.1} s",
        reps.len(),
        t0.elapsed().as_secs_f64()
    );
    reps
}

/// One run's arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    /// Measuring budget: repetitions of the fixed work are started while
    /// one more is likely to end inside it (never fewer than eight).
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Run(RunArgs),
    /// `--aa <n>`: two alternating sets of `n` runs per workload.
    Aa {
        runs: usize,
        seconds: u64,
    },
}

pub const USAGE: &str =
    "usage: brisa-benchmark --workload <sim-stream|sim-scale|sim-churn|live-tcp> \
    --seed <u64> [--seconds <1..60>] [--trace <0|1>] [--smoke]\n       \
    brisa-benchmark --aa <runs per set> [--seconds <1..60>]";

/// Parses the arguments after the program name.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30u64;
    let mut traced = false;
    let mut smoke = false;
    let mut aa = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == name.as_str())
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let v = value("a number")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                seconds = v
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..60"));
                }
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: 0 or 1")),
                };
            }
            "--aa" => {
                let v = value("a run count")?;
                let n = v.parse::<usize>().map_err(|e| format!("--aa {v}: {e}"))?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".to_string());
                }
                aa = Some(n);
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(runs) = aa {
        return Ok(Command::Aa { runs, seconds });
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds,
        traced,
        smoke,
    }))
}

/// The first refused environment switch that is set, if any.
pub fn refused_env(is_set: impl Fn(&str) -> bool) -> Option<&'static str> {
    REFUSED_ENV.into_iter().find(|name| is_set(name))
}

/// Runs one workload and returns its report (nothing printed after the
/// header and the workload's own progress lines).
pub fn run(args: &RunArgs) -> Report {
    println!(
        "brisa-benchmark {} seed {} trace {}{}: scheduler {:?} (SchedulerKind::default()), nproc {}, \
         simulator sequential, reactor workers 1, generator threads 1, budget {} s, repetitions \
         {MIN_REPS}..{MAX_REPS} (traced: 3 traced + 5 plain; live 2 + 3); simulator host time in \
         reference seconds (one slice of the speed reference every {} handler calls, nominal {} us)",
        args.workload,
        args.seed,
        args.traced as u8,
        if args.smoke { " smoke" } else { "" },
        brisa_simnet::SchedulerKind::default(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seconds,
        reference::EVERY,
        reference::NOMINAL_SLICE_NS / 1000.0,
    );
    let mut report = Report::new(args.workload, args.traced);
    if args.workload == "live-tcp" {
        live::run(args, &mut report);
    } else {
        sim::run(args, &mut report);
    }
    report
}

/// The whole command line: returns the process exit code.
pub fn main_with(args: &[String]) -> i32 {
    if let Some(name) = refused_env(|n| std::env::var_os(n).is_some()) {
        eprintln!(
            "{name} is set: it selects another configuration than the one this benchmark's \
             numbers are for. Unset it."
        );
        return 2;
    }
    match parse_args(args) {
        Err(e) => {
            eprintln!("{e}");
            2
        }
        Ok(Command::Aa { runs, seconds }) => aa::run(runs, seconds),
        Ok(Command::Run(args)) => {
            let report = run(&args);
            print!("{}", report.render());
            println!("{}", report.json_line());
            // The verdict travels in the line's `correct` field; a run
            // that got as far as printing its result exits 0.
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cmd = parse_args(&strings(&[
            "--workload",
            "sim-churn",
            "--seed",
            "17",
            "--seconds",
            "24",
            "--trace",
            "1",
        ]));
        assert_eq!(
            cmd,
            Ok(Command::Run(RunArgs {
                workload: "sim-churn",
                seed: 17,
                seconds: 24,
                traced: true,
                smoke: false,
            }))
        );
        assert_eq!(
            parse_args(&strings(&["--aa", "5"])),
            Ok(Command::Aa {
                runs: 5,
                seconds: 30
            })
        );
        assert!(parse_args(&strings(&["--workload", "sim-fanout", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "live-tcp"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "live-tcp",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "live-tcp",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn the_budget_decides_the_count_between_the_floor_and_the_ceiling() {
        let args = |seconds, smoke| RunArgs {
            workload: "sim-scale",
            seed: 1,
            seconds,
            traced: false,
            smoke,
        };
        // Instant repetitions: the ceiling stops them.
        assert_eq!(
            repeat_within_budget(&args(1, false), 3, || ()).len(),
            MAX_REPS
        );
        // Repetitions that overrun the budget at once: the floor holds.
        let slow = || std::thread::sleep(std::time::Duration::from_millis(130));
        assert_eq!(
            repeat_within_budget(&args(1, false), 3, slow).len(),
            MIN_REPS
        );
        assert_eq!(repeat_within_budget(&args(60, true), 3, || ()).len(), 3);
    }

    #[test]
    fn any_of_the_three_switches_refuses_the_run() {
        assert_eq!(refused_env(|_| false), None);
        assert_eq!(refused_env(|n| n == "BRISA_THREADS"), Some("BRISA_THREADS"));
        assert_eq!(refused_env(|n| n != "BRISA_SCHEDULER"), Some("BRISA_SCALE"));
    }
}
