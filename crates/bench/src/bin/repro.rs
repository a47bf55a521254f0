//! `repro [<experiment>…]`: the reproduction scorecard on stdout (no
//! argument = every experiment; see [`brisa_bench::repro`]). Exits non-zero
//! only for an unknown experiment id.

use brisa_bench::{repro, Scale};

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    match repro::render(&ids, Scale::from_env()) {
        Ok(scorecard) => print!("{scorecard}"),
        Err(unknown) => {
            eprintln!("repro: {unknown}");
            std::process::exit(2);
        }
    }
}
