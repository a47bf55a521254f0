//! Parallel multi-run driver.
//!
//! Sweep experiments (Figure 2's view sizes, Table I's size × churn ×
//! structure grid, the ablations) run many *independent* simulations. Each
//! cell is deterministic given its scenario (and seed), so the sweep can fan
//! out across OS threads without touching the results: [`run_matrix`]
//! produces **bit-identical output to a sequential loop** for the same
//! cells, in cell order — the only thing that changes is wall-clock time.
//!
//! Cells are handed to workers through an atomic cursor (work stealing), so
//! heterogeneous cell durations (512-node cells next to 128-node cells)
//! still keep every core busy.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Derives the deterministic seed of cell `index` from a base seed
/// (SplitMix64 of the pair). Use this when building matrix cells so that
/// every cell gets an independent, reproducible random stream no matter
/// which thread executes it.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    brisa_simnet::seed::split_mix64(base, index)
}

/// Worker count: the `BRISA_THREADS` environment variable if set, otherwise
/// the machine's available parallelism.
pub fn matrix_threads() -> usize {
    parse_threads(std::env::var("BRISA_THREADS").ok().as_deref())
}

/// The worker count a `BRISA_THREADS` value names (at least 1); unset is
/// the available parallelism. Panics on anything but a number — the
/// parallel ≡ sequential check relies on `BRISA_THREADS=1` being honoured.
fn parse_threads(value: Option<&str>) -> usize {
    let Some(value) = value else {
        return std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
    };
    match value.trim().parse::<usize>() {
        Ok(n) => n.max(1),
        Err(_) => panic!("BRISA_THREADS={value:?}: expected a thread count"),
    }
}

/// Runs `run` over every cell, fanning out across up to
/// [`matrix_threads`] OS threads, and returns the results **in cell
/// order**. Each invocation receives the cell index alongside the cell, so
/// cells can derive per-cell seeds with [`derive_seed`].
///
/// Because every cell is an independent deterministic simulation, the
/// result is identical to [`run_matrix_sequential`] for the same input
/// (asserted by the engine's determinism tests).
pub fn run_matrix<S, R, F>(cells: &[S], run: F) -> Vec<R>
where
    S: Sync,
    R: Send,
    F: Fn(usize, &S) -> R + Sync,
{
    let threads = matrix_threads().min(cells.len());
    if threads <= 1 {
        return run_matrix_sequential(cells, run);
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let result = run(i, &cells[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell index below len() is executed")
        })
        .collect()
}

/// The sequential reference implementation of [`run_matrix`]: same
/// signature, same results, one cell at a time on the calling thread.
pub fn run_matrix_sequential<S, R, F>(cells: &[S], run: F) -> Vec<R>
where
    F: Fn(usize, &S) -> R,
{
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| run(i, cell))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential_and_preserves_order() {
        let cells: Vec<u64> = (0..64).collect();
        let run = |i: usize, c: &u64| derive_seed(*c, i as u64);
        let par = run_matrix(&cells, run);
        let seq = run_matrix_sequential(&cells, run);
        assert_eq!(par, seq);
        assert_eq!(par.len(), 64);
    }

    #[test]
    fn empty_and_single_cell_matrices() {
        let none: Vec<u32> = Vec::new();
        assert!(run_matrix(&none, |_, c| *c).is_empty());
        assert_eq!(run_matrix(&[7u32], |_, c| *c * 2), vec![14]);
    }

    #[test]
    fn derived_seeds_differ_per_cell() {
        let s: Vec<u64> = (0..100).map(|i| derive_seed(0xB215A, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len(), "cell seeds must not collide");
    }

    #[test]
    fn thread_count_parses_or_panics_with_the_value() {
        assert!(parse_threads(None) >= 1);
        assert_eq!(parse_threads(Some("1")), 1);
        assert_eq!(parse_threads(Some(" 8 ")), 8);
        assert_eq!(parse_threads(Some("0")), 1);
        for garbage in ["abc", "", "-1", "1.5"] {
            let err = std::panic::catch_unwind(|| parse_threads(Some(garbage)))
                .expect_err("garbage must not mean all cores");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("{garbage:?}")), "{msg}");
        }
    }

    #[test]
    fn thread_count_env_override() {
        // Cannot mutate the environment safely in tests; just sanity-check
        // the default path.
        assert!(matrix_threads() >= 1);
    }
}
