//! Shared test support: the full tape-executing engine grid, used by the
//! differential, randomized-fuzz and degenerate suites so a new engine
//! dimension (width, thread count, backend) is added in exactly one
//! place.

use bist_sim::{ScalarBackend, ShardedBackend, SimBackend, WordWidth};

/// Every tape-executing engine: the scalar tape engine and the packed
/// engine over all widths × the given thread counts (one thread at 64
/// lanes is the default `packed64` engine).
pub fn engine_grid(threads: &[usize]) -> Vec<Box<dyn SimBackend>> {
    let mut grid: Vec<Box<dyn SimBackend>> = vec![Box::new(ScalarBackend)];
    for width in [WordWidth::W64, WordWidth::W256, WordWidth::W512] {
        for &t in threads {
            grid.push(Box::new(ShardedBackend::new(t, width).expect("threads >= 1")));
        }
    }
    grid
}
