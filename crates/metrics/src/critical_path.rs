//! Contention-free execution-time bound (Fig. 9).
//!
//! "By looking at dependencies between kernels and measuring their
//! execution time with serial scheduling so that each kernel has full
//! access to the GPU resources, we estimate the resource contention [...]
//! introduced by space-sharing." The bound is the longest dependency path
//! through the benchmark's DAG when every node takes its *solo* duration
//! — i.e. the finish time on a hypothetical machine with infinite
//! replicated resources but the same per-task speed.

/// One node of a dependency graph: solo duration plus indices of the
/// nodes it depends on (which must be smaller — topological order).
#[derive(Debug, Clone)]
pub struct PathNode {
    /// Contention-free duration of the task, seconds.
    pub duration: f64,
    /// Indices of prerequisite nodes.
    pub deps: Vec<usize>,
}

/// Longest-path finish time over a topologically-ordered DAG.
///
/// # Panics
/// Panics if a dependency index is not smaller than the node's own index.
pub fn critical_path(nodes: &[PathNode]) -> f64 {
    let mut finish = vec![0.0f64; nodes.len()];
    let mut overall: f64 = 0.0;
    for (i, n) in nodes.iter().enumerate() {
        let mut start: f64 = 0.0;
        for &d in &n.deps {
            assert!(d < i, "critical_path requires topological order");
            start = start.max(finish[d]);
        }
        finish[i] = start + n.duration;
        overall = overall.max(finish[i]);
    }
    overall
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(duration: f64, deps: &[usize]) -> PathNode {
        PathNode {
            duration,
            deps: deps.to_vec(),
        }
    }

    #[test]
    fn empty_graph_is_zero() {
        assert_eq!(critical_path(&[]), 0.0);
    }

    #[test]
    fn chain_sums() {
        let g = [n(1.0, &[]), n(2.0, &[0]), n(3.0, &[1])];
        assert_eq!(critical_path(&g), 6.0);
    }

    #[test]
    fn parallel_branches_take_the_max() {
        // Diamond: 0 → {1 (5s), 2 (1s)} → 3.
        let g = [n(1.0, &[]), n(5.0, &[0]), n(1.0, &[0]), n(1.0, &[1, 2])];
        assert_eq!(critical_path(&g), 7.0);
    }

    #[test]
    fn independent_roots_overlap_fully() {
        let g = [n(4.0, &[]), n(2.0, &[]), n(3.0, &[])];
        assert_eq!(critical_path(&g), 4.0);
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_dependency_panics() {
        let g = [n(1.0, &[1]), n(1.0, &[])];
        critical_path(&g);
    }
}
