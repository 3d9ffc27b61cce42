//! End-to-end integration tests for the Section 3 example transformations,
//! exercised through the facade crate exactly as a downstream user would.

use kbt::core::examples::{
    max_clique, monochromatic_triangle, parity, transitive_closure, transitive_reduction,
};
use kbt::prelude::*;

#[test]
fn example_1_transitive_closure_on_a_cycle_with_a_tail() {
    let t = Transformer::new();
    let edges = vec![(1, 2), (2, 3), (3, 1), (3, 4)];
    let closure = transitive_closure::transitive_closure(&t, &edges).unwrap();
    assert_eq!(
        closure,
        transitive_closure::baseline_transitive_closure(&edges)
    );
    // every vertex on the cycle reaches every other vertex and the tail
    assert!(closure.contains(&kbt::data::tuple![2, 1]));
    assert!(closure.contains(&kbt::data::tuple![1, 4]));
    assert!(!closure.contains(&kbt::data::tuple![4, 1]));
    for n in [4, 5] {
        let chain: Vec<(u32, u32)> = (1..n).map(|i| (i, i + 1)).collect();
        assert_eq!(
            transitive_closure::transitive_closure(&t, &chain).unwrap(),
            transitive_closure::baseline_transitive_closure(&chain)
        );
    }
}

#[test]
fn example_2_and_3_reductions_of_a_diamond() {
    let t = Transformer::new();
    // diamond with a redundant long edge 1→4
    let edges = vec![(1, 2), (2, 4), (1, 3), (3, 4), (1, 4)];
    let reductions = transitive_reduction::transitive_reductions(&t, &edges).unwrap();
    let baseline = transitive_reduction::baseline_transitive_reductions(&edges);
    assert_eq!(reductions.len(), baseline.len());
    // the redundant edge is dropped from every reduction
    for r in &reductions {
        assert!(!r.contains(&kbt::data::tuple![1, 4]));
    }
    assert!(transitive_reduction::edges_in_every_reduction(&t, &edges, &[(1, 2), (3, 4)]).unwrap());
    assert!(!transitive_reduction::edges_in_every_reduction(&t, &edges, &[(1, 4)]).unwrap());
}

#[test]
fn example_5_partition_and_example_6_parity_agree_with_baselines() {
    let t = Transformer::new();
    let triangle = vec![(1, 2), (2, 3), (1, 3)];
    assert!(monochromatic_triangle::baseline_partition_exists(&triangle));
    assert!(
        monochromatic_triangle::has_monochromatic_triangle_free_partition(&t, &triangle).unwrap()
    );

    assert!(parity::is_even(&t, &[3, 9]).unwrap());
    assert!(!parity::is_even(&t, &[3, 9, 27]).unwrap());
}

#[test]
fn example_7_maximum_clique_of_a_square_with_one_diagonal() {
    let t = Transformer::new();
    let edges = vec![(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)];
    assert_eq!(max_clique::baseline_max_clique(&edges), 3);
    assert!(max_clique::has_clique_of_size(&t, &edges, 3).unwrap());
    // a triangle alone is its own 3-clique
    assert!(max_clique::has_clique_of_size(&t, &[(1, 2), (2, 3), (1, 3)], 3).unwrap());
    // (the k = 4 refutation on this graph enumerates every minimal repair of
    // the inputs and is exercised, on a smaller graph, in the crate tests)
}
