//! Integration tests for the Section 5 expressiveness results: the ESO → ST1
//! encoding of Theorem 5.1, the ST → SO translation of Theorem 5.2, and the
//! fixpoint-query expressibility through the Datalog fast path.

use kbt::core::{EvalOptions, Strategy, Transformer};
use kbt::datalog::program_from_sentence;
use kbt::engine::evaluate;
use kbt::prelude::*;
use kbt::reductions::eso::{two_colourable_side_query, SecondOrderBaseline};
use kbt::reductions::so::translate_block;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

#[test]
fn theorem_5_1_eso_query_through_the_st1_encoding() {
    let query = two_colourable_side_query(r(1), r(7), r(8));
    let t = Transformer::new();
    // a 4-cycle is bipartite; a triangle is not
    for (edges, expect_all) in [
        (vec![(1u32, 2u32), (2, 3), (3, 4), (4, 1)], true),
        (vec![(1, 2), (2, 3), (1, 3)], false),
    ] {
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        for &(x, y) in &edges {
            b = b.fact(r(1), [x, y]).fact(r(1), [y, x]);
        }
        let db = b.build().unwrap();
        let expected = SecondOrderBaseline::evaluate(&query, &db);
        let got = query.evaluate_via_st1(&t, &db).unwrap();
        assert_eq!(expected, got, "ESO/ST1 mismatch on {edges:?}");
        assert_eq!(got.is_empty(), !expect_all);
    }
}

#[test]
fn theorem_5_2_translation_agrees_on_random_small_databases() {
    use kbt::logic::builder::*;
    // φ: R2 must contain the symmetric closure of R1 (both relations stored).
    let phi = Sentence::new(forall(
        [1, 2],
        implies(atom(1, [var(1), var(2)]), atom(2, [var(2), var(1)])),
    ))
    .unwrap();
    let t = Transformer::new();
    for edges in [
        vec![(1u32, 2u32)],
        vec![(1, 2), (2, 1)],
        vec![(1, 1), (1, 2)],
    ] {
        let mut b = DatabaseBuilder::new().relation(r(1), 2).relation(r(2), 2);
        for &(x, y) in &edges {
            b = b.fact(r(1), [x, y]);
        }
        let db = b.build().unwrap();
        let query = translate_block(phi.clone(), &db, r(2));
        assert_eq!(
            query.evaluate_via_transformation(&t, &db).unwrap(),
            query.evaluate_brute_force(&db),
            "SO translation mismatch on {edges:?}"
        );
    }
}

#[test]
fn fixpoint_queries_are_expressible_and_match_the_datalog_substrate() {
    // Inserting the Horn form of the transitive-closure sentence equals
    // running the Datalog engine directly (the fixpoint remark of Section 1).
    let phi = kbt::core::examples::transitive_closure::sentence_horn();
    let program = program_from_sentence(&phi).unwrap();
    let mut b = DatabaseBuilder::new().relation(r(1), 2);
    for i in 1..7u32 {
        b = b.fact(r(1), [i, i + 1]);
    }
    let db = b.build().unwrap();

    let (fixpoint, _) = evaluate(&program, &db, 0, None, None).unwrap();
    let t = Transformer::with_options(EvalOptions::with_strategy(Strategy::Datalog));
    let via_update = t.insert(&phi, &Knowledgebase::singleton(db)).unwrap().kb;
    assert_eq!(via_update.len(), 1);
    assert_eq!(
        via_update.as_singleton().unwrap().relation(r(2)),
        fixpoint.relation(r(2))
    );
    assert_eq!(fixpoint.relation(r(2)).unwrap().len(), 21);
}

#[test]
fn st_shaped_expressions_are_recognised() {
    let query = two_colourable_side_query(r(1), r(7), r(8));
    assert!(query.st1_transform().is_st_shape());
    let not_st = Transform::Glb.then(Transform::Lub);
    assert!(!not_st.is_st_shape());
}
