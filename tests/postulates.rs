//! Property-based verification of Theorem 2.1: the insertion operator
//! satisfies the Katsuno–Mendelzon update postulates on randomly generated
//! knowledgebases and sentences.

use kbt::core::postulates;
use kbt::core::{EvalOptions, Transformer};
use kbt::data::{Database, DatabaseBuilder, Knowledgebase, RelId};
use kbt::logic::Sentence;
use proptest::prelude::*;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// A small random database over a unary relation R1 and a binary relation R2.
fn arb_database() -> impl proptest::strategy::Strategy<Value = Database> {
    (
        proptest::collection::btree_set(0u32..3, 0..3),
        proptest::collection::btree_set((0u32..3, 0u32..3), 0..3),
    )
        .prop_map(|(unary, binary)| {
            let mut b = DatabaseBuilder::new().relation(r(1), 1).relation(r(2), 2);
            for x in unary {
                b = b.fact(r(1), [x]);
            }
            for (x, y) in binary {
                b = b.fact(r(2), [x, y]);
            }
            b.build().expect("well-formed")
        })
}

/// A knowledgebase of one to four such worlds.
fn arb_knowledgebase() -> impl proptest::strategy::Strategy<Value = Knowledgebase> {
    proptest::collection::vec(arb_database(), 1..5)
        .prop_map(|dbs| Knowledgebase::from_databases(dbs).expect("uniform schema"))
}

/// Random ground-ish sentences over the same schema (kept small so the
/// exhaustive candidate spaces stay tractable).
fn arb_sentence() -> impl proptest::strategy::Strategy<Value = Sentence> {
    use kbt::logic::builder::*;
    let lit = (0u32..3, 0u32..3, any::<bool>()).prop_map(|(a, b, neg)| {
        let base = if a % 2 == 0 {
            atom(1, [cst(b)])
        } else {
            atom(2, [cst(a), cst(b)])
        };
        if neg {
            not(base)
        } else {
            base
        }
    });
    proptest::collection::vec(lit, 1..3).prop_flat_map(|lits| {
        any::<bool>().prop_map(move |conj| {
            let f = if conj {
                and_all(lits.clone())
            } else {
                or_all(lits.clone())
            };
            Sentence::new(f).expect("ground sentences are closed")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn km_postulates_hold_on_random_inputs(
        phi in arb_sentence(),
        psi in arb_sentence(),
        kb1 in arb_knowledgebase(),
        kb2 in arb_knowledgebase(),
    ) {
        let report = postulates::check_all(&phi, &psi, &kb1, &kb2, &EvalOptions::default())
            .expect("evaluation fits in the default limits");
        prop_assert!(report.all_hold(), "violated postulates: {report:?} for φ={phi}, ψ={psi}");
    }

    #[test]
    fn postulate_one_and_two_hold_for_quantified_sentences(
        kb in arb_knowledgebase(),
    ) {
        use kbt::logic::builder::*;
        // ∀x (R1(x) → ∃y R2(x,y)) — a mildly quantified sentence.
        let phi = Sentence::new(forall(
            [1],
            implies(atom(1, [var(1)]), exists([2], atom(2, [var(1), var(2)]))),
        )).unwrap();
        let t = Transformer::new();
        prop_assert!(postulates::postulate_1(&t, &phi, &kb).unwrap());
        prop_assert!(postulates::postulate_2(&t, &phi, &kb).unwrap());
        prop_assert!(postulates::postulate_3(&t, &phi, &kb).unwrap());
    }
}

#[test]
fn postulate_4_irrelevance_of_syntax_on_equivalent_formulations() {
    // (iv): logically equivalent sentences produce identical updates.  We
    // check representative equivalent pairs (commuted conjunction, double
    // negation, contraposition).
    use kbt::logic::builder::*;
    let t = Transformer::new();
    let kb = Knowledgebase::from_databases([
        DatabaseBuilder::new()
            .fact(r(1), [1u32])
            .relation(r(2), 2)
            .build()
            .unwrap(),
        DatabaseBuilder::new()
            .fact(r(1), [2u32])
            .relation(r(2), 2)
            .build()
            .unwrap(),
    ])
    .unwrap();

    let a = atom(1, [cst(1)]);
    let b = atom(2, [cst(1), cst(2)]);
    let pairs = vec![
        (and(a.clone(), b.clone()), and(b.clone(), a.clone())),
        (a.clone(), not(not(a.clone()))),
        (
            implies(a.clone(), b.clone()),
            implies(not(b.clone()), not(a.clone())),
        ),
        (or(a.clone(), b.clone()), or(b, a)),
    ];
    for (f, g) in pairs {
        let left = t
            .insert(&Sentence::new(f.clone()).unwrap(), &kb)
            .unwrap()
            .kb;
        let right = t
            .insert(&Sentence::new(g.clone()).unwrap(), &kb)
            .unwrap()
            .kb;
        assert_eq!(
            left, right,
            "τ distinguished equivalent sentences {f} and {g}"
        );
    }
}
