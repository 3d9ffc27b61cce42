//! The Katsuno–Mendelzon update postulates — Theorem 2.1.
//!
//! Theorem 2.1 of the paper proves that the insertion operator `τ` satisfies
//! the eight KM postulates (i)–(viii).  This module provides executable
//! checkers for each postulate; the property-based test suites run them on
//! randomly generated knowledgebases and sentences, and the benchmark
//! harness measures how expensive checking them is.
//!
//! Every checker returns `Ok(true)` when the postulate holds on the given
//! inputs, `Ok(false)` when it is violated (which, by Theorem 2.1, would
//! indicate a bug in the evaluator), and `Err` when evaluation itself fails
//! (e.g. resource limits).

use kbt_data::{Database, Knowledgebase};
use kbt_logic::{satisfies, Sentence};

use crate::options::EvalOptions;
use crate::transformer::Transformer;
use crate::Result;

/// All eight postulates bundled, for convenience in tests and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PostulateReport {
    /// (i) `τ_φ(kb) ⊨ φ`.
    pub p1: bool,
    /// (ii) if `kb ⊨ φ` then `τ_φ(kb) = kb`.
    pub p2: bool,
    /// (iii) if `kb ≠ ∅` and `φ` is satisfiable over the candidate space
    /// then `τ_φ(kb) ≠ ∅`.
    pub p3: bool,
    /// (v) `τ_φ(kb) ∩ ⟦ψ⟧ ⊆ τ_{φ∧ψ}(kb)`.
    pub p5: bool,
    /// (vi) if `τ_φ(kb) ⊨ ψ` and `τ_ψ(kb) ⊨ φ` then `τ_φ(kb) = τ_ψ(kb)`.
    pub p6: bool,
    /// (vii) `τ_φ([db]) ∩ τ_ψ([db]) ⊆ τ_{φ∨ψ}([db])`.
    pub p7: bool,
    /// (viii) `τ_φ(kb1 ∪ kb2) = τ_φ(kb1) ∪ τ_φ(kb2)`.
    pub p8: bool,
}

impl PostulateReport {
    /// Whether every checked postulate holds.
    pub fn all_hold(&self) -> bool {
        self.p1 && self.p2 && self.p3 && self.p5 && self.p6 && self.p7 && self.p8
    }
}

fn model_of(db: &Database, phi: &Sentence) -> Result<bool> {
    // σ(db) may not dominate σ(φ) for arbitrary inputs; in that case db is
    // not a model of φ by definition (the interpretation is undefined).
    if !phi.schema().is_subschema_of(&db.schema()) {
        return Ok(false);
    }
    Ok(satisfies(db, phi)?)
}

fn kb_models(kb: &Knowledgebase, phi: &Sentence) -> Result<bool> {
    if kb.is_empty() {
        return Ok(false);
    }
    for db in kb.iter() {
        if !model_of(db, phi)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// (i) Every database of `τ_φ(kb)` is a model of `φ`.
pub fn postulate_1(t: &Transformer, phi: &Sentence, kb: &Knowledgebase) -> Result<bool> {
    let result = t.insert(phi, kb)?.kb;
    for db in result.iter() {
        if !model_of(db, phi)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// (ii) If every database of `kb` already models `φ` (over the result
/// schema), then `τ_φ(kb) = kb` up to lifting to the result schema.
pub fn postulate_2(t: &Transformer, phi: &Sentence, kb: &Knowledgebase) -> Result<bool> {
    // the premise requires σ(kb) to dominate σ(φ)
    if !phi.schema().is_subschema_of(&kb.schema()) {
        return Ok(true);
    }
    if !kb_models(kb, phi)? {
        return Ok(true);
    }
    let result = t.insert(phi, kb)?.kb;
    Ok(&result == kb)
}

/// (iii) If `kb` is non-empty and `φ` has a model over the candidate space of
/// each database, then `τ_φ(kb)` is non-empty.  (We check the contrapositive
/// per database: an empty `µ` must mean `φ` has no model over that space.)
pub fn postulate_3(t: &Transformer, phi: &Sentence, kb: &Knowledgebase) -> Result<bool> {
    if kb.is_empty() {
        return Ok(true);
    }
    let result = t.insert(phi, kb)?.kb;
    if !result.is_empty() {
        return Ok(true);
    }
    // result is empty: verify φ is indeed unsatisfiable over the candidate
    // space of every database of kb, by asking the exhaustive evaluator for
    // any model at all (µ is empty iff there is none).
    for db in kb.iter() {
        let outcome = crate::update::minimal_update(phi, db, t.options(), None)?;
        if !outcome.databases.is_empty() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// (v) `τ_φ(kb) ∩ ⟦ψ⟧ ⊆ τ_{φ∧ψ}(kb)`.
pub fn postulate_5(
    t: &Transformer,
    phi: &Sentence,
    psi: &Sentence,
    kb: &Knowledgebase,
) -> Result<bool> {
    let left = t.insert(phi, kb)?.kb;
    let right = t.insert(&phi.clone().and(psi.clone()), kb)?.kb;
    for db in left.iter() {
        if model_of(db, psi)? && !contains_lifted(&right, db)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// (vi) If `τ_φ(kb) ⊨ ψ` and `τ_ψ(kb) ⊨ φ` then `τ_φ(kb) = τ_ψ(kb)`.
pub fn postulate_6(
    t: &Transformer,
    phi: &Sentence,
    psi: &Sentence,
    kb: &Knowledgebase,
) -> Result<bool> {
    let tau_phi = t.insert(phi, kb)?.kb;
    let tau_psi = t.insert(psi, kb)?.kb;
    if kb_models(&tau_phi, psi)? && kb_models(&tau_psi, phi)? {
        Ok(tau_phi == tau_psi)
    } else {
        Ok(true)
    }
}

/// (vii) `τ_φ([db]) ∩ τ_ψ([db]) ⊆ τ_{φ∨ψ}([db])`.
pub fn postulate_7(t: &Transformer, phi: &Sentence, psi: &Sentence, db: &Database) -> Result<bool> {
    let kb = Knowledgebase::singleton(db.clone());
    let tau_phi = t.insert(phi, &kb)?.kb;
    let tau_psi = t.insert(psi, &kb)?.kb;
    let disjunction = Sentence::new(kbt_logic::builder::or(
        phi.formula().clone(),
        psi.formula().clone(),
    ))?;
    let tau_or = t.insert(&disjunction, &kb)?.kb;
    for d in tau_phi.iter() {
        if tau_psi.contains(d) && !contains_lifted(&tau_or, d)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// (viii) `τ_φ(kb1 ∪ kb2) = τ_φ(kb1) ∪ τ_φ(kb2)`.
pub fn postulate_8(
    t: &Transformer,
    phi: &Sentence,
    kb1: &Knowledgebase,
    kb2: &Knowledgebase,
) -> Result<bool> {
    let union = kb1.union(kb2)?;
    let left = t.insert(phi, &union)?.kb;
    let right = t.insert(phi, kb1)?.kb.union(&t.insert(phi, kb2)?.kb)?;
    Ok(left == right)
}

/// Membership of `db` in `kb`, allowing for the fact that databases coming
/// from transformations with different sentences may differ only by empty
/// relations (the result schema differs).  `db` is considered present if
/// some member of `kb` agrees with it on every relation they share and has
/// only empty relations elsewhere.
fn contains_lifted(kb: &Knowledgebase, db: &Database) -> Result<bool> {
    if kb.contains(db) {
        return Ok(true);
    }
    for candidate in kb.iter() {
        let schema = candidate.schema().union(&db.schema())?;
        let a = candidate.extend_schema(&schema)?;
        let b = db.extend_schema(&schema)?;
        if a == b {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Runs all checkable postulates on the given inputs.
pub fn check_all(
    phi: &Sentence,
    psi: &Sentence,
    kb1: &Knowledgebase,
    kb2: &Knowledgebase,
    options: &EvalOptions,
) -> Result<PostulateReport> {
    let t = Transformer::with_options(*options);
    let union = kb1.union(kb2)?;
    let first_db = kb1.iter().next().cloned();
    Ok(PostulateReport {
        p1: postulate_1(&t, phi, &union)?,
        p2: postulate_2(&t, phi, &union)?,
        p3: postulate_3(&t, phi, &union)?,
        p5: postulate_5(&t, phi, psi, &union)?,
        p6: postulate_6(&t, phi, psi, &union)?,
        p7: match first_db {
            Some(db) => postulate_7(&t, phi, psi, &db)?,
            None => true,
        },
        p8: postulate_8(&t, phi, kb1, kb2)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::{DatabaseBuilder, RelId};
    use kbt_logic::builder::*;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn kb(facts: &[&[u32]]) -> Knowledgebase {
        let dbs = facts.iter().map(|fs| {
            let mut b = DatabaseBuilder::new().relation(r(1), 1);
            for &f in fs.iter() {
                b = b.fact(r(1), [f]);
            }
            b.build().unwrap()
        });
        Knowledgebase::from_databases(dbs).unwrap()
    }

    #[test]
    fn all_postulates_hold_on_the_space_example() {
        let phi = Sentence::new(atom(1, [cst(1)])).unwrap();
        let psi = Sentence::new(not(atom(1, [cst(2)]))).unwrap();
        let kb1 = kb(&[&[1]]);
        let kb2 = kb(&[&[2]]);
        let report = check_all(&phi, &psi, &kb1, &kb2, &EvalOptions::default()).unwrap();
        assert!(report.all_hold(), "violated: {report:?}");
    }

    #[test]
    fn postulate_2_detects_already_satisfied_sentences() {
        let t = Transformer::new();
        let phi = Sentence::new(exists([1], atom(1, [var(1)]))).unwrap();
        let knowledge = kb(&[&[1], &[2]]);
        assert!(postulate_2(&t, &phi, &knowledge).unwrap());
        // directly check the equality it asserts
        let result = t.insert(&phi, &knowledge).unwrap().kb;
        assert_eq!(result, knowledge);
    }

    #[test]
    fn postulate_8_distribution_over_union() {
        let t = Transformer::new();
        let phi = Sentence::new(or(atom(1, [cst(3)]), atom(1, [cst(4)]))).unwrap();
        assert!(postulate_8(&t, &phi, &kb(&[&[1]]), &kb(&[&[2]])).unwrap());
    }

    #[test]
    fn postulate_7_on_a_singleton() {
        let t = Transformer::new();
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let phi = Sentence::new(atom(1, [cst(2)])).unwrap();
        let psi = Sentence::new(atom(1, [cst(3)])).unwrap();
        assert!(postulate_7(&t, &phi, &psi, &db).unwrap());
    }
}
