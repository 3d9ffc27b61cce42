//! Differential proptest for [`Vocabulary`]'s sharing contract: random
//! scripts of `constant` / `relation` (arity conflicts included) / `clone` /
//! drop over a family of handles are replayed against a model that owns its
//! names outright — `Vec<String>` + `BTreeMap`, a deep copy on every clone,
//! no `Arc` anywhere.
//!
//! After every step every live handle agrees with its model on every
//! lookup, name, arity, count and rendering, so a handle is never changed
//! by interning through another one; and `a.shares_names(&b)` holds exactly
//! while neither has **added** a name since the clone that related them
//! (re-interning a known name copies nothing, and neither does a rejected
//! arity conflict).
//!
//! A second property drives the same handles through *bursts* — hundreds
//! to thousands of names at a time, fresh ones mixed with names the handle
//! or another one already holds — so that every run crosses the
//! vocabulary's chunk (1 024 names) and index-level (64 entries)
//! boundaries many times over, with clones taken, held and dropped at
//! random points between them.  Each step checks every handle at the
//! boundaries, at its newest names and at a random sample; each run ends
//! with a check of every name.  Its `#[ignore]`d long variant takes one
//! handle past 100 000 names.

use std::collections::BTreeMap;

use kbt_data::{Const, RelId, Vocabulary};
use proptest::prelude::*;

/// The reference: what a vocabulary that copied everything would hold.
#[derive(Clone, Debug, Default)]
struct Model {
    consts: Vec<String>,
    const_index: BTreeMap<String, u32>,
    rels: Vec<(String, usize)>,
    rel_index: BTreeMap<String, u32>,
    /// Which shared part the real handle must be reading: copied by a
    /// clone, replaced by a fresh number whenever a name is added.
    shared: u32,
}

impl Model {
    /// Interns a constant; `true` when the name was new.
    fn constant(&mut self, name: &str) -> (u32, bool) {
        if let Some(&c) = self.const_index.get(name) {
            return (c, false);
        }
        let c = self.consts.len() as u32;
        self.consts.push(name.to_string());
        self.const_index.insert(name.to_string(), c);
        (c, true)
    }

    /// Interns a relation; `None` on an arity conflict.
    fn relation(&mut self, name: &str, arity: usize) -> Option<(u32, bool)> {
        if let Some(&r) = self.rel_index.get(name) {
            return (self.rels[r as usize].1 == arity).then_some((r, false));
        }
        let r = self.rels.len() as u32;
        self.rels.push((name.to_string(), arity));
        self.rel_index.insert(name.to_string(), r);
        Some((r, true))
    }
}

#[derive(Clone, Debug)]
enum Op {
    Constant(usize, String),
    Relation(usize, String, usize),
    Clone(usize),
    Drop(usize),
}

fn decode(code: (u8, usize, u8, usize)) -> Op {
    let (op, handle, name, arity) = code;
    // a pool of eight names, so scripts re-intern known names about as
    // often as they add new ones
    match op {
        0..=2 => Op::Constant(handle, format!("c{name}")),
        // arities 1..=2 over the same pool: conflicts happen
        3..=5 => Op::Relation(handle, format!("r{name}"), arity),
        6..=7 => Op::Clone(handle),
        _ => Op::Drop(handle),
    }
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..9, 0usize..64, 0u8..8, 1usize..3), 1..120)
        .prop_map(|codes| codes.into_iter().map(decode).collect())
}

/// Every observation the public API offers, compared with the model.
fn assert_agrees(vocab: &Vocabulary, model: &Model) {
    prop_assert_eq!(vocab.constant_count(), model.consts.len());
    prop_assert_eq!(vocab.relation_count(), model.rels.len());
    for (i, name) in model.consts.iter().enumerate() {
        let c = Const::new(i as u32);
        prop_assert_eq!(vocab.constant_name(c), Some(name.as_str()));
        prop_assert_eq!(vocab.lookup_constant(name), Some(c));
        prop_assert_eq!(&vocab.render_constant(c), name);
    }
    for (i, (name, arity)) in model.rels.iter().enumerate() {
        let r = RelId::new(i as u32);
        prop_assert_eq!(vocab.relation_name(r), Some(name.as_str()));
        prop_assert_eq!(vocab.relation_arity(r), Some(*arity));
        prop_assert_eq!(vocab.lookup_relation(name), Some((r, *arity)));
        prop_assert_eq!(&vocab.render_relation(r), name);
    }
    // names of the pool this handle never interned stay unknown to it,
    // whoever else interned them
    for k in 0..8 {
        let (c, r) = (format!("c{k}"), format!("r{k}"));
        prop_assert_eq!(
            vocab.lookup_constant(&c).is_some(),
            model.const_index.contains_key(&c)
        );
        prop_assert_eq!(
            vocab.lookup_relation(&r).is_some(),
            model.rel_index.contains_key(&r)
        );
    }
    // one past the end: the index fallbacks
    let (past_c, past_r) = (
        Const::new(model.consts.len() as u32),
        RelId::new(model.rels.len() as u32),
    );
    prop_assert_eq!(vocab.constant_name(past_c), None);
    prop_assert_eq!(vocab.relation_name(past_r), None);
    prop_assert_eq!(vocab.relation_arity(past_r), None);
    prop_assert_eq!(vocab.render_constant(past_c), past_c.to_string());
    prop_assert_eq!(vocab.render_relation(past_r), past_r.to_string());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn handles_track_a_deep_copying_model(script in arb_script()) {
        let mut live: Vec<(Vocabulary, Model)> = vec![(Vocabulary::new(), Model::default())];
        let mut next_shared = 1u32;
        for op in script {
            match op {
                Op::Constant(h, name) => {
                    let h = h % live.len();
                    let (vocab, model) = &mut live[h];
                    let (expected, added) = model.constant(&name);
                    prop_assert_eq!(vocab.constant(&name), Const::new(expected));
                    if added {
                        model.shared = next_shared;
                        next_shared += 1;
                    }
                }
                Op::Relation(h, name, arity) => {
                    let h = h % live.len();
                    let (vocab, model) = &mut live[h];
                    let expected = model.relation(&name, arity);
                    let got = vocab.relation(&name, arity).ok();
                    prop_assert_eq!(got, expected.map(|(r, _)| RelId::new(r)));
                    if let Some((_, true)) = expected {
                        model.shared = next_shared;
                        next_shared += 1;
                    }
                }
                Op::Clone(h) => {
                    let copy = live[h % live.len()].clone();
                    live.push(copy);
                }
                Op::Drop(h) => {
                    if live.len() > 1 {
                        live.swap_remove(h % live.len());
                    }
                }
            }
            for (vocab, model) in &live {
                assert_agrees(vocab, model);
            }
            for (a, model_a) in &live {
                for (b, model_b) in &live {
                    prop_assert_eq!(a.shares_names(b), model_a.shared == model_b.shared);
                }
            }
        }
    }
}

/// One step of a burst script: `len` fresh names into handle `into`
/// (every even step into handle 0, which is never dropped), together with
/// `back` names from the `back_span` most recent ones any handle was given,
/// then one other operation.
#[derive(Clone, Debug)]
struct BurstStep {
    into: usize,
    len: usize,
    back: usize,
    back_span: usize,
    then: Op,
}

fn arb_bursts(
    steps: std::ops::Range<usize>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<BurstStep>> {
    let step = (
        0usize..64,
        len,
        0usize..200,
        1usize..4000,
        (0u8..9, 0usize..64, 0u8..8, 1usize..3),
    );
    proptest::collection::vec(step, steps).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (into, len, back, back_span, code))| BurstStep {
                into: if i % 2 == 0 { 0 } else { into },
                len,
                back,
                back_span,
                then: decode(code),
            })
            .collect()
    })
}

/// The ids every check reads: both sides of every chunk and level boundary
/// below 3 000, the newest names, and a few at random.
fn probe_ids(count: usize, salt: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = [
        0, 1, 63, 64, 65, 127, 128, 1023, 1024, 1025, 2047, 2048, 2049,
    ]
    .into_iter()
    .chain((1..=3).map(|k| count.wrapping_sub(k)))
    .chain((1..=5).map(|k| (salt.wrapping_mul(2_654_435_761) >> k) % count.max(1)))
    .collect();
    ids.retain(|&i| i < count);
    ids
}

/// Agreement on the probed ids, counts, relations and one name past the end.
fn assert_sampled(vocab: &Vocabulary, model: &Model, salt: usize) {
    prop_assert_eq!(vocab.constant_count(), model.consts.len());
    prop_assert_eq!(vocab.relation_count(), model.rels.len());
    for i in probe_ids(model.consts.len(), salt) {
        let (c, name) = (Const::new(i as u32), &model.consts[i]);
        prop_assert_eq!(vocab.constant_name(c), Some(name.as_str()));
        prop_assert_eq!(vocab.lookup_constant(name), Some(c));
    }
    let past = Const::new(model.consts.len() as u32);
    prop_assert_eq!(vocab.constant_name(past), None);
    for (i, (name, arity)) in model.rels.iter().enumerate() {
        prop_assert_eq!(
            vocab.lookup_relation(name),
            Some((RelId::new(i as u32), *arity))
        );
    }
}

/// Runs a burst script; returns the most names one handle held.
fn check_bursts(script: &[BurstStep]) -> usize {
    let mut live: Vec<(Vocabulary, Model)> = vec![(Vocabulary::new(), Model::default())];
    let (mut next_shared, mut frontier, mut most) = (1u32, 0usize, 0usize);
    for (step_no, step) in script.iter().enumerate() {
        let h = step.into % live.len();
        let (vocab, model) = &mut live[h];
        let recent = frontier.saturating_sub(step.back_span);
        let again =
            (0..step.back).map(|k| recent + (k * 7919 + step_no) % (frontier - recent).max(1));
        let fresh = frontier..frontier + step.len;
        let mut added = false;
        for k in again.chain(fresh) {
            let name = format!("n{k}");
            let (expected, new) = model.constant(&name);
            prop_assert_eq!(vocab.constant(&name), Const::new(expected));
            added |= new;
        }
        if added {
            model.shared = next_shared;
            next_shared += 1;
        }
        frontier += step.len;
        // the burst's own names, in the handle that took them
        for k in frontier - step.len..frontier {
            let name = format!("n{k}");
            prop_assert_eq!(
                vocab.lookup_constant(&name).map(|c| c.index()),
                model.const_index.get(&name).copied()
            );
        }
        match step.then.clone() {
            Op::Constant(h, name) => {
                let h = h % live.len();
                let (vocab, model) = &mut live[h];
                let (expected, new) = model.constant(&name);
                prop_assert_eq!(vocab.constant(&name), Const::new(expected));
                if new {
                    model.shared = next_shared;
                    next_shared += 1;
                }
            }
            Op::Relation(h, name, arity) => {
                let h = h % live.len();
                let (vocab, model) = &mut live[h];
                let expected = model.relation(&name, arity);
                prop_assert_eq!(
                    vocab.relation(&name, arity).ok(),
                    expected.map(|(r, _)| RelId::new(r))
                );
                if let Some((_, true)) = expected {
                    model.shared = next_shared;
                    next_shared += 1;
                }
            }
            Op::Clone(h) => {
                let copy = live[h % live.len()].clone();
                live.push(copy);
            }
            Op::Drop(h) => {
                if live.len() > 1 {
                    live.remove(1 + h % (live.len() - 1));
                }
            }
        }
        for (i, (vocab, model)) in live.iter().enumerate() {
            assert_sampled(vocab, model, step_no * 31 + i);
            // the burst's newest name is unknown to every handle whose
            // model lacks it, whoever interned it
            let newest = format!("n{}", frontier.saturating_sub(1));
            prop_assert_eq!(
                vocab.lookup_constant(&newest).is_some(),
                model.const_index.contains_key(&newest)
            );
            most = most.max(model.consts.len());
        }
        for (a, model_a) in &live {
            for (b, model_b) in &live {
                prop_assert_eq!(a.shares_names(b), model_a.shared == model_b.shared);
            }
        }
    }
    for (vocab, model) in &live {
        assert_agrees(vocab, model);
    }
    most
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn bursts_across_chunks_and_levels_track_the_model(script in arb_bursts(2..14, 1..1600)) {
        check_bursts(&script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "a longer variant; CI runs it in release"]
    fn bursts_across_chunks_and_levels_track_the_model_at_length(
        script in arb_bursts(64..72, 3200..6400),
    ) {
        // 32 bursts of at least 3 200 fresh names go into handle 0 alone
        prop_assert!(check_bursts(&script) >= 100_000);
    }
}
