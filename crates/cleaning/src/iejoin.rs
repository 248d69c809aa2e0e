//! IEJoin — the fast inequality self-join (Khayyat et al., PVLDB 2015).
//!
//! The paper presents IEJoin as its extensibility showcase: "as an example
//! of extensibility, we extended the set of physical RHEEM operators with
//! a new join operator (called IEJoin) to boost performance" (§5.1), which
//! turned a 22-hour baseline into minutes. [`IeJoinOp`] is that operator:
//! a [`CustomPhysicalOp`] plugged into the physical algebra from outside
//! the core crate, exactly as §5.2 describes application developers doing.
//!
//! Algorithm (self-join, two strict inequality predicates
//! `t1.a > t2.a ∧ t1.b < t2.b`, other strict combinations reduced to it by
//! negation):
//!
//! 1. sort positions by `a` ascending (`L1`);
//! 2. visit tuples in ascending-`b` order, in groups of equal `b`;
//! 3. for each visited group member `t`, every *previously visited* tuple
//!    `s` (hence `s.b < t.b`) whose `L1` position lies strictly above the
//!    last tuple with `a = t.a` satisfies `s.a > t.a` — read them off a
//!    bit array;
//! 4. set the group's bits afterwards (strictness on `b`).
//!
//! `O(n log n + output)` instead of the cross product's `O(n²)`.

use rheem_core::{CustomPhysicalOp, Dataset, Record, Result, RheemError};

use crate::rules::{CompOp, DenialConstraint, Violation};

/// A growable bit set with iteration over set bits from a position.
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Indices of set bits in `[from, n)`.
    fn iter_from(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let start_word = from / 64;
        let mask = !0u64 << (from % 64);
        self.words[start_word..]
            .iter()
            .enumerate()
            .flat_map(move |(wi, &w)| {
                let mut word = w;
                if wi == 0 {
                    word &= mask;
                }
                std::iter::from_fn(move || {
                    if word == 0 {
                        None
                    } else {
                        let bit = word.trailing_zeros() as usize;
                        word &= word - 1;
                        Some((start_word + wi) * 64 + bit)
                    }
                })
            })
    }
}

/// Find all ordered pairs `(s, t)` with `s.a > t.a ∧ s.b < t.b` among
/// `(id, a, b)` triples. Returns `(s.id, t.id)` pairs.
pub fn ie_self_join_canonical(tuples: &[(i64, f64, f64)]) -> Vec<(i64, i64)> {
    let n = tuples.len();
    if n < 2 {
        return Vec::new();
    }
    // L1: positions sorted by a ascending (id tiebreak for determinism).
    let mut l1: Vec<usize> = (0..n).collect();
    l1.sort_by(|&i, &j| {
        tuples[i]
            .1
            .total_cmp(&tuples[j].1)
            .then(tuples[i].0.cmp(&tuples[j].0))
    });
    let a_sorted: Vec<f64> = l1.iter().map(|&i| tuples[i].1).collect();
    let mut pos1 = vec![0usize; n];
    for (p, &i) in l1.iter().enumerate() {
        pos1[i] = p;
    }
    // L2: positions sorted by b ascending.
    let mut l2: Vec<usize> = (0..n).collect();
    l2.sort_by(|&i, &j| {
        tuples[i]
            .2
            .total_cmp(&tuples[j].2)
            .then(tuples[i].0.cmp(&tuples[j].0))
    });

    // First position in L1 with a > x (upper bound).
    let upper_bound = |x: f64| a_sorted.partition_point(|&a| a.total_cmp(&x).is_le());

    let mut bits = BitSet::new(n);
    let mut out = Vec::new();
    let mut g = 0usize;
    while g < n {
        // The group of equal-b tuples starting at g.
        let b_val = tuples[l2[g]].2;
        let mut g_end = g;
        while g_end < n && tuples[l2[g_end]].2.total_cmp(&b_val).is_eq() {
            g_end += 1;
        }
        // Query phase: partners of each group member among visited tuples.
        for &t in &l2[g..g_end] {
            let from = upper_bound(tuples[t].1);
            for s_pos in bits.iter_from(from) {
                let s = l1[s_pos];
                out.push((tuples[s].0, tuples[t].0));
            }
        }
        // Visit phase: mark the group.
        for &t in &l2[g..g_end] {
            bits.set(pos1[t]);
        }
        g = g_end;
    }
    out
}

/// Run an IEJoin-eligible denial constraint over records, returning the
/// violating id pairs.
pub(crate) fn ie_self_join(records: &[Record], rule: &DenialConstraint) -> Result<Vec<(i64, i64)>> {
    let (p1, p2) = rule.iejoin_predicates().ok_or_else(|| {
        RheemError::InvalidPlan(format!(
            "rule {} is not IEJoin-eligible (needs exactly two strict inequality predicates)",
            rule.name
        ))
    })?;
    // Canonical form wants (Gt on a, Lt on b): flip signs where needed.
    let a_sign = if p1.op == CompOp::Gt { 1.0 } else { -1.0 };
    let b_sign = if p2.op == CompOp::Lt { 1.0 } else { -1.0 };
    let mut tuples = Vec::with_capacity(records.len());
    for r in records {
        tuples.push((
            r.int(rule.id_column)?,
            a_sign * r.get(p1.left)?.as_float()?,
            b_sign * r.get(p2.left)?.as_float()?,
        ));
    }
    Ok(ie_self_join_canonical(&tuples))
}

/// The IEJoin physical operator: consumes scoped records, produces
/// violation records (`[rule, t1, t2]`).
pub struct IeJoinOp {
    rule: DenialConstraint,
}

impl IeJoinOp {
    /// Wrap an IEJoin-eligible rule; errors otherwise.
    pub(crate) fn new(rule: DenialConstraint) -> Result<Self> {
        if rule.iejoin_predicates().is_none() {
            return Err(RheemError::InvalidPlan(format!(
                "rule {} is not IEJoin-eligible",
                rule.name
            )));
        }
        Ok(IeJoinOp { rule })
    }
}

impl CustomPhysicalOp for IeJoinOp {
    fn name(&self) -> &str {
        "IEJoin"
    }

    fn arity(&self) -> usize {
        1
    }

    fn execute(&self, inputs: &[Dataset]) -> Result<Dataset> {
        let pairs = ie_self_join(inputs[0].records(), &self.rule)?;
        Ok(pairs
            .into_iter()
            .map(|(t1, t2)| {
                Violation {
                    rule: self.rule.name.clone(),
                    t1,
                    t2,
                }
                .to_record()
            })
            .collect())
    }

    fn output_cardinality(&self, input_cards: &[f64]) -> f64 {
        // Violations are usually sparse; assume 1% of the pair space.
        let n = input_cards.first().copied().unwrap_or(0.0);
        (n * n * 0.01).max(1.0)
    }

    fn cost_factor(&self) -> f64 {
        // Sorting-dominated: a few passes over the input.
        4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rheem_core::rec;

    /// Reference O(n²) implementation.
    fn brute_force(tuples: &[(i64, f64, f64)]) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        for s in tuples {
            for t in tuples {
                if s.0 != t.0 && s.1 > t.1 && s.2 < t.2 {
                    out.push((s.0, t.0));
                }
            }
        }
        out
    }

    fn sorted(mut v: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_brute_force_on_small_example() {
        // Classic salary/tax example.
        let tuples = vec![
            (1, 100.0, 5.0), // earns most, lowest rate: violates vs all below
            (2, 50.0, 10.0),
            (3, 60.0, 8.0),
            (4, 10.0, 20.0),
        ];
        assert_eq!(
            sorted(ie_self_join_canonical(&tuples)),
            sorted(brute_force(&tuples))
        );
    }

    #[test]
    fn handles_ties_strictly() {
        // Equal a or equal b must never violate (strict operators).
        let tuples = vec![(1, 5.0, 1.0), (2, 5.0, 2.0), (3, 4.0, 1.0)];
        let pairs = sorted(ie_self_join_canonical(&tuples));
        assert_eq!(pairs, sorted(brute_force(&tuples)));
        // (1,3): a 5>4 but b 1<1 false. (2,3): 5>4, 2<1 false... wait 2>1.
        // brute force is the oracle; just make sure no tie-pair sneaks in.
        for (s, t) in &pairs {
            let s = tuples.iter().find(|x| x.0 == *s).unwrap();
            let t = tuples.iter().find(|x| x.0 == *t).unwrap();
            assert!(s.1 > t.1 && s.2 < t.2);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(ie_self_join_canonical(&[]).is_empty());
        assert!(ie_self_join_canonical(&[(1, 1.0, 1.0)]).is_empty());
    }

    #[test]
    fn rule_driven_join_and_op() {
        // Layout: [id, salary, rate].
        let rule = DenialConstraint::inequality("ineq", 0, 1, 2);
        let records = vec![
            rec![1i64, 100_000.0, 5.0],
            rec![2i64, 30_000.0, 11.5],
            rec![3i64, 60_000.0, 13.0],
        ];
        let pairs = ie_self_join(&records, &rule).unwrap();
        assert_eq!(sorted(pairs), vec![(1, 2), (1, 3)]);

        let op = IeJoinOp::new(rule).unwrap();
        let out = op.execute(&[Dataset::new(records)]).unwrap();
        assert_eq!(out.len(), 2);
        let v = Violation::from_record(&out.records()[0]).unwrap();
        assert_eq!(v.rule, "ineq");
    }

    #[test]
    fn lt_gt_combination_via_negation() {
        // Rule ¬(t1.a < t2.a ∧ t1.b > t2.b) — the mirror image.
        let rule = DenialConstraint {
            name: "mirror".into(),
            id_column: 0,
            predicates: vec![
                crate::rules::DcPredicate::new(1, CompOp::Lt, 1),
                crate::rules::DcPredicate::new(2, CompOp::Gt, 2),
            ],
        };
        let records = vec![rec![1i64, 1.0, 9.0], rec![2i64, 2.0, 3.0]];
        // t1=1: a 1<2 and b 9>3 → violation (1,2).
        let pairs = ie_self_join(&records, &rule).unwrap();
        assert_eq!(pairs, vec![(1, 2)]);
    }

    #[test]
    fn non_eligible_rule_is_rejected() {
        let fd = DenialConstraint::functional_dependency("fd", 0, 1, 2);
        assert!(IeJoinOp::new(fd.clone()).is_err());
        assert!(ie_self_join(&[], &fd).is_err());
    }

    proptest! {
        /// IEJoin equals brute force on arbitrary inputs (with ties and
        /// negatives), up to pair order.
        #[test]
        fn prop_matches_brute_force(
            values in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 0..120)
        ) {
            let tuples: Vec<(i64, f64, f64)> = values
                .into_iter()
                .enumerate()
                // Round to one decimal to force plenty of ties.
                .map(|(i, (a, b))| (i as i64, (a * 10.0).round() / 10.0, (b * 10.0).round() / 10.0))
                .collect();
            prop_assert_eq!(
                sorted(ie_self_join_canonical(&tuples)),
                sorted(brute_force(&tuples))
            );
        }
    }
}
