//! Validation of the proposed knowledge predicates (50)–(51) against the
//! *actual* knowledge operator — §6.3 of the paper, experiments E7 and E8.
//!
//! The paper proposes
//!
//! ```text
//! K_R(x_k = α) : (j = k ∧ z' = (k, α)) ∨ (j > k ∧ w_k = α)     (50)
//! K_S K_R x_k  : (i = k ∧ z = k + 1) ∨ i > k                   (51)
//! ```
//!
//! and proves the supporting invariants (54), (61), (62) and stability
//! properties (55), (56). Because this reproduction computes `SI` and the
//! real `K` exactly, we can check both the paper's obligations and the
//! sharper claims of \[HZar\] Proposition 4.5:
//!
//! * the candidates *imply* the real knowledge (enough for correctness);
//! * with **no a-priori information** the candidates *equal* the real
//!   knowledge on reachable states;
//! * with a-priori information (§6.4 / footnote 3), equality **fails**
//!   while the implication — and the protocol's correctness — survive.

use std::sync::Arc;

use kpt_core::KnowledgeContext;
use kpt_state::Predicate;
use kpt_unity::CompiledProgram;

use crate::standard::StandardModel;

/// The real knowledge operator of a compiled standard model, with the
/// Sender/Receiver views.
#[must_use]
pub fn knowledge_operator(
    model: &StandardModel,
    compiled: &CompiledProgram,
) -> Arc<KnowledgeContext> {
    model.knowledge_operator(compiled)
}

/// The real `K_R(x_k = α)`.
#[must_use]
pub fn real_kr_x(model: &StandardModel, op: &KnowledgeContext, k: u64, alpha: u64) -> Predicate {
    op.knows("Receiver", &model.x_elem(k as usize, alpha))
        .expect("Receiver is declared")
}

/// The real `K_R x_k = (∃α :: K_R(x_k = α))`.
#[must_use]
pub fn real_kr_x_any(model: &StandardModel, op: &KnowledgeContext, k: u64) -> Predicate {
    let mut out = Predicate::ff(model.space());
    for alpha in 0..model.encoding().alphabet() as u64 {
        out = out.or(&real_kr_x(model, op, k, alpha));
    }
    out
}

/// The real `K_S K_R x_k`.
#[must_use]
pub fn real_ks_kr(model: &StandardModel, op: &KnowledgeContext, k: u64) -> Predicate {
    op.knows("Sender", &real_kr_x_any(model, op, k))
        .expect("Sender is declared")
}

/// One row of the validation report: a numbered obligation and whether it
/// holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// Human-readable identifier, e.g. `"(61) k=0 alpha=1"`.
    pub id: String,
    /// Whether the obligation holds on the model.
    pub holds: bool,
}

/// The complete §6.3 validation for a model (see module docs).
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Every checked obligation.
    pub obligations: Vec<Obligation>,
}

impl ValidationReport {
    /// Whether every obligation holds.
    pub fn all_hold(&self) -> bool {
        self.obligations.iter().all(|o| o.holds)
    }

    /// The ids of failing obligations.
    pub fn failures(&self) -> Vec<&str> {
        self.obligations
            .iter()
            .filter(|o| !o.holds)
            .map(|o| o.id.as_str())
            .collect()
    }

    fn push(&mut self, id: String, holds: bool) {
        self.obligations.push(Obligation { id, holds });
    }
}

/// Check the paper's §6.3 obligations — invariants (54), (61), (62),
/// stability (55), (56), and the soundness direction `candidate ⇒ K` for
/// (50) and (51) — on a compiled model.
#[must_use]
pub fn validate_soundness(model: &StandardModel, compiled: &CompiledProgram) -> ValidationReport {
    let l = model.encoding().len() as u64;
    let a = model.encoding().alphabet() as u64;
    let op = knowledge_operator(model, compiled);
    let mut report = ValidationReport {
        obligations: Vec::new(),
    };

    // (54): z ≥ k ⇒ j ≥ k, i.e. any ack in the slot is ≤ j.
    for k in 0..=l {
        let p = model
            .pred(move |s| s.z.is_some_and(|m| m >= k))
            .implies(&model.pred(move |s| s.j >= k));
        report.push(format!("(54) k={k}"), compiled.invariant(&p));
    }

    // (61): candidate (50) is truthful about x_k.
    for k in 0..l {
        for alpha in 0..a {
            let p = model
                .cand_kr_x(k, alpha)
                .implies(&model.x_elem(k as usize, alpha));
            report.push(format!("(61) k={k} alpha={alpha}"), compiled.invariant(&p));
        }
    }

    // (62)'s content: candidate (51) implies j > k (the receiver has
    // already delivered element k).
    for k in 0..l {
        let p = model.cand_ks_kr(k).implies(&model.j_gt(k));
        report.push(format!("(62) k={k}"), compiled.invariant(&p));
    }

    // (55): stable (i = k ∧ z = k+1) ∨ i > k.
    for k in 0..l {
        report.push(format!("(55) k={k}"), compiled.stable(&model.cand_ks_kr(k)));
    }

    // (56): stable z' = (k, α) ∨ (j > k ∧ w_k = α).
    for k in 0..l {
        for alpha in 0..a {
            let enc = model.encoding();
            let p = model.pred(move |s| {
                s.zp == Some((k, alpha))
                    || (s.j > k
                        && enc.w_len(s.w) as u64 > k
                        && enc.w_digit(s.w, k as usize) == alpha)
            });
            report.push(format!("(56) k={k} alpha={alpha}"), compiled.stable(&p));
        }
    }

    // candidate (50) ⇒ real K_R(x_k = α)  — the direction that suffices
    // for correctness (footnote 3: "follows from" suffices).
    for k in 0..l {
        for alpha in 0..a {
            let cand = model.cand_kr_x(k, alpha);
            let real = real_kr_x(model, &op, k, alpha);
            report.push(
                format!("(50)=>K k={k} alpha={alpha}"),
                compiled.invariant(&cand.implies(&real)),
            );
        }
    }

    // candidate (51) ⇒ real K_S K_R x_k.
    for k in 0..l {
        let cand = model.cand_ks_kr(k);
        let real = real_ks_kr(model, &op, k);
        report.push(
            format!("(51)=>K k={k}"),
            compiled.invariant(&cand.implies(&real)),
        );
    }

    // (Kbp-3): stable K_R(x_k = α) — knowledge, once attained, is not
    // forgotten. Checked with the REAL knowledge operator.
    for k in 0..l {
        for alpha in 0..a {
            let real = real_kr_x(model, &op, k, alpha);
            report.push(
                format!("(Kbp-3) k={k} alpha={alpha}"),
                compiled.stable(&compiled.si().and(&real)),
            );
        }
    }

    // (Kbp-4): stable K_S K_R x_k, with the real operator.
    for k in 0..l {
        let real = real_ks_kr(model, &op, k);
        report.push(
            format!("(Kbp-4) k={k}"),
            compiled.stable(&compiled.si().and(&real)),
        );
    }

    report
}

/// Check the *completeness* direction — the \[HZar\] Proposition-4.5
/// analogue: on reachable states the candidates coincide with the real
/// knowledge. This holds exactly when there is no a-priori information
/// about `x` (experiment E8 shows it failing under a-priori knowledge).
#[must_use]
pub fn validate_completeness(
    model: &StandardModel,
    compiled: &CompiledProgram,
) -> ValidationReport {
    let l = model.encoding().len() as u64;
    let a = model.encoding().alphabet() as u64;
    let op = knowledge_operator(model, compiled);
    let si = compiled.si();
    let mut report = ValidationReport {
        obligations: Vec::new(),
    };
    for k in 0..l {
        for alpha in 0..a {
            let cand = model.cand_kr_x(k, alpha);
            let real = real_kr_x(model, &op, k, alpha);
            report.push(
                format!("(50)=K k={k} alpha={alpha}"),
                si.and(&cand) == si.and(&real),
            );
        }
        let cand = model.cand_ks_kr(k);
        let real = real_ks_kr(model, &op, k);
        report.push(format!("(51)=K k={k}"), si.and(&cand) == si.and(&real));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::ModelOptions;

    fn model() -> (StandardModel, CompiledProgram) {
        let m = StandardModel::build(2, 2, ModelOptions::default()).unwrap();
        let c = m.compile().unwrap();
        (m, c)
    }

    #[test]
    fn soundness_obligations_all_hold() {
        // Experiment E7: every §6.3 obligation holds on the bounded model.
        let (m, c) = model();
        let report = validate_soundness(&m, &c);
        assert!(
            report.all_hold(),
            "failing obligations: {:?}",
            report.failures()
        );
        // Sanity: the report is substantial.
        assert!(report.obligations.len() >= 20);
    }

    #[test]
    fn completeness_holds_without_apriori_information() {
        // The Proposition-4.5 analogue: candidates ARE the knowledge.
        let (m, c) = model();
        let report = validate_completeness(&m, &c);
        assert!(
            report.all_hold(),
            "failing equalities: {:?}",
            report.failures()
        );
    }

    #[test]
    fn apriori_information_breaks_completeness_but_not_soundness() {
        // Experiment E8: fix x_0 = 'b' a priori.
        let m = StandardModel::build(
            2,
            2,
            ModelOptions {
                apriori_first: Some(1),
                slot_loss: false,
            },
        )
        .unwrap();
        let c = m.compile().unwrap();
        // Soundness (candidate ⇒ K, invariants, stability) survives:
        let sound = validate_soundness(&m, &c);
        assert!(sound.all_hold(), "{:?}", sound.failures());
        // ...but the candidates no longer capture all knowledge: the
        // receiver knows x_0 = 'b' from the start, candidate (50) doesn't
        // hold yet. The standard protocol is correct but NO LONGER an
        // instantiation of the knowledge-based protocol — §6.4's point.
        let complete = validate_completeness(&m, &c);
        assert!(!complete.all_hold());
        let failures = complete.failures();
        assert!(
            failures.iter().any(|f| f.contains("k=0")),
            "the a-priori element must be among the failures: {failures:?}"
        );
        // Concretely: at the initial state the receiver already knows
        // x_0 = b, while candidate (50) is false.
        let op = knowledge_operator(&m, &c);
        let init_state = c.init().witness().unwrap();
        assert!(real_kr_x(&m, &op, 0, 1).holds(init_state));
        assert!(!m.cand_kr_x(0, 1).holds(init_state));
    }

    #[test]
    fn receiver_never_knows_future_elements() {
        // Without a-priori info, K_R(x_k = α) is false whenever j ≤ k and
        // no message about k has arrived.
        let (m, c) = model();
        let op = knowledge_operator(&m, &c);
        let k1 = real_kr_x_any(&m, &op, 1);
        // At the initial states the receiver knows nothing about x_1.
        for st in c.init().iter() {
            assert!(!k1.holds(st));
        }
    }

    #[test]
    fn sender_learns_through_acks_only() {
        // K_S K_R x_k requires the ack k+1 (or having moved past k):
        // equivalently candidate (51). Spot-check: in any reachable state
        // with i = k and z ≠ ack(k+1), the sender does not know.
        let (m, c) = model();
        let op = knowledge_operator(&m, &c);
        for k in 0..2u64 {
            let real = real_ks_kr(&m, &op, k);
            let no_ack = m.pred(move |s| s.i == k && s.z != Some(k + 1));
            assert!(c.si().and(&no_ack).and(&real).is_false());
        }
    }
}
