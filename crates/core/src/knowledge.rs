//! The knowledge predicate transformer `K_i` (eq. 13) and its theory
//! (eqs. 14–24), plus the group-knowledge extensions mentioned in §3
//! (everyone-knows `E_G`, common knowledge `C_G`, distributed knowledge
//! `D_G`).
//!
//! The paper's definition: a process knows a fact in a state if the fact
//! holds in every *possible* global state (given by `SI`) the process
//! cannot distinguish from it. Technically:
//!
//! ```text
//! K_i p  ≝  p ∧ (wcyl.vars_i.(SI ⇒ p) ∨ ¬SI)          (13)
//! ```
//!
//! — on reachable states this is `wcyl.vars_i.(SI ⇒ p)`; on unreachable
//! states it is (by convention) just `p`.
//!
//! The operator itself is [`KnowledgeContext`]; this module holds its
//! [`Transformer`] view and the tests of the theory.

use std::sync::Arc;

use kpt_logic::EvalError;
use kpt_state::{Predicate, StateSpace, VarSet};
use kpt_transformers::Transformer;

use crate::context::KnowledgeContext;

/// `K_i` as a [`Transformer`] (for a fixed process), for junctivity
/// analysis — the paper's (19), (21), (22).
pub struct KnowsTransformer<'a> {
    ctx: &'a KnowledgeContext,
    view: VarSet,
}

impl<'a> KnowsTransformer<'a> {
    /// The transformer `K_process` of `ctx`.
    ///
    /// # Errors
    /// [`EvalError::UnknownProcess`] for undeclared names.
    pub fn new(ctx: &'a KnowledgeContext, process: &str) -> Result<Self, EvalError> {
        Ok(KnowsTransformer {
            ctx,
            view: ctx.view(process)?,
        })
    }
}

impl Transformer for KnowsTransformer<'_> {
    fn space(&self) -> &Arc<StateSpace> {
        self.ctx.space()
    }

    fn apply(&self, p: &Predicate) -> Predicate {
        self.ctx.knows_view(self.view, p)
    }

    fn name(&self) -> &str {
        "knows"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_transformers::{
        check_finitely_disjunctive, check_monotonic, check_universally_conjunctive, Strategy,
        Verdict,
    };
    use kpt_unity::{CompiledProgram, Program, Statement};

    /// A two-process program: P0 sees {a}, P1 sees {a, b}. One statement
    /// couples a and b; another toggles b alone (so P0 genuinely cannot
    /// distinguish b).
    fn program() -> CompiledProgram {
        let space = StateSpace::builder()
            .bool_var("a")
            .unwrap()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        Program::builder("p", &space)
            .init_str("~a")
            .unwrap()
            .process("P0", ["a"])
            .unwrap()
            .process("P1", ["a", "b"])
            .unwrap()
            .statement(
                Statement::new("couple")
                    .guard_str("~a /\\ ~b")
                    .unwrap()
                    .assign_str("a", "1")
                    .unwrap()
                    .assign_str("b", "1")
                    .unwrap(),
            )
            .statement(
                Statement::new("toggle_b")
                    .guard_str("~a /\\ ~b")
                    .unwrap()
                    .assign_str("b", "1")
                    .unwrap(),
            )
            .build()
            .unwrap()
            .compile()
            .unwrap()
    }

    fn all_preds(s: &Arc<StateSpace>) -> impl Iterator<Item = Predicate> + '_ {
        let n = s.num_states();
        let count = 1u64
            .checked_shl(n as u32)
            .unwrap_or_else(|| panic!("cannot enumerate 2^{n} predicates"));
        (0u64..count).map(move |m| Predicate::from_fn(s, |i| m >> i & 1 == 1))
    }

    #[test]
    fn eq14_knowledge_is_truthful() {
        // [K_i p ⇒ p]
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        for p in all_preds(c.space()) {
            for proc in ["P0", "P1"] {
                assert!(k.knows(proc, &p).unwrap().entails(&p));
            }
        }
    }

    #[test]
    fn eq15_distribution_axiom() {
        // [(K_i p ∧ K_i (p ⇒ q)) ⇒ K_i q]
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        let preds: Vec<_> = all_preds(c.space()).collect();
        for p in &preds {
            for q in &preds {
                for proc in ["P0", "P1"] {
                    let kp = k.knows(proc, p).unwrap();
                    let kimp = k.knows(proc, &p.implies(q)).unwrap();
                    let kq = k.knows(proc, q).unwrap();
                    assert!(kp.and(&kimp).entails(&kq));
                }
            }
        }
    }

    #[test]
    fn eq16_positive_introspection() {
        // [K_i p ≡ K_i K_i p]
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        for p in all_preds(c.space()) {
            for proc in ["P0", "P1"] {
                let kp = k.knows(proc, &p).unwrap();
                assert_eq!(kp, k.knows(proc, &kp).unwrap());
            }
        }
    }

    #[test]
    fn eq17_negative_introspection() {
        // [¬K_i p ≡ K_i ¬K_i p]
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        for p in all_preds(c.space()) {
            for proc in ["P0", "P1"] {
                let nkp = k.knows(proc, &p).unwrap().negate();
                assert_eq!(nkp, k.knows(proc, &nkp).unwrap());
            }
        }
    }

    #[test]
    fn eq18_necessitation() {
        // [p] ⇒ [K_i p]
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        let tt = Predicate::tt(c.space());
        for proc in ["P0", "P1"] {
            assert!(k.knows(proc, &tt).unwrap().everywhere());
        }
    }

    #[test]
    fn eq19_monotonic_in_p() {
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        for proc in ["P0", "P1"] {
            let t = KnowsTransformer::new(&k, proc).unwrap();
            assert_eq!(check_monotonic(&t, Strategy::Exhaustive), Verdict::Holds);
        }
    }

    #[test]
    fn eq20_antimonotonic_in_si_on_reachable_states() {
        // Strengthening SI weakens what is reachable-ly known... more
        // precisely: for SI' ⊆ SI, K^{SI'} ≥ K^{SI} *on SI' states*.
        let c = program();
        let space = c.space().clone();
        let views = vec![
            ("P0".to_owned(), space.var_set(["a"]).unwrap()),
            ("P1".to_owned(), space.var_set(["a", "b"]).unwrap()),
        ];
        let preds: Vec<_> = all_preds(&space).collect();
        for si_big in preds.iter().step_by(3) {
            for si_small in preds.iter().step_by(5) {
                if !si_small.entails(si_big) {
                    continue;
                }
                let k_big = KnowledgeContext::new(&space, views.clone(), si_big.clone()).unwrap();
                let k_small =
                    KnowledgeContext::new(&space, views.clone(), si_small.clone()).unwrap();
                for p in preds.iter().step_by(7) {
                    let kb = k_big.knows("P0", p).unwrap();
                    let ks = k_small.knows("P0", p).unwrap();
                    // On states of the smaller SI, more is known.
                    assert!(si_small.and(&kb).entails(&ks));
                }
            }
        }
    }

    #[test]
    fn eq21_universally_conjunctive() {
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        for proc in ["P0", "P1"] {
            let t = KnowsTransformer::new(&k, proc).unwrap();
            assert_eq!(
                check_universally_conjunctive(&t, Strategy::Exhaustive),
                Verdict::Holds
            );
        }
    }

    #[test]
    fn eq22_not_disjunctive() {
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        let t = KnowsTransformer::new(&k, "P0").unwrap();
        assert!(!check_finitely_disjunctive(&t, Strategy::Exhaustive).passed());
    }

    #[test]
    fn eq23_invariant_p_iff_invariant_kp() {
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        for p in all_preds(c.space()) {
            for proc in ["P0", "P1"] {
                let kp = k.knows(proc, &p).unwrap();
                assert_eq!(c.invariant(&p), c.invariant(&kp));
            }
        }
    }

    #[test]
    fn eq24_view_local_implications_transfer_to_knowledge() {
        // If q depends only on vars_i:
        // invariant (q ⇒ p)  ≡  invariant (q ⇒ K_i p).
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        let space = c.space().clone();
        let preds: Vec<_> = all_preds(&space).collect();
        for proc in ["P0", "P1"] {
            let view = k.view(proc).unwrap();
            for q in preds.iter().filter(|q| q.depends_only_on(view)) {
                for p in preds.iter().step_by(3) {
                    let kp = k.knows(proc, p).unwrap();
                    assert_eq!(
                        c.invariant(&q.implies(p)),
                        c.invariant(&q.implies(&kp)),
                        "proc {proc}"
                    );
                }
            }
        }
    }

    #[test]
    fn knowledge_respects_views() {
        let c = program();
        let space = c.space().clone();
        let k = KnowledgeContext::for_program(&c);
        let b = Predicate::var_is_true(&space, space.var("b").unwrap());
        // P1 sees b, so K_{P1} b = b on reachable states.
        let k1b = k.knows("P1", &b).unwrap();
        assert_eq!(c.si().and(&k1b), c.si().and(&b));
        // P0 does not see b; in the initial state (~a ~b), P0 cannot know b.
        let init = c.init().witness().unwrap();
        assert!(!k.knows("P0", &b).unwrap().holds(init));
        // K_i p depends only on vars_i *within SI*... the full predicate
        // also carries p on unreachable states; check the reachable part is
        // view-measurable when restricted:
        let k0 = k.knows("P0", &b).unwrap();
        // states in SI with same `a` value agree on K0 b:
        let a = space.var("a").unwrap();
        for s1 in c.si().iter() {
            for s2 in c.si().iter() {
                if space.value(s1, a) == space.value(s2, a) {
                    assert_eq!(k0.holds(s1), k0.holds(s2));
                }
            }
        }
    }

    #[test]
    fn unknown_process_errors() {
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        let p = Predicate::tt(c.space());
        assert!(matches!(
            k.knows("nobody", &p),
            Err(EvalError::UnknownProcess(_))
        ));
        assert!(k.everyone(&["P0", "nobody"], &p).is_err());
        assert!(k.common(&["nobody"], &p).is_err());
        assert!(k.distributed(&["nobody"], &p).is_err());
        assert!(KnowsTransformer::new(&k, "nobody").is_err());
    }

    #[test]
    fn group_knowledge_ordering() {
        // C_G p ⇒ E_G p ⇒ K_i p ⇒ p ⇒ ... and K_i p ⇒ D_G p.
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        let g = ["P0", "P1"];
        for p in all_preds(c.space()).step_by(3) {
            let cg = k.common(&g, &p).unwrap();
            let eg = k.everyone(&g, &p).unwrap();
            let k0 = k.knows("P0", &p).unwrap();
            let dg = k.distributed(&g, &p).unwrap();
            assert!(cg.entails(&eg));
            assert!(eg.entails(&k0));
            assert!(k0.entails(&dg), "K_i ⇒ D_G");
            assert!(dg.entails(&p));
        }
    }

    #[test]
    fn common_knowledge_is_a_fixpoint() {
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        let g = ["P0", "P1"];
        for p in all_preds(c.space()).step_by(5) {
            let cg = k.common(&g, &p).unwrap();
            assert_eq!(cg, k.everyone(&g, &p.and(&cg)).unwrap());
        }
    }

    #[test]
    fn distributed_knowledge_pools_views() {
        // P0 sees a; make a second process that sees b only; together they
        // determine the state exactly, so D_G p = p on SI.
        let space = StateSpace::builder()
            .bool_var("a")
            .unwrap()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        let views = vec![
            ("A".to_owned(), space.var_set(["a"]).unwrap()),
            ("B".to_owned(), space.var_set(["b"]).unwrap()),
        ];
        let si = Predicate::tt(&space);
        let k = KnowledgeContext::new(&space, views, si).unwrap();
        for p in all_preds(&space) {
            assert_eq!(k.distributed(&["A", "B"], &p).unwrap(), p);
        }
    }

    #[test]
    fn knowledge_fn_plugs_into_eval_context() {
        use kpt_logic::{parse_formula, EvalContext};
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        let f = k.knowledge_fn();
        let ctx = EvalContext::new(c.space()).with_knowledge(f.as_ref());
        let formula = parse_formula("K{P1}(b)").unwrap();
        let direct = k
            .knows(
                "P1",
                &Predicate::var_is_true(c.space(), c.space().var("b").unwrap()),
            )
            .unwrap();
        assert_eq!(ctx.eval(&formula).unwrap(), direct);
    }

    #[test]
    fn value_on_unreachable_states_is_p() {
        // Eq. (13)'s convention: K_i p has the value p outside SI.
        let c = program();
        let k = KnowledgeContext::for_program(&c);
        let not_si = c.si().negate();
        for p in all_preds(c.space()).step_by(3) {
            let kp = k.knows("P0", &p).unwrap();
            assert_eq!(not_si.and(&kp), not_si.and(&p));
        }
    }
}
