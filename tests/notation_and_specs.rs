//! Integration tests for the notation layer through the public facade:
//! textual program parsing, paper-layout printing, run monitoring, and
//! mixed specifications.

use knowledge_pt::prelude::*;
use knowledge_pt::unity::{parse_program, MixedSpec};

const DINING_TEXT: &str = r"
program handshake
declare
  turn : {mine, yours}
  a_done : boolean
  b_done : boolean
processes
  A = {turn, a_done}
  B = {turn, b_done}
init
  turn = mine /\ ~a_done /\ ~b_done
assign
  a_work: a_done := 1 || turn := 1 if turn = mine /\ ~a_done
  [] b_work: b_done := 1 || turn := 0 if turn = yours /\ ~b_done
";

#[test]
fn parse_verify_and_monitor() {
    let (space, program) = parse_program(DINING_TEXT).unwrap();
    let compiled = program.compile().unwrap();

    // Model-check: both sides finish.
    let both = parse_formula("a_done /\\ b_done").unwrap();
    let ctx = EvalContext::new(&space);
    let both_pred = ctx.eval(&both).unwrap();
    assert!(compiled.leads_to_holds(&Predicate::tt(&space), &both_pred));

    // Execute and monitor the run with formulas.
    let start = compiled.init().witness().unwrap();
    let mut sched = RoundRobin::new();
    let run = execute(&compiled, start, 10, &mut sched);
    let order = parse_formula("b_done => a_done").unwrap();
    assert!(run.all_satisfy(&ctx, &order).unwrap(), "A hands over first");
    assert!(run.first_satisfying(&ctx, &both).unwrap().is_some());

    // The pretty-printer emits the paper layout and the text reparses.
    let printed = program.to_string();
    assert!(printed.contains("program handshake"));
    assert!(printed.contains("A = {turn, a_done}"));
    let reparsable = printed
        .lines()
        .filter(|l| !l.trim_start().starts_with("1 state"))
        .collect::<Vec<_>>()
        .join("\n")
        .replace("init\n", "init\n  turn = mine /\\ ~a_done /\\ ~b_done\n");
    let (_, again) = parse_program(&reparsable).unwrap();
    assert_eq!(again.statements().len(), 2);
    let again_c = again.compile().unwrap();
    assert_eq!(again_c.si(), compiled.si());
}

#[test]
fn mixed_spec_over_parsed_program() {
    let (space, program) = parse_program(DINING_TEXT).unwrap();
    let ctx = EvalContext::new(&space);
    let a_done = ctx.eval(&parse_formula("a_done").unwrap()).unwrap();
    let b_done = ctx.eval(&parse_formula("b_done").unwrap()).unwrap();
    let spec = MixedSpec::new(program)
        .invariant("b-after-a", b_done.implies(&a_done))
        .stable("a-latched", a_done.clone())
        .leads_to("completes", Predicate::tt(&space), a_done.and(&b_done));
    let r = spec.check_implementable().unwrap();
    assert!(r.is_implementable(), "{:?}", r.violations);
}

#[test]
fn parsed_kbp_round_trips_through_the_solver() {
    // A parsed knowledge-based protocol goes straight into the eq. (25)
    // machinery.
    let src = r"
program parsed_kbp
declare
  b : boolean
processes
  P = {}
init
  ~b
assign
  s: b := 1 if ~K{P}(~b)
";
    let (_, program) = parse_program(src).unwrap();
    assert!(program.is_knowledge_based());
    let kbp = Kbp::new(program);
    let sols = kbp.solve_exhaustive(16).unwrap();
    // The self-referential blind-process KBP: two solutions (see
    // kbp_solutions.rs for the analysis).
    assert_eq!(sols.len(), 2);
}

#[test]
fn figures_from_text_equal_builtin_figures() {
    // The Figure-2 text parses to a program with the same solution
    // structure as the shipped model.
    let src = r"
program figure2
declare
  x : boolean
  y : boolean
  z : boolean
processes
  P0 = {y}
  P1 = {z}
init
  ~y
assign
  set_y: y := 1 if K{P0}(x)
  [] set_z: z := 1 if K{P1}(~y)
";
    let (space, program) = parse_program(src).unwrap();
    let parsed = Kbp::new(program);
    let builtin = figure2("~y").unwrap();
    let ps = parsed.solve_exhaustive(16).unwrap();
    let bs = builtin.solve_exhaustive(16).unwrap();
    assert_eq!(ps.len(), bs.len());
    let not_y = Predicate::var_is_true(&space, space.var("y").unwrap()).negate();
    assert_eq!(ps.strongest(), Some(&not_y));
    assert_eq!(bs.strongest(), Some(&not_y));
}
