//! Flamegraph-profile the symbolic solver: run muddy-children(6) through
//! the eq. (25) iteration with garbage collection and dynamic sifting
//! enabled, plus a strongest-invariant sweep over a 2^48-state toggle
//! cube, with the hierarchical span profiler on. Writes
//! `PROFILE_muddy6.folded` — flamegraph.pl-compatible collapsed stacks
//! (`solve;fixpoint;sp;and_exists self_µs` per line) — and prints the
//! solver's self-time attribution and the BDD manager's live-node gauge
//! trajectory across GC cycles.
//!
//! Run with: `cargo run --release --example profile_muddy`
//!
//! Setting `KPT_PROFILE=<path>` achieves the same on any binary without
//! code; this example installs the profiler programmatically so it works
//! out of the box. Render the artifact with Brendan Gregg's
//! `flamegraph.pl PROFILE_muddy6.folded > profile.svg`.

use knowledge_pt::bdd::{
    symbolic_sst_with_stats, BddConfig, BddSpace, GcPolicy, ReorderPolicy, SymbolicKbp,
    SymbolicOutcome, SymbolicPredicate, SymbolicTransition,
};
use knowledge_pt::prelude::StateSpace;

const PROFILE_PATH: &str = "PROFILE_muddy6.folded";

/// GC + sifting thresholds low enough that muddy-children(6) passes
/// several collection cycles, so the gauge trajectory shows the sawtooth.
fn gc_sift_config() -> BddConfig {
    BddConfig {
        gc: GcPolicy::OnGrowth {
            min_nodes: 4_096,
            dead_percent: 20,
        },
        reorder: ReorderPolicy::SiftOnGrowth {
            trigger_nodes: 8_192,
            max_growth_percent: 20,
        },
    }
}

/// A 48-variable toggle cube: every statement flips one boolean, so the
/// strongest invariant reaches all 2^48 states — far beyond any explicit
/// sweep, routine for the symbolic frontier.
fn huge_si() {
    let nvars = 48;
    let mut b = StateSpace::builder();
    for i in 0..nvars {
        b = b.bool_var(&format!("b{i}")).unwrap();
    }
    let space = b.build().unwrap();
    let bdd = BddSpace::new(&space);
    let transitions: Vec<SymbolicTransition> = (0..nvars)
        .map(|i| {
            let v = space.var(&format!("b{i}")).unwrap();
            SymbolicTransition::builder(&bdd)
                .assign(v, &[v], |x| 1 - x[0])
                .build()
                .unwrap()
        })
        .collect();
    let init = (0..nvars).fold(SymbolicPredicate::tt(&bdd), |acc, i| {
        let v = space.var(&format!("b{i}")).unwrap();
        acc.and(&SymbolicPredicate::var_eq(&bdd, v, 0))
    });
    let (si, stats) = symbolic_sst_with_stats(&init, &transitions);
    assert_eq!(si.count(), space.num_states());
    println!(
        "2^48 SI: {} states reached in {} rounds ({} BDD nodes)",
        si.count(),
        stats.rounds,
        stats.nodes
    );
}

fn main() {
    let _ = std::fs::remove_file(PROFILE_PATH);
    kpt_obs::profile_to_file(PROFILE_PATH);
    println!("profiling to {PROFILE_PATH} (equivalent to KPT_PROFILE={PROFILE_PATH})\n");

    // -- muddy-children(6): eq. (25) under GC + sifting -------------------
    let (_, kbp) = knowledge_pt::core::load_kpt(knowledge_pt::core::muddy_children_kpt(6))
        .expect("muddy6 parses");
    let sym = SymbolicKbp::from_program_with(kbp.program(), gc_sift_config())
        .expect("symbolic translation");
    match sym.solve_iterative(64).expect("symbolic solve") {
        SymbolicOutcome::Converged {
            solution,
            iterations,
        } => println!(
            "muddy6: converged after {iterations} iteration(s), {} solution states",
            solution.count()
        ),
        other => panic!("muddy6 should converge, got {other:?}"),
    }

    // -- BDD live-node gauge trajectory across GC cycles ------------------
    let gauges: Vec<(String, u64, u64)> = kpt_obs::recent_events()
        .iter()
        .filter(|e| e.kind == "bdd.gauge")
        .filter_map(|e| {
            let phase = match e.field("phase")? {
                kpt_obs::Field::Str(s) => s.clone(),
                _ => return None,
            };
            let num = |name: &str| match e.field(name) {
                Some(kpt_obs::Field::U64(n)) => Some(*n),
                _ => None,
            };
            Some((phase, num("live_nodes")?, num("unique_rows")?))
        })
        .collect();
    let gc_pre = gauges.iter().filter(|(p, ..)| p == "gc.pre").count();
    let sweeps: Vec<&(String, u64, u64)> =
        gauges.iter().filter(|(p, ..)| p != "checkpoint").collect();
    println!(
        "\nbdd gauge samples ({} total, {gc_pre} GC cycles; last {} shown):",
        gauges.len(),
        sweeps.len().min(16)
    );
    println!("{:<12} {:>12} {:>12}", "phase", "live_nodes", "unique_rows");
    for (phase, live, rows) in sweeps.iter().rev().take(16).rev() {
        println!("{phase:<12} {live:>12} {rows:>12}");
    }
    assert!(
        gc_pre >= 1,
        "expected at least one GC cycle under this config"
    );

    // -- the 2^48-state strongest invariant -------------------------------
    println!();
    huge_si();

    // -- flush and show the folded stacks ---------------------------------
    kpt_obs::flush_profile();
    let folded = std::fs::read_to_string(PROFILE_PATH).expect("profile artifact");
    println!("\ntop folded stacks by self-time ({PROFILE_PATH}):");
    let mut lines: Vec<(&str, u64)> = folded
        .lines()
        .filter_map(|l| {
            let (stack, weight) = l.rsplit_once(' ')?;
            Some((stack, weight.parse().ok()?))
        })
        .collect();
    lines.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    for (stack, weight) in lines.iter().take(12) {
        println!("{weight:>12}µs  {stack}");
    }
    assert!(
        lines
            .iter()
            .any(|(s, _)| s.contains("bdd.solver.iterative;bdd.fixpoint")),
        "solve -> fixpoint attribution missing from the profile"
    );
}
