//! The session arena is transparent: solving through a shared, memoized,
//! concurrently hammered [`Model`] yields bit-identical results to a
//! fresh elaboration per call — including while LRU eviction is churning
//! the arena under a hostile byte budget.

use std::sync::Arc;
use std::thread;

use kpt_core::{IterativeOutcome, Kbp};
use kpt_server::{SessionConfig, Sessions};
use kpt_state::Predicate;

const MAX_ITERATIONS: usize = 64;

fn sources() -> Vec<String> {
    vec![
        kpt_core::muddy_children_kpt(2),
        kpt_core::attacking_generals_kpt().to_owned(),
        kpt_core::dining_cryptographers_kpt().to_owned(),
    ]
}

/// The ground truth: a fresh, unshared elaboration and solve.
fn fresh_outcome(src: &str) -> IterativeOutcome {
    let (_, kbp) = kpt_core::load_kpt(src).expect("zoo source parses");
    kbp.solve_iterative(MAX_ITERATIONS).expect("solve runs")
}

fn hammer(sessions: Arc<Sessions>, threads: usize, rounds: usize) {
    let srcs = sources();
    let expected: Vec<IterativeOutcome> = srcs.iter().map(|s| fresh_outcome(s)).collect();
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sessions = Arc::clone(&sessions);
            let expected = Arc::clone(&expected);
            let srcs = srcs.clone();
            thread::spawn(move || {
                for r in 0..rounds {
                    // Offset start positions so threads collide on every
                    // source from the first round.
                    let i = (t + r) % srcs.len();
                    let model = sessions.get_or_load(&srcs[i]).expect("source loads");
                    let got = model
                        .kbp()
                        .solve_iterative(MAX_ITERATIONS)
                        .expect("solve runs");
                    // Predicate equality is bitset equality: bit-identical.
                    assert_eq!(got, expected[i], "outcome differs for source {i}");
                    // Knowledge queries against the shared solution also
                    // agree with a fresh model's.
                    if let IterativeOutcome::Converged { solution, .. } = &got {
                        let compiled = model.kbp().compile_at(solution).expect("compiles");
                        assert!(compiled.si().entails(&Predicate::tt(model.space())));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("hammer thread panicked");
    }
}

#[test]
fn concurrent_shared_sessions_match_fresh_solves() {
    let sessions = Arc::new(Sessions::new(SessionConfig::default()));
    hammer(Arc::clone(&sessions), 8, 6);
    // Everything fit. Racing first loads may each elaborate (both count
    // as misses; one insertion wins), so bound the counters rather than
    // pin them: at most one miss per thread per source, and every other
    // access was a hit.
    assert_eq!(sessions.len(), 3);
    assert_eq!(sessions.evictions(), 0);
    assert!(sessions.misses() >= 3 && sessions.misses() <= 8 * 3);
    assert!(sessions.hits() + sessions.misses() == 8 * 6);
}

#[test]
fn eviction_churn_never_corrupts_live_requests() {
    // A budget too small for even one model: every insertion evicts the
    // previous entry, so concurrent threads constantly lose the arena's
    // Arc out from under each other — their own clones must stay valid
    // and their results exact.
    let sessions = Arc::new(Sessions::new(SessionConfig {
        max_models: 1,
        max_bytes: 1,
    }));
    hammer(Arc::clone(&sessions), 8, 4);
    assert!(
        sessions.evictions() > 0,
        "the tight budget must actually evict (got {} evictions)",
        sessions.evictions()
    );
    assert_eq!(sessions.len(), 1, "bounds hold after the churn");
}

/// Re-solving through the *same* shared `Kbp` twice is deterministic even
/// with the SI memo warm — the memo caches by candidate predicate, so a
/// warm hit returns the identical predicate.
#[test]
fn warm_memo_is_deterministic() {
    let sessions = Sessions::new(SessionConfig::default());
    let model = sessions
        .get_or_load(&kpt_core::muddy_children_kpt(2))
        .expect("loads");
    let first = model.kbp().solve_iterative(MAX_ITERATIONS).expect("solve");
    let second = model.kbp().solve_iterative(MAX_ITERATIONS).expect("solve");
    assert_eq!(second, first);
    // And both agree with an entirely fresh Kbp sharing nothing.
    let (_, fresh) = kpt_core::load_kpt(&kpt_core::muddy_children_kpt(2)).expect("parses");
    let fresh_kbp: &Kbp = &fresh;
    assert_eq!(
        fresh_kbp.solve_iterative(MAX_ITERATIONS).expect("solve"),
        first
    );
}
