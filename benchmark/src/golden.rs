//! The hand-written golden verdict table. Every op's verdict is compared
//! against it; one mismatch makes the run invalid (exit code 2).
//!
//! Values agree with the repository's zoo and registry tests and its
//! EXPERIMENTS tables (for example russian cards `converged@2` with 196
//! solution states, figure 1 a period-2 cycle entered at once, cache
//! coherence linting KPT008/KPT009/KPT011).

use crate::deck::Kind;

/// An eq.-(25) iteration outcome. Both engines must reach the golden one;
/// no golden row is `Inconclusive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Converged { iterations: usize, states: u64 },
    Cycle { period: usize, entered_after: usize },
    Inconclusive { iterations: usize },
}

/// What one op reports, in a form both the library and the wire give.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Checked { lint: Vec<String>, outcome: Outcome },
    Parsed { states: u64 },
    Linted(Vec<String>),
    Solved(Outcome),
    Verified(bool),
    Explained(bool),
}

/// One model's expected verdicts.
#[derive(Debug, Clone)]
pub struct Golden {
    pub model: &'static str,
    /// State-space size, as `parse` reports it.
    pub states: u64,
    pub outcome: Outcome,
    /// Exact full-depth lint codes, sorted.
    pub lint: &'static [&'static str],
    /// An invariant `verify` checks against the solution, and whether it
    /// holds (only models that `verify` cards use have one).
    pub verify: Option<(&'static str, bool)>,
}

impl Golden {
    /// The verdict an op of `kind` on this model must report. `explain`
    /// holds exactly when the iteration converges.
    ///
    /// # Panics
    /// On a `verify` card for a model without a golden invariant.
    pub fn expect(&self, kind: Kind) -> Verdict {
        let lint = || self.lint.iter().map(|c| c.to_string()).collect();
        match kind {
            Kind::Check => Verdict::Checked {
                lint: lint(),
                outcome: self.outcome,
            },
            Kind::Parse => Verdict::Parsed {
                states: self.states,
            },
            Kind::Lint => Verdict::Linted(lint()),
            Kind::SolveExplicit | Kind::SolveSymbolic => Verdict::Solved(self.outcome),
            Kind::Verify => Verdict::Verified(self.invariant().1),
            Kind::Explain => Verdict::Explained(matches!(self.outcome, Outcome::Converged { .. })),
        }
    }

    /// The golden invariant and whether it holds.
    ///
    /// # Panics
    /// If the model has none.
    pub fn invariant(&self) -> (&'static str, bool) {
        self.verify
            .unwrap_or_else(|| panic!("{} has no golden invariant", self.model))
    }
}

const fn converged(iterations: usize, states: u64) -> Outcome {
    Outcome::Converged { iterations, states }
}

pub const GOLDEN: &[Golden] = &[
    Golden {
        model: "muddy_children_2",
        states: 48,
        outcome: converged(2, 16),
        lint: &[],
        verify: None,
    },
    Golden {
        model: "muddy_children_3",
        states: 256,
        outcome: converged(5, 65),
        lint: &[],
        verify: None,
    },
    Golden {
        model: "muddy_children_4",
        states: 1280,
        outcome: converged(6, 250),
        lint: &[],
        verify: None,
    },
    Golden {
        model: "muddy_children_5",
        states: 6144,
        outcome: converged(7, 967),
        lint: &[],
        verify: None,
    },
    Golden {
        model: "muddy_children_6",
        states: 28672,
        outcome: converged(8, 3808),
        lint: &[],
        verify: None,
    },
    Golden {
        model: "attacking_generals",
        states: 64,
        outcome: converged(3, 9),
        lint: &[],
        verify: Some(("attack1 => msg", true)),
    },
    Golden {
        model: "cache_coherence",
        states: 18,
        outcome: converged(2, 6),
        lint: &["KPT008", "KPT009", "KPT011"],
        verify: Some(("c0 = mod => c1 = inv", true)),
    },
    Golden {
        model: "dining_cryptographers",
        states: 12288,
        outcome: converged(2, 288),
        lint: &[],
        verify: None,
    },
    Golden {
        model: "russian_cards",
        states: 458752,
        outcome: converged(2, 196),
        lint: &[],
        verify: None,
    },
    Golden {
        model: "counter_knowledge",
        states: 10,
        outcome: converged(2, 10),
        lint: &["KPT009", "KPT011"],
        // `dec` may count back down after `finish`, so this fails.
        verify: Some(("done => i >= 2", false)),
    },
    Golden {
        model: "enum_labels",
        states: 18,
        outcome: converged(2, 6),
        lint: &["KPT008"],
        verify: None,
    },
    Golden {
        model: "figure1",
        states: 4,
        outcome: Outcome::Cycle {
            period: 2,
            entered_after: 0,
        },
        lint: &["KPT009", "KPT011"],
        verify: None,
    },
    Golden {
        model: "nested_knowledge",
        states: 8,
        outcome: converged(2, 4),
        lint: &["KPT009", "KPT011"],
        verify: None,
    },
    Golden {
        model: "parallel_swap",
        states: 32,
        outcome: converged(2, 2),
        lint: &[],
        verify: None,
    },
    Golden {
        model: "plain_counter",
        states: 6,
        outcome: converged(2, 6),
        lint: &[],
        verify: None,
    },
];

/// The golden row for `model` in `table`.
///
/// # Panics
/// If the table has no row for it (every deck model has one; a unit
/// test checks that).
pub fn lookup<'t>(table: &'t [Golden], model: &str) -> &'t Golden {
    table
        .iter()
        .find(|g| g.model == model)
        .unwrap_or_else(|| panic!("golden table has no row for {model}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::{Workload, MODELS};

    #[test]
    fn every_bundled_model_has_exactly_one_row() {
        for m in MODELS {
            assert_eq!(
                GOLDEN.iter().filter(|g| g.model == m.name).count(),
                1,
                "{}",
                m.name
            );
        }
        assert_eq!(GOLDEN.len(), MODELS.len());
        for w in Workload::ALL {
            for card in w.deck() {
                if card.kind == Kind::Verify {
                    lookup(GOLDEN, card.model.name).invariant();
                }
            }
        }
    }
}
