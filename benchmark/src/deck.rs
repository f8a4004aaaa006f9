//! The benchmark's inputs: the bundled `.kpt` sources, each workload's
//! deck of (model, kind) cards, and the seeded op streams dealt from it.
//!
//! The sources are copies under `models/`, not the library's own zoo
//! and corpus, so a change to those does not silently change what the
//! benchmark measures.

use std::borrow::Cow;

use crate::host::Reference;

/// One bundled `.kpt` model.
#[derive(Debug)]
pub struct Model {
    pub name: &'static str,
    pub source: &'static str,
}

macro_rules! models {
    ($($name:literal),* $(,)?) => {
        &[$(Model {
            name: $name,
            source: include_str!(concat!("../models/", $name, ".kpt")),
        }),*]
    };
}

/// Every model any deck uses.
pub const MODELS: &[Model] = models![
    "muddy_children_2",
    "muddy_children_3",
    "muddy_children_4",
    "muddy_children_5",
    "muddy_children_6",
    "attacking_generals",
    "cache_coherence",
    "dining_cryptographers",
    "russian_cards",
    "counter_knowledge",
    "enum_labels",
    "figure1",
    "nested_knowledge",
    "parallel_swap",
    "plain_counter",
];

/// The bundled model called `name`.
///
/// # Panics
/// If no bundled model has that name (a bug in a deck or the golden table).
pub fn model(name: &str) -> &'static Model {
    MODELS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no bundled model named {name}"))
}

/// What one op does with its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// Library: elaborate, full-depth lint, fresh `Kbp` and eq.-(25) solve.
    Check,
    Parse,
    Lint,
    SolveExplicit,
    SolveSymbolic,
    Verify,
    Explain,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Check => "check",
            Kind::Parse => "parse",
            Kind::Lint => "lint",
            Kind::SolveExplicit => "solve_explicit",
            Kind::SolveSymbolic => "solve_symbolic",
            Kind::Verify => "verify",
            Kind::Explain => "explain",
        }
    }

    /// The latency class per-kind numbers are reported under; `verify`
    /// counts under solve.
    pub fn class(self) -> &'static str {
        match self {
            Kind::Check => "check",
            Kind::Parse => "parse",
            Kind::Lint => "lint",
            Kind::SolveExplicit | Kind::SolveSymbolic | Kind::Verify => "solve",
            Kind::Explain => "explain",
        }
    }
}

/// One card of a deck.
#[derive(Debug, Clone, Copy)]
pub struct Card {
    pub model: &'static Model,
    pub kind: Kind,
}

fn cards(kinds: &[Kind], models: &[&str]) -> Vec<Card> {
    kinds
        .iter()
        .flat_map(|&kind| {
            models.iter().map(move |name| Card {
                model: model(name),
                kind,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EditCheck,
    SolveLarge,
    ServeWarm,
    ServeCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EditCheck,
        Workload::SolveLarge,
        Workload::ServeWarm,
        Workload::ServeCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EditCheck => "edit_check",
            Workload::SolveLarge => "solve_large",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeCold => "serve_cold",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether ops go to a `kpt_server::Server` over TCP loopback.
    pub fn over_wire(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServeCold)
    }

    /// The reference work whose speed this workload's CPU work follows
    /// on a drifting host (see `host`).
    pub fn reference(self) -> Reference {
        match self {
            // Symbolic lint's BDD work; JSON frames and small answers.
            Workload::EditCheck | Workload::ServeWarm => Reference::Heap,
            // Explicit solves over bitsets, and large elaborations.
            Workload::SolveLarge | Workload::ServeCold => Reference::Alu,
        }
    }

    /// Closed-loop clients (threads or connections) driving the load.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeWarm => nproc().min(2),
            _ => 1,
        }
    }

    /// The deck. Sizes are odd so the median falls inside one card's
    /// latency class instead of on the boundary between two.
    pub fn deck(self) -> Vec<Card> {
        use Kind::*;
        match self {
            // A modeller's edit-check loop over small and mid-size models:
            // symbolic lint dominates, elaboration and solving are small.
            // Muddy 3 and 4 appear twice, so p90 falls well inside the
            // costliest (muddy 4) card's latencies, not at a card's tail.
            Workload::EditCheck => cards(
                &[Check],
                &[
                    "muddy_children_2",
                    "muddy_children_3",
                    "muddy_children_3",
                    "muddy_children_4",
                    "muddy_children_4",
                    "attacking_generals",
                    "cache_coherence",
                    "counter_knowledge",
                    "enum_labels",
                    "figure1",
                    "nested_knowledge",
                    "parallel_swap",
                    "plain_counter",
                ],
            ),
            // Cold eq.-(25) solves on programs elaborated during set-up:
            // the solver layers do all the work. Between runs, a solve
            // moves with the host's load by more the smaller it is (muddy
            // 4 about 20 %, symbolic muddy up to 2x, explicit russian
            // cards about 10 %), so the largest solve, explicit russian
            // cards, is three of the five cards and holds both the median
            // and p90.
            Workload::SolveLarge => {
                let mut deck = cards(
                    &[SolveExplicit],
                    &[
                        "muddy_children_6",
                        "russian_cards",
                        "russian_cards",
                        "russian_cards",
                    ],
                );
                deck.extend(cards(&[SolveSymbolic], &["russian_cards"]));
                deck
            }
            // Small models repeated verbatim, so every request after the
            // warm-up hits the session arena: the wire path dominates.
            // Answers the server streams progress frames before (lint,
            // symbolic solve, verify) wait out a ~40 ms transport stall;
            // the rest take a fraction of a millisecond, most of it thread
            // wake-ups, which moved 15-30 % between runs on a shared host.
            // So 13 of the 19 cards stall, and the median and p90 both fall
            // inside the stalled answers, whose time the kernel's timers
            // set.
            Workload::ServeWarm => {
                let all = [
                    "muddy_children_2",
                    "muddy_children_3",
                    "attacking_generals",
                    "cache_coherence",
                    "counter_knowledge",
                ];
                let mut deck = cards(
                    &[Parse, SolveExplicit, Explain],
                    &["muddy_children_3", "cache_coherence"],
                );
                deck.extend(cards(&[Lint, SolveSymbolic], &all));
                deck.extend(cards(
                    &[Verify],
                    &["attacking_generals", "cache_coherence", "counter_knowledge"],
                ));
                deck
            }
            // Every source is unique, so every request elaborates and,
            // once the arena is full, evicts. Russian cards is elaborated
            // once a round (its solve); a second, parse-only russian card
            // would double the round and leave too few rounds in a run.
            Workload::ServeCold => {
                let mut deck = cards(&[Parse], &["muddy_children_6", "dining_cryptographers"]);
                deck.extend(cards(
                    &[SolveExplicit],
                    &[
                        "russian_cards",
                        "dining_cryptographers",
                        "muddy_children_6",
                        "muddy_children_5",
                        "muddy_children_4",
                    ],
                ));
                deck
            }
        }
    }
}

/// Available hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One op: a card plus the exact source text sent with it.
#[derive(Debug)]
pub struct Op {
    pub card: Card,
    pub source: Cow<'static, str>,
}

/// SplitMix64: the op order depends on the seed alone, not on any
/// library's generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One client's seeded op list, dealt one round (a shuffle of the whole
/// deck) at a time, so any stopping point at a round boundary keeps the
/// deck's proportions exactly.
pub struct OpStream {
    workload: Workload,
    client: usize,
    seed: u64,
    rng: SplitMix64,
    deck: Vec<Card>,
    dealt: u64,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, client: usize) -> OpStream {
        let mix = (client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        OpStream {
            workload,
            client,
            seed,
            rng: SplitMix64(seed ^ mix),
            deck: workload.deck(),
            dealt: 0,
        }
    }

    pub fn next_round(&mut self) -> Vec<Op> {
        let mut round = self.deck.clone();
        self.rng.shuffle(&mut round);
        round
            .into_iter()
            .map(|card| {
                self.dealt += 1;
                let tag = format!("{}-{}-{}", self.seed, self.client, self.dealt);
                make_op(self.workload, card, &tag)
            })
            .collect()
    }
}

/// The untimed warm-up round: the deck in deck order, with variant tags
/// of its own so it never shares a source with a timed op.
pub fn warm_up_round(workload: Workload, client: usize) -> Vec<Op> {
    workload
        .deck()
        .into_iter()
        .enumerate()
        .map(|(i, card)| make_op(workload, card, &format!("warm-{client}-{i}")))
        .collect()
}

/// A `serve_cold` source gets a `// variant <tag>` line: the program is
/// the same, the text (and so the session-arena key) is new.
fn make_op(workload: Workload, card: Card, tag: &str) -> Op {
    let source = if workload == Workload::ServeCold {
        Cow::Owned(format!("// variant {tag}\n{}", card.model.source))
    } else {
        Cow::Borrowed(card.model.source)
    };
    Op { card, source }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing(stream: &mut OpStream, rounds: usize) -> Vec<(&'static str, Kind, String)> {
        (0..rounds)
            .flat_map(|_| stream.next_round())
            .map(|op| (op.card.model.name, op.card.kind, op.source.into_owned()))
            .collect()
    }

    #[test]
    fn same_seed_same_ops_other_seed_same_multiset_other_order() {
        for w in Workload::ALL {
            let a = listing(&mut OpStream::new(w, 1, 0), 4);
            let b = listing(&mut OpStream::new(w, 1, 0), 4);
            assert_eq!(a, b, "{}: seed 1 twice", w.name());
            let c = listing(&mut OpStream::new(w, 2, 0), 4);
            let cards = |l: &[(&'static str, Kind, String)]| {
                l.iter().map(|(m, k, _)| (*m, *k)).collect::<Vec<_>>()
            };
            let sorted = |mut v: Vec<(&'static str, Kind)>| {
                v.sort();
                v
            };
            assert_ne!(cards(&a), cards(&c), "{}: order ignores the seed", w.name());
            assert_eq!(
                sorted(cards(&a)),
                sorted(cards(&c)),
                "{}: multiset depends on the seed",
                w.name()
            );
        }
    }

    #[test]
    fn serve_cold_variants_are_distinct_arena_keys() {
        let sessions = kpt_server::Sessions::new(kpt_server::SessionConfig {
            max_models: 1 << 10,
            max_bytes: u64::MAX,
        });
        let mut stream = OpStream::new(Workload::ServeCold, 1, 0);
        let mut sources: Vec<String> = warm_up_round(Workload::ServeCold, 0)
            .into_iter()
            .chain((0..3).flat_map(|_| stream.next_round()))
            .map(|op| op.source.into_owned())
            .collect();
        // The arena keys by the full text: load every variant tag onto
        // one cheap model, so each distinct tag must be its own entry.
        let base = model("plain_counter").source;
        for s in &mut sources {
            let tag_line = s.lines().next().expect("variant line");
            *s = format!("{tag_line}\n{base}");
        }
        for s in &sources {
            sessions.get_or_load(s).expect("variant elaborates");
        }
        assert_eq!(sessions.misses(), sources.len() as u64);
        assert_eq!(sessions.len(), sources.len());
    }
}
