//! # gathering — the paper's contribution (Theorem 2)
//!
//! The collision-free gathering algorithm for **seven** oblivious robots
//! with **visibility range 2** on the triangular grid, from §IV of
//! Shibata et al. 2021.
//!
//! ## How the algorithm works (paper §IV-A)
//!
//! Each robot interprets its 18-node view through the label system of
//! Fig. 48 (itself at `(0,0)`, east neighbour `(2,0)`, the node two east
//! `(4,0)`, …). It then:
//!
//! 1. **Determines the base node** — the robot node with the strictly
//!    largest *x-element* in view (possibly itself). Ties mean "wait",
//!    with two exceptions: the *virtual base* `(4,0)` (empty but flanked
//!    by robots at `(3,1)` and `(3,-1)`), and the *self-promotion* case
//!    where `(1,1)`/`(1,-1)` hold the maximum and the robot moves east to
//!    become the base itself. See [`base`].
//! 2. **Moves toward the base** — robots treat the base as the east pole
//!    of the target hexagon and compact eastward, with guards that make
//!    every move locally provably collision-free and
//!    connectivity-preserving. See [`rules`], a line-by-line
//!    transcription of Algorithm 1.
//!
//! ## Two rule sets
//!
//! The printed pseudocode is not quite the algorithm the authors
//! verified: it contains an unsatisfiable guard (line 25) and the paper
//! itself says "there still exist several robot behaviors that avoid a
//! collision or an unconnected configuration, we omit the detail". This
//! crate therefore ships:
//!
//! * [`SevenGather::paper`] — the pseudocode exactly as printed, and
//! * [`SevenGather::verified`] — the completed rule set that passes the
//!   exhaustive verification over all 3652 connected initial
//!   configurations (the paper's §IV-B experiment). Every deviation is a
//!   named flag in [`rules::RuleOptions`] and is documented in
//!   `DESIGN.md` §6.
//!
//! ```
//! use gathering::SevenGather;
//! use robots::{engine, Configuration, Limits};
//! use trigrid::Coord;
//!
//! // Seven robots in a row gather into the hexagon.
//! let line = Configuration::new((0..7).map(|i| Coord::new(2 * i, 0)));
//! let ex = engine::run(&line, &SevenGather::verified(), Limits::default());
//! assert!(ex.outcome.is_gathered());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod baseline;
pub mod completion;
pub mod overrides;
pub mod rules;
pub mod safety;
pub mod table;

use robots::{Algorithm, View};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use trigrid::Dir;

/// Sentinel for "not yet computed" in the decision memo (valid
/// decisions are 0..=6).
const UNCACHED: u8 = 0xFF;

/// Number of independent switches that select a decision function: the
/// [`rules::RuleOptions`] flags plus the synthesized-overrides bit.
const MEMO_KEY_BITS: usize = 6;

/// The memo slot of a rule set. `RuleOptions` is destructured without
/// `..`, so a new flag fails to compile here (and the key array's length
/// pins [`MEMO_KEY_BITS`]) instead of silently aliasing two rule sets.
fn memo_slot(opts: rules::RuleOptions, use_overrides: bool) -> usize {
    let rules::RuleOptions {
        fix_line25_misprint,
        connectivity_guard,
        priority_guard,
        completion,
        mirror_line23_guard,
    } = opts;
    let key: [bool; MEMO_KEY_BITS] = [
        fix_line25_misprint,
        connectivity_guard,
        priority_guard,
        completion,
        mirror_line23_guard,
        use_overrides,
    ];
    key.iter().fold(0, |slot, &bit| (slot << 1) | usize::from(bit))
}

/// The process-wide decision memo of a rule set: one byte per radius-2
/// view, allocated on first use and shared by every instance, clone and
/// thread that runs the same rule set.
fn shared_memo(opts: rules::RuleOptions, use_overrides: bool) -> &'static [AtomicU8] {
    static MEMOS: [OnceLock<Box<[AtomicU8]>>; 1 << MEMO_KEY_BITS] =
        [const { OnceLock::new() }; 1 << MEMO_KEY_BITS];
    MEMOS[memo_slot(opts, use_overrides)]
        .get_or_init(|| (0..table::VIEWS).map(|_| AtomicU8::new(UNCACHED)).collect())
}

/// The paper's gathering algorithm for seven robots with visibility
/// range 2 (Algorithm 1).
///
/// Decisions are memoised per view in a lock-free table shared by the
/// whole process (one per rule set): the decision function is pure, so
/// robots stay oblivious and the memo is invisible to the model, and
/// all instances of a rule set share one fill.
#[derive(Clone)]
pub struct SevenGather {
    opts: rules::RuleOptions,
    name: &'static str,
    use_overrides: bool,
    memo: &'static [AtomicU8],
}

impl SevenGather {
    fn new(opts: rules::RuleOptions, name: &'static str, use_overrides: bool) -> Self {
        SevenGather { opts, name, use_overrides, memo: shared_memo(opts, use_overrides) }
    }

    /// Algorithm 1 exactly as printed in the paper (including its
    /// misprinted line 25, which can never fire).
    #[must_use]
    pub fn paper() -> Self {
        SevenGather::new(rules::RuleOptions::PAPER, "seven-gather/paper", false)
    }

    /// The completed rule set — printed rules with the documented fixes,
    /// the completion fallback, and the synthesized overrides — which
    /// passes the exhaustive verification over all 3652 connected
    /// initial configurations.
    #[must_use]
    pub fn verified() -> Self {
        SevenGather::new(rules::RuleOptions::VERIFIED, "seven-gather/verified", true)
    }

    /// A custom rule-option combination, without the synthesized
    /// overrides (for ablation experiments).
    #[must_use]
    pub fn with_options(opts: rules::RuleOptions) -> Self {
        SevenGather::new(opts, "seven-gather/custom", false)
    }

    /// The active rule options.
    #[must_use]
    pub fn options(&self) -> rules::RuleOptions {
        self.opts
    }

    fn decide(&self, view: &View) -> Option<Dir> {
        if self.use_overrides {
            if let Ok(i) = overrides::OVERRIDES.binary_search_by_key(&(view.bits() as u32), |o| o.0)
            {
                return rules::decode_decision(overrides::OVERRIDES[i].1);
            }
        }
        rules::compute(view, self.opts)
    }
}

impl std::fmt::Debug for SevenGather {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SevenGather").field("opts", &self.opts).field("name", &self.name).finish()
    }
}

impl Algorithm for SevenGather {
    fn radius(&self) -> u32 {
        2
    }

    fn compute(&self, view: &View) -> Option<Dir> {
        let idx = view.bits() as usize;
        let cached = self.memo[idx].load(Ordering::Relaxed);
        if cached != UNCACHED {
            return rules::decode_decision(cached);
        }
        let decision = self.decide(view);
        self.memo[idx].store(rules::encode_decision(decision), Ordering::Relaxed);
        decision
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_set_has_its_own_memo_slot() {
        let mut seen = std::collections::HashSet::new();
        for key in 0..1u32 << MEMO_KEY_BITS {
            let bit = |i: u32| key >> i & 1 == 1;
            let opts = rules::RuleOptions {
                fix_line25_misprint: bit(0),
                connectivity_guard: bit(1),
                priority_guard: bit(2),
                completion: bit(3),
                mirror_line23_guard: bit(4),
            };
            let slot = memo_slot(opts, bit(5));
            assert!(slot < 1 << MEMO_KEY_BITS);
            assert!(seen.insert(slot), "{opts:?} overrides={} aliases another rule set", bit(5));
        }
    }

    #[test]
    fn clones_and_fresh_instances_share_one_memo() {
        let a = SevenGather::verified();
        let b = a.clone();
        assert!(std::ptr::eq(a.memo, b.memo));
        assert!(std::ptr::eq(a.memo, SevenGather::verified().memo));
        assert!(!std::ptr::eq(a.memo, SevenGather::with_options(a.options()).memo));
    }
}
