//! Fact revision at the admit point (NOUS §3.4).
//!
//! A dynamic KG is not append-only in *meaning*: later articles supersede
//! earlier facts ("Apex Robotics is now headquartered in Austin"), and
//! repeated independent assertions of the same fact should raise its
//! confidence rather than duplicate the edge. NOUS's per-edge confidence
//! is the lever for both. The mechanics stay within the graph layer's
//! append-plus-tombstone contract: edges are never mutated in place —
//! a revised fact is tombstoned via [`nous_graph::DynamicGraph::remove_edge`]
//! and, when it survives decay, re-appended at its reduced confidence.
//! Removals flow to published [`nous_graph::LayeredSnapshot`]s through the
//! existing removal log, so revision needs no new propagation machinery.
//!
//! Placement matters for durability: revision runs *inside*
//! [`crate::KnowledgeGraph::add_extracted_fact_with_args`], the same call
//! WAL replay re-issues per admitted fact. Replaying the log against a
//! checkpoint that carries the same [`RevisionPolicy`] therefore re-derives
//! every tombstone and decay deterministically — the WAL format records
//! only admissions, never revisions.

/// Revision behaviour applied when an extracted fact is admitted.
///
/// Disabled by default: the base pipeline contract ("every admitted fact
/// is a live extracted edge") is load-bearing for existing tests and
/// benchmarks. Scenario harnesses and sessions that want dynamic-update
/// semantics opt in via [`crate::KnowledgeGraph::set_revision_policy`].
#[derive(Debug, Clone, PartialEq)]
pub struct RevisionPolicy {
    /// Master switch. When off, admission is pure append (seed behaviour).
    pub enabled: bool,
    /// Functional predicates: at most one object per subject is true at a
    /// time (ontology names, e.g. `isLocatedIn` for a headquarters). A new
    /// object for `(s, p)` contradicts — and supersedes — the old one.
    pub functional: Vec<String>,
    /// Reinforcement step for a re-asserted fact: the surviving edge's
    /// confidence moves `alpha` of the way from its current value to 1.0.
    pub reinforce_alpha: f32,
    /// Multiplicative decay applied to a superseded fact's confidence.
    pub decay_factor: f32,
    /// A superseded fact decayed below this floor is tombstoned outright
    /// instead of being re-appended — it disappears from MATCH/WHY.
    pub decay_floor: f32,
}

impl Default for RevisionPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            functional: vec!["isLocatedIn".to_owned()],
            reinforce_alpha: 0.3,
            decay_factor: 0.4,
            decay_floor: 0.3,
        }
    }
}

impl RevisionPolicy {
    /// The default policy with the master switch on.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Whether `predicate` is functional under this policy.
    pub fn is_functional(&self, predicate: &str) -> bool {
        self.functional.iter().any(|p| p == predicate)
    }
}

/// Lifetime revision outcome counts, carried by the graph (and through
/// its checkpoint) so recovery resumes with consistent totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RevisionCounters {
    /// Facts contradicted by a newer object on a functional predicate.
    pub superseded: u64,
    /// Superseded facts that survived decay (re-appended, reduced score).
    pub decayed: u64,
    /// Re-asserted facts folded into a single reinforced edge.
    pub reinforced: u64,
}

/// One reinforcement step: move `alpha` of the remaining headroom toward
/// 1.0. Saturates — repeated application converges to 1.0 and never
/// leaves `[0, 1]` regardless of the inputs (NaN-free for finite inputs).
pub fn reinforce(confidence: f32, alpha: f32) -> f32 {
    let c = confidence.clamp(0.0, 1.0);
    let a = alpha.clamp(0.0, 1.0);
    (c + a * (1.0 - c)).clamp(0.0, 1.0)
}

/// One decay step: multiplicative shrink. Saturates at 0.0 and never
/// leaves `[0, 1]` regardless of the inputs.
pub fn decay(confidence: f32, factor: f32) -> f32 {
    (confidence.clamp(0.0, 1.0) * factor.clamp(0.0, 1.0)).clamp(0.0, 1.0)
}

/// The admission blend (§3.4): extractor confidence mixed with the link
/// predictor's prior at `weight`, clamped into `[0, 1]`. This is the
/// scoring step `IngestPipeline` applies to every candidate fact.
pub fn blend(extracted: f32, prior: f32, weight: f32) -> f32 {
    ((1.0 - weight) * extracted + weight * prior).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_policy_is_disabled_with_located_in_functional() {
        let p = RevisionPolicy::default();
        assert!(!p.enabled);
        assert!(p.is_functional("isLocatedIn"));
        assert!(!p.is_functional("acquired"));
        assert!(RevisionPolicy::enabled().enabled);
    }

    #[test]
    fn reinforce_converges_to_one() {
        let mut c = 0.5;
        for _ in 0..100 {
            let next = reinforce(c, 0.3);
            assert!(next >= c);
            c = next;
        }
        assert!(c > 0.999 && c <= 1.0);
    }

    #[test]
    fn decay_converges_to_zero() {
        let mut c = 1.0;
        for _ in 0..100 {
            let next = decay(c, 0.4);
            assert!(next <= c);
            c = next;
        }
        assert!((0.0..1e-6).contains(&c));
    }

    proptest! {
        /// Satellite: repeated reinforcement/decay saturates in [0,1]
        /// instead of drifting out of range — even for out-of-range or
        /// adversarial step parameters.
        #[test]
        fn updates_saturate_in_unit_interval(
            start in -10.0f32..10.0,
            steps in proptest::collection::vec((any::<bool>(), -10.0f32..10.0), 0..64),
        ) {
            let mut c = start.clamp(0.0, 1.0);
            for (up, param) in steps {
                c = if up { reinforce(c, param) } else { decay(c, param) };
                prop_assert!((0.0..=1.0).contains(&c), "escaped unit interval: {c}");
                prop_assert!(c.is_finite());
            }
        }

        /// The admission blend — the scoring path every fact passes —
        /// stays in [0,1] for any extractor/prior mix.
        #[test]
        fn blend_stays_in_unit_interval(
            extracted in -2.0f32..2.0,
            prior in -2.0f32..2.0,
            weight in 0.0f32..1.0,
        ) {
            let b = blend(extracted, prior, weight);
            prop_assert!((0.0..=1.0).contains(&b));
        }
    }
}
