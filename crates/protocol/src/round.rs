//! The wire types of the round-based protocol: what the server broadcasts
//! ([`RoundSpec`]) and what a user's device uploads ([`Report`]).
//!
//! These two enums are the *entire* LDP boundary. A [`RoundSpec`] carries
//! only public, data-independent state (candidate shapes, domains, the
//! addressed group); a [`Report`] carries exactly one perturbed value per
//! user per mechanism run. Nothing else crosses — in particular no raw
//! series, no symbol sequences, and no unperturbed statistics.

use crate::config::LengthOracle;
use privshape_ldp::{OlhReport, OueReport};
use privshape_timeseries::CandidateTable;
use std::sync::Arc;

/// The disjoint user groups of the mechanisms, used to address rounds.
///
/// For PrivShape all four are in play; the baseline uses only `Pa`
/// (length estimation) and `Pb` (trie expansion, plus the reserved label
/// round in the classification variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupId {
    /// Frequent-length estimation.
    Pa,
    /// Sub-shape estimation (PrivShape) / trie expansion (baseline).
    Pb,
    /// Trie expansion (PrivShape).
    Pc,
    /// Two-level refinement (PrivShape).
    Pd,
}

/// A sub-chunk of a group for rounds that split one group across several
/// consecutive rounds (one trie level per chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Zero-based chunk index.
    pub index: usize,
    /// Total number of chunks the group is split into.
    pub of: usize,
}

/// Which users a round is addressed to. Clients compare this against their
/// locally derived [`crate::GroupAssignment`]; everyone else ignores the
/// round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Audience {
    /// The addressed group.
    pub group: GroupId,
    /// `Some` when only one [`split_rounds`](crate::split_rounds)-style
    /// chunk of the group should answer (per-level expansion rounds).
    pub chunk: Option<Chunk>,
}

impl Audience {
    /// Addresses a whole group.
    pub fn group(group: GroupId) -> Self {
        Self { group, chunk: None }
    }

    /// Addresses one chunk of a group.
    pub fn chunk(group: GroupId, index: usize, of: usize) -> Self {
        Self {
            group,
            chunk: Some(Chunk { index, of }),
        }
    }
}

/// One server broadcast: everything a client needs to answer a round.
///
/// All fields are data-independent server state (estimated once from
/// earlier *perturbed* rounds), so broadcasting them consumes no budget.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundSpec {
    /// Frequent-length estimation: a frequency oracle over the
    /// clipped-length domain `[lo, hi]` (Eq. (1); GRR in the paper, the
    /// other oracles via [`LengthOracle`]).
    Length {
        /// Addressed users.
        audience: Audience,
        /// Inclusive clipping range `[ℓ_low, ℓ_high]`.
        range: (usize, usize),
        /// Which frequency oracle the round runs; the spec is
        /// authoritative, so client and aggregator can never disagree.
        oracle: LengthOracle,
    },
    /// Sub-shape estimation: GRR over the `t(t−1)` distinct-bigram domain
    /// at a uniformly self-sampled level (§IV-B).
    SubShape {
        /// Addressed users.
        audience: Audience,
        /// Estimated frequent length (trie height); levels run
        /// `1..=ell_s − 1`.
        ell_s: usize,
        /// Alphabet size `t`.
        alphabet: usize,
    },
    /// One trie-expansion round: EM selection among this level's candidate
    /// prefixes (Eq. (2)).
    Expand {
        /// Addressed users (one chunk of the expansion group).
        audience: Audience,
        /// Trie level being expanded (candidates have this length).
        level: usize,
        /// This level's candidate shapes, in server order. Packed and
        /// `Arc`-shared: cloning the spec (or re-broadcasting it to any
        /// number of clients/shards) is a reference-count bump, never a
        /// copy of the candidate list.
        candidates: Arc<CandidateTable>,
    },
    /// Unlabeled two-level refinement: EM selection among the pruned leaf
    /// candidates, scored on full sequences (§IV-C).
    RefineUnlabeled {
        /// Addressed users.
        audience: Audience,
        /// The pruned leaf candidates, in server order (packed,
        /// `Arc`-shared).
        candidates: Arc<CandidateTable>,
    },
    /// Labeled two-level refinement: OUE over the candidate × class grid
    /// (§V-E).
    RefineLabeled {
        /// Addressed users.
        audience: Audience,
        /// The leaf candidates, in server order (packed, `Arc`-shared).
        candidates: Arc<CandidateTable>,
        /// Number of classes `L`; the OUE domain is
        /// `candidates.len() · n_classes`.
        n_classes: usize,
    },
}

impl RoundSpec {
    /// The users this round is addressed to.
    pub fn audience(&self) -> Audience {
        match self {
            RoundSpec::Length { audience, .. }
            | RoundSpec::SubShape { audience, .. }
            | RoundSpec::Expand { audience, .. }
            | RoundSpec::RefineUnlabeled { audience, .. }
            | RoundSpec::RefineLabeled { audience, .. } => *audience,
        }
    }

    /// Short human-readable name for logs and examples.
    pub fn name(&self) -> &'static str {
        match self {
            RoundSpec::Length { .. } => "length",
            RoundSpec::SubShape { .. } => "sub-shape",
            RoundSpec::Expand { .. } => "expand",
            RoundSpec::RefineUnlabeled { .. } => "refine (unlabeled)",
            RoundSpec::RefineLabeled { .. } => "refine (labeled)",
        }
    }
}

/// One user's answer to one round — the only thing that ever leaves the
/// device, already perturbed under the full budget ε.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Report {
    /// GRR report of the clipped length, as an offset into the range
    /// (`clipped − lo`).
    Length(usize),
    /// OUE report of the clipped-length offset
    /// ([`LengthOracle::Oue`] rounds).
    LengthOue(OueReport),
    /// OLH report of the clipped-length offset
    /// ([`LengthOracle::Olh`] rounds).
    LengthOlh(OlhReport),
    /// Piecewise-Mechanism report of the clipped length mapped to
    /// `[−1, 1]`, quantized to the fixed-point wire grid
    /// ([`LengthOracle::Piecewise`] rounds).
    LengthPiecewise(i64),
    /// Sub-shape report: the self-sampled level (data-independent, free)
    /// and the GRR-perturbed bigram index at that level.
    SubShape {
        /// Level `j ∈ {1, …, ℓ_S − 1}` the bigram was sampled at.
        level: usize,
        /// Perturbed index into the `t(t−1)` distinct-pair domain.
        value: usize,
    },
    /// EM-selected candidate index for an expansion round.
    Expand(usize),
    /// EM-selected candidate index for the unlabeled refinement round.
    RefineSelect(usize),
    /// OUE report over the candidate × class grid for the labeled
    /// refinement round.
    RefineLabeled(OueReport),
}

impl Report {
    /// Short human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        self.view().kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audience_constructors() {
        let a = Audience::group(GroupId::Pa);
        assert_eq!(a.group, GroupId::Pa);
        assert!(a.chunk.is_none());
        let c = Audience::chunk(GroupId::Pc, 2, 5);
        assert_eq!(c.chunk, Some(Chunk { index: 2, of: 5 }));
    }

    #[test]
    fn spec_names_and_audiences() {
        let spec = RoundSpec::Length {
            audience: Audience::group(GroupId::Pa),
            range: (1, 10),
            oracle: LengthOracle::default(),
        };
        assert_eq!(spec.name(), "length");
        assert_eq!(spec.audience().group, GroupId::Pa);
        let spec = RoundSpec::Expand {
            audience: Audience::chunk(GroupId::Pc, 0, 3),
            level: 1,
            candidates: Arc::new(CandidateTable::new()),
        };
        assert_eq!(spec.name(), "expand");
        assert_eq!(spec.audience().chunk.unwrap().of, 3);
    }

    #[test]
    fn report_kinds() {
        assert_eq!(Report::Length(0).kind(), "length");
        assert_eq!(Report::Expand(1).kind(), "expand");
        assert_eq!(Report::SubShape { level: 1, value: 0 }.kind(), "sub-shape");
    }
}
