//! Configuration of the candidate-query generator.

/// Bounds on the search space of the QBO-style query generator.
///
/// The paper (Section 4) notes that QBO "provides several configuration
/// parameters to control the search space for equivalent candidate queries,
/// such as the maximum number of selection-predicate attributes, the maximum
/// number of joined relations, the maximum number of selection predicates in
/// each conjunct, etc." and that the authors "configured QBO to generate as
/// many candidate queries as possible". These knobs mirror that interface.
/// They bound only the search: how a candidate is verified is not
/// configurable — every one goes through a
/// [`BatchVerifier`](crate::BatchVerifier).
#[derive(Debug, Clone, PartialEq)]
pub struct QboConfig {
    /// Maximum number of relations in a candidate query's join.
    pub max_join_tables: usize,
    /// Maximum number of *distinct* attributes used in selection predicates.
    pub max_selection_attributes: usize,
    /// Maximum number of terms in a single conjunct.
    pub max_terms_per_conjunct: usize,
    /// Maximum number of disjuncts in a DNF predicate.
    pub max_disjuncts: usize,
    /// Hard cap on the number of candidate queries returned.
    pub max_candidates: usize,
    /// Maximum size of an `IN` list synthesized for a categorical attribute.
    pub max_in_list: usize,
    /// Whether to try inferring the projection by value matching when the
    /// result's column names do not resolve against the join.
    pub infer_projection_by_values: bool,
}

impl Default for QboConfig {
    fn default() -> Self {
        QboConfig {
            max_join_tables: 3,
            max_selection_attributes: 3,
            max_terms_per_conjunct: 4,
            max_disjuncts: 3,
            max_candidates: 64,
            max_in_list: 6,
            infer_projection_by_values: true,
        }
    }
}

impl QboConfig {
    /// A generous configuration that favours recall over speed — the setting
    /// the paper used ("generate as many candidate queries as possible").
    pub fn exhaustive() -> Self {
        QboConfig {
            max_join_tables: 4,
            max_selection_attributes: 4,
            max_terms_per_conjunct: 6,
            max_disjuncts: 4,
            max_candidates: 256,
            max_in_list: 10,
            infer_projection_by_values: true,
        }
    }

    /// A conservative configuration (few attributes, no disjunctions) — the
    /// paper's footnote 2 suggests starting conservatively and relaxing.
    pub fn conservative() -> Self {
        QboConfig {
            max_join_tables: 2,
            max_selection_attributes: 2,
            max_terms_per_conjunct: 2,
            max_disjuncts: 1,
            max_candidates: 16,
            max_in_list: 4,
            infer_projection_by_values: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_between_conservative_and_exhaustive() {
        let d = QboConfig::default();
        let c = QboConfig::conservative();
        let e = QboConfig::exhaustive();
        assert!(c.max_candidates <= d.max_candidates);
        assert!(d.max_candidates <= e.max_candidates);
        assert!(c.max_disjuncts <= d.max_disjuncts);
        assert!(d.max_join_tables <= e.max_join_tables);
    }

    #[test]
    fn configs_are_cloneable_and_comparable() {
        let a = QboConfig::default();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, QboConfig::exhaustive());
    }
}
