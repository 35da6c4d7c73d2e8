//! Selection predicates in disjunctive normal form.
//!
//! Section 4 of the paper: every candidate query is of the form
//! `π_ℓ(σ_p(J))` where the selection predicate `p` is in disjunctive normal
//! form, `p = p_1 ∨ … ∨ p_m`, each `p_i` a conjunction of *terms*, and a term
//! is a comparison between an attribute and a constant.

use std::collections::BTreeSet;
use std::fmt;

use qfe_relation::{sql_literal, Value};

/// Comparison operator of a predicate term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComparisonOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl ComparisonOp {
    /// Evaluates `left op right` under the total order on [`Value`].
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        match self {
            ComparisonOp::Eq => left == right,
            ComparisonOp::Ne => left != right,
            ComparisonOp::Lt => left < right,
            ComparisonOp::Le => left <= right,
            ComparisonOp::Gt => left > right,
            ComparisonOp::Ge => left >= right,
        }
    }

    /// The SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            ComparisonOp::Eq => "=",
            ComparisonOp::Ne => "<>",
            ComparisonOp::Lt => "<",
            ComparisonOp::Le => "<=",
            ComparisonOp::Gt => ">",
            ComparisonOp::Ge => ">=",
        }
    }

    /// The logically negated operator.
    pub fn negate(self) -> ComparisonOp {
        match self {
            ComparisonOp::Eq => ComparisonOp::Ne,
            ComparisonOp::Ne => ComparisonOp::Eq,
            ComparisonOp::Lt => ComparisonOp::Ge,
            ComparisonOp::Le => ComparisonOp::Gt,
            ComparisonOp::Gt => ComparisonOp::Le,
            ComparisonOp::Ge => ComparisonOp::Lt,
        }
    }
}

impl fmt::Display for ComparisonOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// A single predicate term: a comparison between an attribute and a constant,
/// or membership of an attribute in a constant set (syntactic sugar for a
/// disjunction of equalities, kept as one term so that queries such as the
/// paper's `Q4` — `playerID ∈ {…}` — stay compact).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// `attribute op constant`
    Compare {
        /// Attribute reference (optionally `Table.column`-qualified).
        attribute: String,
        /// Comparison operator.
        op: ComparisonOp,
        /// Constant operand.
        value: Value,
    },
    /// `attribute IN (v1, …, vk)`
    In {
        /// Attribute reference.
        attribute: String,
        /// The allowed values (sorted, deduplicated).
        values: Vec<Value>,
    },
    /// `attribute NOT IN (v1, …, vk)`
    NotIn {
        /// Attribute reference.
        attribute: String,
        /// The excluded values (sorted, deduplicated).
        values: Vec<Value>,
    },
}

impl Term {
    /// Builds a comparison term.
    pub fn compare(
        attribute: impl Into<String>,
        op: ComparisonOp,
        value: impl Into<Value>,
    ) -> Self {
        Term::Compare {
            attribute: attribute.into(),
            op,
            value: value.into(),
        }
    }

    /// Builds an equality term.
    pub fn eq(attribute: impl Into<String>, value: impl Into<Value>) -> Self {
        Term::compare(attribute, ComparisonOp::Eq, value)
    }

    /// Builds an `IN` term.
    pub fn is_in(attribute: impl Into<String>, values: Vec<Value>) -> Self {
        let mut values = values;
        values.sort();
        values.dedup();
        Term::In {
            attribute: attribute.into(),
            values,
        }
    }

    /// Builds a `NOT IN` term.
    pub fn not_in(attribute: impl Into<String>, values: Vec<Value>) -> Self {
        let mut values = values;
        values.sort();
        values.dedup();
        Term::NotIn {
            attribute: attribute.into(),
            values,
        }
    }

    /// The attribute referenced by the term.
    pub fn attribute(&self) -> &str {
        match self {
            Term::Compare { attribute, .. }
            | Term::In { attribute, .. }
            | Term::NotIn { attribute, .. } => attribute,
        }
    }

    /// The constant(s) appearing in the term.
    pub fn constants(&self) -> Vec<&Value> {
        match self {
            Term::Compare { value, .. } => vec![value],
            Term::In { values, .. } | Term::NotIn { values, .. } => values.iter().collect(),
        }
    }

    /// Evaluates the term against the attribute's value.
    pub fn eval(&self, attr_value: &Value) -> bool {
        match self {
            Term::Compare { op, value, .. } => {
                // SQL semantics: comparisons against NULL are not satisfied.
                if attr_value.is_null() || value.is_null() {
                    return false;
                }
                op.eval(attr_value, value)
            }
            Term::In { values, .. } => !attr_value.is_null() && values.contains(attr_value),
            Term::NotIn { values, .. } => !attr_value.is_null() && !values.contains(attr_value),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Compare {
                attribute,
                op,
                value,
            } => write!(f, "{attribute} {op} {}", sql_literal(value)),
            Term::In { attribute, values } => {
                write!(f, "{attribute} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", sql_literal(v))?;
                }
                write!(f, ")")
            }
            Term::NotIn { attribute, values } => {
                write!(f, "{attribute} NOT IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", sql_literal(v))?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A conjunction of terms (one disjunct of a DNF predicate).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Conjunct {
    terms: Vec<Term>,
}

impl Conjunct {
    /// Creates a conjunction from its terms. An empty conjunction is TRUE.
    pub fn new(terms: Vec<Term>) -> Self {
        Conjunct { terms }
    }

    /// The terms of the conjunction.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True for the empty (always-true) conjunction.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Adds a term, returning the extended conjunction.
    pub fn and(mut self, term: Term) -> Self {
        self.terms.push(term);
        self
    }
}

impl fmt::Display for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "TRUE");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// A selection predicate in disjunctive normal form: `c_1 ∨ … ∨ c_m`.
///
/// The empty disjunction is treated as TRUE (no selection), matching a query
/// without a WHERE clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DnfPredicate {
    conjuncts: Vec<Conjunct>,
}

impl DnfPredicate {
    /// The always-true predicate (no WHERE clause).
    pub fn always_true() -> Self {
        DnfPredicate::default()
    }

    /// Creates a predicate from its disjuncts.
    pub fn new(conjuncts: Vec<Conjunct>) -> Self {
        DnfPredicate { conjuncts }
    }

    /// Creates a predicate with a single conjunction of `terms`.
    pub fn conjunction(terms: Vec<Term>) -> Self {
        DnfPredicate {
            conjuncts: vec![Conjunct::new(terms)],
        }
    }

    /// Creates a predicate with a single term.
    pub fn single(term: Term) -> Self {
        DnfPredicate::conjunction(vec![term])
    }

    /// The disjuncts of the predicate.
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// True for the always-true predicate.
    pub fn is_always_true(&self) -> bool {
        self.conjuncts.is_empty() || self.conjuncts.iter().any(Conjunct::is_empty)
    }

    /// Adds a disjunct, returning the extended predicate.
    pub fn or(mut self, conjunct: Conjunct) -> Self {
        self.conjuncts.push(conjunct);
        self
    }

    /// All attributes referenced by the predicate (sorted, deduplicated).
    /// These are the "selection-predicate attributes" whose domains the
    /// tuple-class machinery partitions.
    pub fn attributes(&self) -> Vec<String> {
        let set: BTreeSet<String> = self
            .conjuncts
            .iter()
            .flat_map(|c| c.terms().iter().map(|t| t.attribute().to_string()))
            .collect();
        set.into_iter().collect()
    }

    /// All terms of the predicate, across disjuncts.
    pub fn all_terms(&self) -> Vec<&Term> {
        self.conjuncts
            .iter()
            .flat_map(|c| c.terms().iter())
            .collect()
    }

    /// All terms that reference `attribute`.
    pub fn terms_on(&self, attribute: &str) -> Vec<&Term> {
        self.all_terms()
            .into_iter()
            .filter(|t| t.attribute() == attribute)
            .collect()
    }

    /// Total number of terms (a simple complexity measure).
    pub fn term_count(&self) -> usize {
        self.conjuncts.iter().map(Conjunct::len).sum()
    }
}

impl fmt::Display for DnfPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_always_true() {
            return write!(f, "TRUE");
        }
        for (i, c) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " OR ")?;
            }
            if self.conjuncts.len() > 1 && c.len() > 1 {
                write!(f, "({c})")?;
            } else {
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_op_eval_and_negate() {
        assert!(ComparisonOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(ComparisonOp::Ge.eval(&Value::Int(2), &Value::Int(2)));
        assert!(ComparisonOp::Ne.eval(&Value::Text("a".into()), &Value::Text("b".into())));
        for op in [
            ComparisonOp::Eq,
            ComparisonOp::Ne,
            ComparisonOp::Lt,
            ComparisonOp::Le,
            ComparisonOp::Gt,
            ComparisonOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
            // negation flips the truth value on non-equal operands
            let (a, b) = (Value::Int(1), Value::Int(2));
            assert_ne!(op.eval(&a, &b), op.negate().eval(&a, &b));
        }
    }

    #[test]
    fn term_eval_comparisons() {
        let t = Term::compare("salary", ComparisonOp::Gt, 4000i64);
        assert!(t.eval(&Value::Int(5000)));
        assert!(!t.eval(&Value::Int(3000)));
        assert!(!t.eval(&Value::Null));
        let t = Term::eq("gender", "M");
        assert!(t.eval(&Value::Text("M".into())));
        assert!(!t.eval(&Value::Text("F".into())));
    }

    #[test]
    fn term_eval_in_and_not_in() {
        let t = Term::is_in("playerID", vec!["a".into(), "b".into(), "a".into()]);
        assert!(t.eval(&Value::Text("a".into())));
        assert!(!t.eval(&Value::Text("c".into())));
        assert!(!t.eval(&Value::Null));
        if let Term::In { values, .. } = &t {
            assert_eq!(values.len(), 2, "IN list deduplicated");
        }
        let t = Term::not_in("playerID", vec!["a".into()]);
        assert!(!t.eval(&Value::Text("a".into())));
        assert!(t.eval(&Value::Text("z".into())));
    }

    #[test]
    fn term_accessors() {
        let t = Term::compare("x", ComparisonOp::Le, 5i64);
        assert_eq!(t.attribute(), "x");
        assert_eq!(t.constants(), vec![&Value::Int(5)]);
        let t = Term::is_in("y", vec![1i64.into(), 2i64.into()]);
        assert_eq!(t.constants().len(), 2);
    }

    #[test]
    fn always_true_predicate() {
        let p = DnfPredicate::always_true();
        assert!(p.is_always_true());
        assert_eq!(p.to_string(), "TRUE");
        // a predicate with an empty conjunct is also always true
        let p = DnfPredicate::new(vec![Conjunct::default()]);
        assert!(p.is_always_true());
    }

    #[test]
    fn attribute_collection_is_sorted_and_deduplicated() {
        let p = DnfPredicate::new(vec![
            Conjunct::new(vec![
                Term::compare("b", ComparisonOp::Gt, 1i64),
                Term::compare("a", ComparisonOp::Lt, 2i64),
            ]),
            Conjunct::new(vec![Term::eq("a", 3i64)]),
        ]);
        assert_eq!(p.attributes(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(p.term_count(), 3);
        assert_eq!(p.terms_on("a").len(), 2);
        assert_eq!(p.all_terms().len(), 3);
    }

    #[test]
    fn display_round_trip_shapes() {
        let p = DnfPredicate::new(vec![
            Conjunct::new(vec![
                Term::eq("dept", "IT"),
                Term::compare("salary", ComparisonOp::Gt, 4000i64),
            ]),
            Conjunct::new(vec![Term::eq("gender", "F")]),
        ]);
        let s = p.to_string();
        assert!(s.contains("(dept = 'IT' AND salary > 4000)"));
        assert!(s.contains(" OR gender = 'F'"));
        let t = Term::is_in("id", vec!["x".into(), "y".into()]);
        assert_eq!(t.to_string(), "id IN ('x', 'y')");
        let t = Term::not_in("id", vec![Value::Int(3)]);
        assert_eq!(t.to_string(), "id NOT IN (3)");
    }

    #[test]
    fn builder_helpers() {
        let p = DnfPredicate::single(Term::eq("a", 1i64)).or(Conjunct::default()
            .and(Term::eq("b", 2i64))
            .and(Term::eq("c", 3i64)));
        assert_eq!(p.conjuncts().len(), 2);
        assert_eq!(p.conjuncts()[1].len(), 2);
    }
}
