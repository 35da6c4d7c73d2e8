//! Tuple classes (Section 5.1 of the paper).
//!
//! Given the joined relation `T` and the candidate queries `QC`, each
//! selection-predicate attribute's domain is partitioned into blocks
//! ([`crate::domain`]); a *tuple class* assigns one block to every selection
//! attribute.  Every tuple of `T` belongs to exactly one class, and — by
//! construction of the blocks — all tuples of a class satisfy exactly the
//! same candidate queries.  Database modifications are reasoned about as
//! (source-class, destination-class) pairs before being realized as concrete
//! tuple edits.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use qfe_query::{BoundQuery, SpjQuery};
use qfe_relation::{JoinedRelation, Tuple, Value};

use crate::domain::{partition_categorical_domain, partition_numeric_domain_for, DomainBlock};
use crate::error::{QfeError, Result};

/// A tuple class: the block index chosen for each selection attribute, in
/// [`TupleClassSpace::attributes`] order.
pub type TupleClass = Vec<usize>;

/// One selection-predicate attribute together with its domain partition.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionAttribute {
    /// Column index in the joined relation.
    pub column: usize,
    /// Canonical (qualified) column reference.
    pub reference: String,
    /// Base table the column belongs to.
    pub table: String,
    /// Base-table column name.
    pub base_column: String,
    /// The attribute's domain partition `P_QC(A)`.
    pub blocks: Vec<DomainBlock>,
}

/// The space of tuple classes for one joined relation and candidate set.
#[derive(Debug, Clone)]
pub struct TupleClassSpace {
    attributes: Vec<SelectionAttribute>,
}

/// Every column's active domain of one join
/// ([`JoinedRelation::active_domain`]), computed on first use and kept.
/// Within a session `D`, and so every domain, is fixed: the session's
/// [`SessionJoin`](crate::SessionJoin) holds one, so each round's class
/// space reads a column's domain without sorting the column again.
#[derive(Debug)]
pub struct ActiveDomains {
    columns: Vec<OnceLock<Vec<Value>>>,
}

impl ActiveDomains {
    /// An empty cache for the columns of `join`.
    pub fn new(join: &JoinedRelation) -> ActiveDomains {
        ActiveDomains {
            columns: (0..join.arity()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Column `col`'s active domain in `join`, the join this cache was made
    /// for.
    pub fn get(&self, join: &JoinedRelation, col: usize) -> &[Value] {
        self.columns[col].get_or_init(|| join.active_domain(col))
    }
}

impl TupleClassSpace {
    /// Builds the tuple-class space: resolves every selection-predicate
    /// attribute of `queries` against `join` and partitions its active
    /// domain, read from `domains` (a cache for `join`).
    pub fn build(
        join: &JoinedRelation,
        domains: &ActiveDomains,
        queries: &[SpjQuery],
    ) -> Result<Self> {
        // Group predicate terms by resolved column index.
        let mut terms_by_col: BTreeMap<usize, Vec<qfe_query::Term>> = BTreeMap::new();
        for q in queries {
            for term in q.predicate.all_terms() {
                let col = join
                    .resolve_column(term.attribute())
                    .map_err(QfeError::from)?;
                terms_by_col.entry(col).or_default().push(term.clone());
            }
        }
        let mut attributes = Vec::with_capacity(terms_by_col.len());
        for (col, terms) in terms_by_col {
            let meta = join.column_at(col).ok_or_else(|| QfeError::Internal {
                message: format!("column {col} out of range"),
            })?;
            let active_domain = domains.get(join, col);
            let term_refs: Vec<&qfe_query::Term> = terms.iter().collect();
            let blocks = if meta.data_type.is_numeric() {
                partition_numeric_domain_for(&term_refs, active_domain, meta.data_type)
            } else {
                partition_categorical_domain(&term_refs, active_domain)
            };
            attributes.push(SelectionAttribute {
                column: col,
                reference: meta.qualified_name(),
                table: meta.table.clone(),
                base_column: meta.column.clone(),
                blocks,
            });
        }
        Ok(TupleClassSpace { attributes })
    }

    /// The selection attributes, in canonical order.
    pub fn attributes(&self) -> &[SelectionAttribute] {
        &self.attributes
    }

    /// Number of selection attributes (the `n` of Algorithm 3).
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// The maximum number of domain blocks over all attributes (the `k` of
    /// the paper's complexity analysis).
    pub fn max_blocks(&self) -> usize {
        self.attributes
            .iter()
            .map(|a| a.blocks.len())
            .max()
            .unwrap_or(0)
    }

    /// Classifies a joined tuple, returning the block index per attribute.
    /// Returns `None` when some selection attribute's value does not belong
    /// to any block (e.g. NULL).
    pub fn classify(&self, tuple: &Tuple) -> Option<TupleClass> {
        let mut class = Vec::with_capacity(self.attributes.len());
        for attr in &self.attributes {
            let value = tuple.get(attr.column)?;
            let block = attr.blocks.iter().position(|b| b.contains(value))?;
            class.push(block);
        }
        Some(class)
    }

    /// Groups the join's rows by tuple class (the source-tuple classes, STC).
    pub fn source_classes(&self, join: &JoinedRelation) -> BTreeMap<TupleClass, Vec<usize>> {
        let mut classes: BTreeMap<TupleClass, Vec<usize>> = BTreeMap::new();
        for (i, row) in join.rows().iter().enumerate() {
            if let Some(class) = self.classify(&row.tuple) {
                classes.entry(class).or_default().push(i);
            }
        }
        classes
    }

    /// Representative `(column, value)` assignments of a class, one per
    /// selection attribute.
    pub fn representative_values(&self, class: &TupleClass) -> Vec<(usize, Value)> {
        self.attributes
            .iter()
            .zip(class.iter())
            .map(|(attr, &b)| (attr.column, attr.blocks[b].representative().clone()))
            .collect()
    }

    /// Whether a tuple of the given class matches a (bound) candidate query.
    ///
    /// The query's predicate attributes are all selection attributes of the
    /// space, so evaluating the predicate over the class's representative
    /// values is exact (every value of a block has the same truth value for
    /// every term).
    pub fn class_matches(&self, class: &TupleClass, query: &BoundQuery) -> bool {
        let rep: BTreeMap<usize, Value> = self.representative_values(class).into_iter().collect();
        // Build a pseudo-tuple covering only the selection columns: the
        // widest one determines the length, and every column the query's
        // predicate reads is among them.
        let width = rep.keys().next_back().map_or(0, |c| c + 1);
        let mut values = vec![Value::Null; width];
        for (col, v) in &rep {
            values[*col] = v.clone();
        }
        query.matches_row(&Tuple::new(values))
    }

    /// The attribute positions (indices into [`Self::attributes`]) on which
    /// two classes differ.
    pub fn changed_attributes(&self, a: &TupleClass, b: &TupleClass) -> Vec<usize> {
        a.iter()
            .zip(b.iter())
            .enumerate()
            .filter(|(_, (x, y))| x != y)
            .map(|(i, _)| i)
            .collect()
    }

    /// Enumerates destination classes derived from `source` by changing
    /// exactly `modify_count` attributes, restricted to attribute positions
    /// marked modifiable. Each destination is returned together with the
    /// changed positions.
    ///
    /// This is the collecting wrapper around
    /// [`Self::for_each_destination_class`]; hot paths should prefer the
    /// visitor, which enumerates without allocating per destination.
    pub fn destination_classes(
        &self,
        source: &TupleClass,
        modify_count: usize,
        modifiable: &[bool],
    ) -> Vec<(TupleClass, Vec<usize>)> {
        let mut out = Vec::new();
        let _ =
            self.for_each_destination_class(source, modify_count, modifiable, |class, changed| {
                out.push((class.to_vec(), changed.to_vec()));
                std::ops::ControlFlow::Continue(())
            });
        out
    }

    /// Visits every destination class derived from `source` by changing
    /// exactly `modify_count` modifiable attribute positions, in the same
    /// order as [`Self::destination_classes`] (changed-position combinations
    /// lexicographically; within a combination, later positions vary
    /// fastest, block indices ascending and skipping the source block).
    ///
    /// The visitor receives a *scratch* class and the changed positions; it
    /// must clone them if it keeps them. Returning
    /// [`ControlFlow::Break`](std::ops::ControlFlow::Break) stops the
    /// enumeration early (e.g. on a time budget); the final return value
    /// propagates whether the enumeration ran to completion.
    pub fn for_each_destination_class<F>(
        &self,
        source: &TupleClass,
        modify_count: usize,
        modifiable: &[bool],
        mut visit: F,
    ) -> std::ops::ControlFlow<()>
    where
        F: FnMut(&TupleClass, &[usize]) -> std::ops::ControlFlow<()>,
    {
        use std::ops::ControlFlow;

        let positions: Vec<usize> = (0..self.attributes.len())
            .filter(|&i| modifiable.get(i).copied().unwrap_or(true))
            .collect();
        if modify_count == 0 || modify_count > positions.len() {
            return ControlFlow::Continue(());
        }
        // One scratch class mutated in place; one scratch combination buffer.
        let mut scratch: TupleClass = source.clone();
        let mut chosen: Vec<usize> = vec![0; modify_count];
        let mut alt: Vec<usize> = vec![0; modify_count];
        let mut combo: Vec<usize> = (0..modify_count).collect();
        loop {
            for (slot, &ci) in combo.iter().enumerate() {
                chosen[slot] = positions[ci];
            }
            // Initialize the block odometer: every chosen position starts at
            // its first non-source block.
            let mut viable = true;
            for (slot, &pos) in chosen.iter().enumerate() {
                let first = usize::from(source[pos] == 0);
                if first >= self.attributes[pos].blocks.len() {
                    viable = false;
                    break;
                }
                alt[slot] = first;
                scratch[pos] = first;
            }
            if viable {
                loop {
                    if visit(&scratch, &chosen).is_break() {
                        for &pos in chosen.iter() {
                            scratch[pos] = source[pos];
                        }
                        return ControlFlow::Break(());
                    }
                    // Advance the odometer, last chosen position fastest,
                    // skipping the source block.
                    let mut slot = modify_count;
                    loop {
                        if slot == 0 {
                            break;
                        }
                        slot -= 1;
                        let pos = chosen[slot];
                        let mut next = alt[slot] + 1;
                        if next == source[pos] {
                            next += 1;
                        }
                        if next < self.attributes[pos].blocks.len() {
                            alt[slot] = next;
                            scratch[pos] = next;
                            break;
                        }
                        // Wrap this position and carry.
                        let first = usize::from(source[pos] == 0);
                        alt[slot] = first;
                        scratch[pos] = first;
                        if slot == 0 {
                            // Odometer exhausted for this combination.
                            slot = usize::MAX;
                            break;
                        }
                    }
                    if slot == usize::MAX {
                        break;
                    }
                }
            }
            // Restore the scratch class before moving to the next
            // combination of changed positions.
            for &pos in chosen.iter() {
                scratch[pos] = source[pos];
            }
            if !advance_combination(&mut combo, positions.len()) {
                break;
            }
        }
        ControlFlow::Continue(())
    }
}

/// Advances `combo` to the next k-combination of `0..positions` in
/// lexicographic order; returns `false` when the combinations are exhausted.
fn advance_combination(combo: &mut [usize], positions: usize) -> bool {
    let k = combo.len();
    let mut i = k;
    loop {
        if i == 0 {
            return false;
        }
        i -= 1;
        if combo[i] < positions - (k - i) {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use qfe_query::{ComparisonOp, DnfPredicate, Term};
    use qfe_relation::{
        foreign_key_join, tuple, ColumnDef, DataType, Database, Table, TableSchema,
    };

    fn space_of(join: &JoinedRelation, queries: &[SpjQuery]) -> TupleClassSpace {
        TupleClassSpace::build(join, &ActiveDomains::new(join), queries).unwrap()
    }

    fn employee_setup() -> (JoinedRelation, Vec<SpjQuery>) {
        let employee = Table::with_rows(
            TableSchema::new(
                "Employee",
                vec![
                    ColumnDef::new("Eid", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("gender", DataType::Text),
                    ColumnDef::new("dept", DataType::Text),
                    ColumnDef::new("salary", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["Eid"])
            .unwrap(),
            vec![
                tuple![1i64, "Alice", "F", "Sales", 3700i64],
                tuple![2i64, "Bob", "M", "IT", 4200i64],
                tuple![3i64, "Celina", "F", "Service", 3000i64],
                tuple![4i64, "Darren", "M", "IT", 5000i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(employee).unwrap();
        let join = foreign_key_join(&db, &["Employee".to_string()]).unwrap();
        let q = |p| SpjQuery::new(vec!["Employee"], vec!["name"], p);
        let queries = vec![
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                4000i64,
            ))),
            q(DnfPredicate::single(Term::eq("dept", "IT"))),
        ];
        (join, queries)
    }

    #[test]
    fn builds_one_partition_per_selection_attribute() {
        let (join, queries) = employee_setup();
        let space = space_of(&join, &queries);
        assert_eq!(space.attribute_count(), 3); // gender, dept, salary
        let refs: Vec<&str> = space
            .attributes()
            .iter()
            .map(|a| a.reference.as_str())
            .collect();
        assert!(refs.contains(&"Employee.gender"));
        assert!(refs.contains(&"Employee.dept"));
        assert!(refs.contains(&"Employee.salary"));
        assert!(space.max_blocks() >= 2);
        // gender partitions into {M} and {F}; salary into (-inf,4000] and (4000,inf).
        let gender = space
            .attributes()
            .iter()
            .find(|a| a.base_column == "gender")
            .unwrap();
        assert_eq!(gender.blocks.len(), 2);
        let salary = space
            .attributes()
            .iter()
            .find(|a| a.base_column == "salary")
            .unwrap();
        assert_eq!(salary.blocks.len(), 2);
    }

    #[test]
    fn classification_groups_equivalent_tuples() {
        let (join, queries) = employee_setup();
        let space = space_of(&join, &queries);
        let classes = space.source_classes(&join);
        // Bob (M, IT, 4200) and Darren (M, IT, 5000) are both >4000/M/IT: same class.
        let bob = space.classify(&join.rows()[1].tuple).unwrap();
        let darren = space.classify(&join.rows()[3].tuple).unwrap();
        assert_eq!(bob, darren);
        // Alice (F, Sales, 3700) differs from Celina (F, Service, 3000) on dept block.
        let alice = space.classify(&join.rows()[0].tuple).unwrap();
        let celina = space.classify(&join.rows()[2].tuple).unwrap();
        assert_ne!(alice, bob);
        // dept blocks: IT vs {Sales}/{Service}/... — Sales and Service satisfy
        // the same (single) term 'dept = IT' (both false), so they share a block.
        assert_eq!(alice, celina);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes.values().map(Vec::len).sum::<usize>(), 4);
    }

    #[test]
    fn class_matching_agrees_with_query_evaluation() {
        let (join, queries) = employee_setup();
        let space = space_of(&join, &queries);
        let bound: Vec<BoundQuery> = queries
            .iter()
            .map(|q| BoundQuery::bind(q, &join).unwrap())
            .collect();
        for row in join.rows() {
            let class = space.classify(&row.tuple).unwrap();
            for b in &bound {
                assert_eq!(
                    space.class_matches(&class, b),
                    b.matches_row(&row.tuple),
                    "class-level matching must agree with direct evaluation"
                );
            }
        }
    }

    #[test]
    fn representative_values_belong_to_blocks() {
        let (join, queries) = employee_setup();
        let space = space_of(&join, &queries);
        for class in space.source_classes(&join).keys() {
            for (attr, &block_idx) in space.attributes().iter().zip(class.iter()) {
                let (_, rep) = space.representative_values(class)[space
                    .attributes()
                    .iter()
                    .position(|a| a.column == attr.column)
                    .unwrap()]
                .clone();
                assert!(attr.blocks[block_idx].contains(&rep));
            }
        }
    }

    #[test]
    fn destination_classes_change_exactly_the_requested_attributes() {
        let (join, queries) = employee_setup();
        let space = space_of(&join, &queries);
        let source = space.classify(&join.rows()[1].tuple).unwrap(); // Bob
        let modifiable = vec![true; space.attribute_count()];
        let single = space.destination_classes(&source, 1, &modifiable);
        assert!(!single.is_empty());
        for (d, changed) in &single {
            assert_eq!(space.changed_attributes(&source, d).len(), 1);
            assert_eq!(changed.len(), 1);
        }
        let double = space.destination_classes(&source, 2, &modifiable);
        for (d, changed) in &double {
            assert_eq!(space.changed_attributes(&source, d).len(), 2);
            assert_eq!(changed.len(), 2);
        }
        // Changing more attributes than exist is impossible.
        assert!(space
            .destination_classes(&source, space.attribute_count() + 1, &modifiable)
            .is_empty());
        assert!(space
            .destination_classes(&source, 0, &modifiable)
            .is_empty());
    }

    #[test]
    fn destination_classes_respect_modifiable_mask() {
        let (join, queries) = employee_setup();
        let space = space_of(&join, &queries);
        let source = space.classify(&join.rows()[1].tuple).unwrap();
        // Only the first attribute is modifiable.
        let mut modifiable = vec![false; space.attribute_count()];
        modifiable[0] = true;
        let singles = space.destination_classes(&source, 1, &modifiable);
        for (_, changed) in &singles {
            assert_eq!(changed, &vec![0]);
        }
        let doubles = space.destination_classes(&source, 2, &modifiable);
        assert!(doubles.is_empty());
    }

    #[test]
    fn lemma_5_1_single_modification_partitions_into_at_most_four() {
        // For any (s, d) pair, the per-query outcome takes at most 4 values:
        // (s matches, d matches) ∈ {FF, FT, TF, TT}.
        let (join, queries) = employee_setup();
        let space = space_of(&join, &queries);
        let bound: Vec<BoundQuery> = queries
            .iter()
            .map(|q| BoundQuery::bind(q, &join).unwrap())
            .collect();
        let source = space.classify(&join.rows()[1].tuple).unwrap();
        let modifiable = vec![true; space.attribute_count()];
        for (dest, _) in space.destination_classes(&source, 1, &modifiable) {
            let mut outcomes = BTreeSet::new();
            for b in &bound {
                outcomes.insert((
                    space.class_matches(&source, b),
                    space.class_matches(&dest, b),
                ));
            }
            assert!(outcomes.len() <= 4);
        }
    }
}
