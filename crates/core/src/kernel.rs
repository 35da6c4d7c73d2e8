//! Dense bit-packed kernel for class-level outcome reasoning.
//!
//! The skyline enumeration (Algorithm 3) asks two questions of every
//! (source, destination) class pair it enumerates: *does a tuple of class
//! `X` satisfy candidate `Q_i`?* and *how does the pair partition the
//! candidates?*  Answering them through hash-map caches and per-class
//! `Vec<bool>` rows makes the generator pointer-bound.
//!
//! [`OutcomeKernel`] replaces that with dense bit-parallel state prepared once
//! per [`GenerationContext`](crate::GenerationContext):
//!
//! * every tuple class gets a **mixed-radix interned id** (`Σ blockᵢ·strideᵢ`)
//!   — no hashing, no allocation;
//! * each candidate's DNF conjuncts get one bit in a **conjunct bitmap**, and
//!   for every `(attribute, block)` the kernel precomputes which conjuncts the
//!   block satisfies; a class's candidate-match bitset is then an AND over its
//!   attributes followed by a mask fold (the fold is the identity when every
//!   candidate is a single conjunct — the common case);
//! * when the class space is small enough the kernel additionally
//!   materializes the **full per-class match table**, making `class_matches`
//!   a single bit probe. The fill visits the classes in id order as an
//!   odometer and keeps the AND of the blocks' conjunct bitsets up to each
//!   attribute, so a step recomputes only from the attribute it changed
//!   (usually just the last); the satisfied conjuncts are folded into query
//!   bits through a conjunct→query map, visiting only the set bits. Every
//!   row equals what the factorized computation returns for that class;
//!   the factorized path itself serves the spaces too large for a table;
//! * a candidate with no conjunct (`WHERE TRUE`) matches every class, as
//!   it matches every row;
//! * a per-attribute **projection-touch mask** answers "did this modification
//!   change a projected column?" without consulting the column sets.
//!
//! One pair's partition is four popcounts ([`PairStats`]). The subset search
//! (Algorithm 4) groups the candidates under *sets* of skyline pairs, so it
//! reads each pair's per-candidate outcome codes once into an
//! [`OutcomeCodes`] table, which also groups the pairs by identical code
//! row (a few dozen distinct rows on skylines of thousands of pairs).
//!
//! A set's groups come from splitting one group of all candidates by each
//! pair's code, stably, from the last pair to the first, so their order is
//! fixed and [`crate::cost::balance_score`] sums in that order. Adding a
//! pair `p` to a parent set splits, by `p`'s code, the groups that the
//! parent's pairs after `p` form (the *suffix runs* of `p`'s insertion
//! slot); the parent's earlier pairs then split each part exactly as they
//! split its run. So the extension's groups are, run by run, code by code,
//! the parent's groups inside the run in parent order, each cut to the
//! candidates with that code. That sequence depends only on `p`'s code row
//! and slot, so [`OutcomeCodes::refining_extensions`] scores each (row,
//! slot) once per parent from per-group code counts, and its balances are
//! bit-identical to grouping each extension on its own. All slots of one
//! row share the count and the total of their sizes, so each slot's balance
//! only sums its squares ([`crate::cost`]'s `balance_of`), and a slot's
//! pairs are found by an exponential search from the previous slot's end.
//! The search passes one [`ExtensionScratch`] to every parent and takes the
//! extensions in a vector it owns, so no parent allocates.
//!
//! The exact evaluation of a realized set (Algorithm 4, Section 5.4) reads
//! the kernel too: a patched join row's old match row is its source class's
//! row, and its new match row is its destination class's, each one
//! [`OutcomeKernel::match_words`] probe (see [`crate::realize`]).
//!
//! Everything is immutable after construction, so the kernel — and with it
//! the whole `GenerationContext` — is `Sync`. Each context builds its own
//! kernel; nothing is carried across rounds.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

use qfe_query::SpjQuery;
use qfe_relation::JoinedRelation;

use crate::error::{QfeError, Result};
use crate::tuple_class::{SelectionAttribute, TupleClassSpace};

/// Upper bound on the number of interned classes for which the full per-class
/// match table is materialized. Beyond it the kernel falls back to the
/// factorized (attribute-wise AND) computation, which needs no table.
const MAX_TABLE_CLASSES: usize = 1 << 16;

/// Number of `u64` words needed for `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Reusable scratch buffers for match-bitset computation. One per thread;
/// obtained from [`OutcomeKernel::scratch`].
#[derive(Debug, Clone)]
pub(crate) struct MatchScratch {
    conj: Vec<u64>,
    query: Vec<u64>,
}

/// The partitioning a single (source, destination) class pair induces on the
/// candidate set, reduced to the four Lemma 5.1 outcome counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairStats {
    /// Queries per outcome, in canonical `[Unchanged, Added, Removed,
    /// Replaced]` order (zero entries mean the outcome does not occur).
    pub counts: [usize; 4],
}

impl PairStats {
    /// The non-empty subset sizes in canonical order.
    pub fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.counts.iter().copied().filter(|&c| c > 0)
    }

    /// Balance score of the induced partitioning (bitwise identical to
    /// [`crate::cost::balance_score`] over [`Self::sizes`]).
    pub fn balance(&self) -> f64 {
        let mut sizes = [0usize; 4];
        let mut k = 0;
        for c in self.sizes() {
            sizes[k] = c;
            k += 1;
        }
        crate::cost::balance_score(&sizes[..k])
    }

    /// For a binary partitioning, the size of the smaller subset (Lemma 3.1's
    /// `x`); `None` otherwise.
    pub fn binary_smaller(&self) -> Option<usize> {
        let mut nonzero = self.sizes();
        match (nonzero.next(), nonzero.next(), nonzero.next()) {
            (Some(a), Some(b), None) => Some(a.min(b)),
            _ => None,
        }
    }
}

/// The Lemma 5.1 outcome code (`0 = Unchanged, 1 = Added, 2 = Removed,
/// 3 = Replaced`) of every candidate under every pair of a pair list, one row
/// of `query_count` codes per pair, and the pairs grouped by identical row.
/// Built by `GenerationContext::outcome_codes`.
#[derive(Debug, Clone)]
pub(crate) struct OutcomeCodes {
    query_count: usize,
    codes: Vec<u8>,
    /// Per distinct code row: the pairs that have it, ascending.
    rows: Vec<Vec<usize>>,
}

impl OutcomeCodes {
    /// A table from its rows, concatenated; groups the pairs by row.
    pub fn new(query_count: usize, codes: Vec<u8>) -> OutcomeCodes {
        debug_assert!(query_count > 0 && codes.len().is_multiple_of(query_count));
        let mut row_index: HashMap<&[u8], usize> = HashMap::new();
        let mut rows: Vec<Vec<usize>> = Vec::new();
        for (pair, row) in codes.chunks_exact(query_count).enumerate() {
            let r = *row_index.entry(row).or_insert_with(|| {
                rows.push(Vec::new());
                rows.len() - 1
            });
            rows[r].push(pair);
        }
        OutcomeCodes {
            query_count,
            codes,
            rows,
        }
    }

    /// The number of pairs.
    fn pair_count(&self) -> usize {
        self.codes.len() / self.query_count
    }

    /// The code row of the pairs in `self.rows[r]`.
    fn row(&self, r: usize) -> &[u8] {
        let pair = self.rows[r][0];
        &self.codes[pair * self.query_count..(pair + 1) * self.query_count]
    }

    /// Pair `pair`'s code for query `q`.
    #[cfg(test)]
    pub fn code(&self, pair: usize, q: usize) -> u8 {
        self.codes[pair * self.query_count + q]
    }

    /// The sizes of the candidate groups the pairs `indices` (ascending)
    /// induce: two candidates share a group iff every pair gives them the
    /// same code. The groups come ordered by their codes read from the last
    /// pair back to the first, each code ascending — the order in which a
    /// sort of per-candidate keys packing pair `i`'s code at bits `2i..2i+2`
    /// yields them. [`crate::cost::balance_score`] sums in this order, so the
    /// order is part of every balance Algorithm 4 compares.
    #[cfg(test)]
    pub fn partition_sizes(&self, indices: &[usize]) -> Vec<usize> {
        let (_, ends) = self.groups(indices);
        let mut start = 0;
        ends.iter()
            .map(|&end| {
                let size = end - start;
                start = end;
                size
            })
            .collect()
    }

    /// The balance score of [`Self::partition_sizes`].
    #[cfg(test)]
    pub fn balance(&self, indices: &[usize]) -> f64 {
        crate::cost::balance_score(&self.partition_sizes(indices))
    }

    /// The groups of [`Self::partition_sizes`]: the candidates in group
    /// order, and the end (exclusive) of each group in that list.
    #[cfg(test)]
    fn groups(&self, indices: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut scratch = ExtensionScratch::default();
        self.suffix_groups(indices, &mut scratch);
        (scratch.order, scratch.runs.swap_remove(0))
    }

    /// The balance of every single-pair set `{p}`, indexed by pair.
    pub fn single_balances(&self) -> Vec<f64> {
        let mut balances = vec![f64::INFINITY; self.pair_count()];
        let mut scratch = ExtensionScratch::default();
        self.extensions(&[], &mut scratch);
        for slot in &scratch.slots {
            for &p in &self.rows[slot.row][slot.pairs.clone()] {
                balances[p] = slot.balance;
            }
        }
        balances
    }

    /// Every pair `p ∉ parent` (`parent` ascending) for which
    /// `parent ∪ {p}` balances strictly lower than `parent`, ascending, with
    /// that balance, into `found` (cleared first). Both balances are
    /// bit-identical to [`crate::cost::balance_score`] over the sets'
    /// partition sizes. `scratch` carries the buffers from one parent to the
    /// next.
    pub fn refining_extensions(
        &self,
        parent: &[usize],
        scratch: &mut ExtensionScratch,
        found: &mut Vec<(usize, f64)>,
    ) {
        let bound = self.extensions(parent, scratch);
        found.clear();
        for slot in &scratch.slots {
            if slot.balance < bound {
                let pairs = &self.rows[slot.row][slot.pairs.clone()];
                found.extend(pairs.iter().map(|&p| (p, slot.balance)));
            }
        }
        found.sort_unstable_by_key(|&(p, _)| p);
    }

    /// Scores the extensions `parent ∪ {p}`, `p ∉ parent`, by distinct code
    /// row and insertion slot (the position `p` takes in `parent`): fills
    /// `scratch.slots` with one entry per (row, slot) that holds pairs,
    /// naming those pairs (a range of the row's pairs, ascending) and the
    /// balance they all share. Returns the parent's own balance.
    ///
    /// Slot `t`'s runs are the groups the pairs `parent[t..]` form; the
    /// extension's sizes are, run by run, code by code, the non-zero counts
    /// of the parent's groups inside the run (see the module docs).
    fn extensions(&self, parent: &[usize], scratch: &mut ExtensionScratch) -> f64 {
        let nq = self.query_count;
        self.suffix_groups(parent, scratch);
        let ExtensionScratch {
            order,
            runs,
            group_of,
            groups_before,
            counts,
            sizes,
            slots,
            ..
        } = scratch;
        let group_count = runs[0].len();
        let mut start = 0;
        let group_sizes = runs[0].iter().map(|&end| {
            let size = end - start;
            start = end;
            size
        });
        let parent_balance = crate::cost::balance_of(group_count, nq, group_sizes);
        // Each candidate's parent group, and each run's end as a group
        // count.
        group_of.clear();
        group_of.resize(nq, 0);
        groups_before.clear();
        groups_before.resize(nq + 1, 0);
        let mut start = 0;
        for (g, &end) in runs[0].iter().enumerate() {
            for &q in &order[start..end] {
                group_of[q] = g;
            }
            groups_before[end] = g + 1;
            start = end;
        }
        for ends in runs.iter_mut() {
            for end in ends.iter_mut() {
                *end = groups_before[*end];
            }
        }

        let pair_count = self.pair_count();
        counts.clear();
        counts.resize(4 * group_count, 0);
        slots.clear();
        for (r, members) in self.rows.iter().enumerate() {
            // The row's pairs outside the parent, by slot: slot `t` holds
            // the pairs between `parent[t - 1]` and `parent[t]`.
            let row_slots = slots.len();
            let mut from = 0;
            for t in 0..=parent.len() {
                let hi = parent.get(t).copied().unwrap_or(pair_count);
                let to = gallop(members, from, hi);
                let pairs = from..to;
                // The next slot starts past `parent[t]` itself.
                from = to + usize::from(members.get(to) == Some(&hi));
                if !pairs.is_empty() {
                    slots.push(Slot {
                        row: r,
                        slot: t,
                        pairs,
                        balance: f64::INFINITY,
                    });
                }
            }
            if slots.len() == row_slots {
                continue;
            }
            // `counts[c * groups + g]`: parent group `g`'s candidates with
            // code `c`. Every slot's extension has the same non-zero counts,
            // in its own order.
            counts.fill(0);
            for (q, &code) in self.row(r).iter().enumerate() {
                counts[usize::from(code) * group_count + group_of[q]] += 1;
            }
            let count = counts.iter().filter(|&&n| n > 0).count();
            sizes.resize(4 * group_count, 0);
            for slot in &mut slots[row_slots..] {
                // The slot's non-zero counts in order, compacted without a
                // branch on each count.
                let (mut k, mut first) = (0, 0);
                for &end in &runs[slot.slot] {
                    for code in 0..4 {
                        let at = code * group_count;
                        for &n in &counts[at + first..at + end] {
                            sizes[k] = n;
                            k += usize::from(n > 0);
                        }
                    }
                    first = end;
                }
                let sizes = sizes[..k].iter().copied();
                slot.balance = crate::cost::balance_of(count, nq, sizes);
            }
        }
        parent_balance
    }

    /// Groups the candidates by the pairs `indices` (ascending): starts
    /// from one group of all candidates and splits every group by code, stably,
    /// taking the pairs from the last to the first. Leaves the candidates in
    /// final group order in `scratch.order` and, for every `t` in
    /// `0..=indices.len()`, the ends (exclusive, in that list) of the groups
    /// `indices[t..]` form in `scratch.runs[t]`. Every such group is a
    /// contiguous range of the final list, so `runs[0]` holds the final
    /// groups and `runs[indices.len()]` is one group of all.
    fn suffix_groups(&self, indices: &[usize], scratch: &mut ExtensionScratch) {
        let nq = self.query_count;
        let ExtensionScratch {
            order, next, runs, ..
        } = scratch;
        order.clear();
        order.extend(0..nq);
        next.clear();
        next.resize(nq, 0);
        runs.resize_with(indices.len() + 1, Vec::new);
        runs[indices.len()].clear();
        runs[indices.len()].push(nq);
        for (t, &pair) in indices.iter().enumerate().rev() {
            let (head, tail) = runs.split_at_mut(t + 1);
            let (ends, next_ends) = (&tail[0], &mut head[t]);
            next_ends.clear();
            if ends.len() == nq {
                // All singletons: nothing left to split.
                next_ends.extend_from_slice(ends);
                continue;
            }
            let row = &self.codes[pair * nq..(pair + 1) * nq];
            let mut start = 0;
            for &end in ends {
                // Counting sort of the group by code, stable.
                let mut slot = [0usize; 4];
                for &q in &order[start..end] {
                    slot[usize::from(row[q])] += 1;
                }
                let mut offset = start;
                for s in &mut slot {
                    let count = *s;
                    *s = offset;
                    offset += count;
                    if count > 0 {
                        next_ends.push(offset);
                    }
                }
                for &q in &order[start..end] {
                    let s = &mut slot[usize::from(row[q])];
                    next[*s] = q;
                    *s += 1;
                }
                start = end;
            }
            std::mem::swap(order, next);
        }
    }
}

/// The first position at or after `from` of the ascending `members` whose
/// pair is not below `hi`: an exponential search from `from`, so that a
/// slot of few pairs costs a few comparisons.
fn gallop(members: &[usize], from: usize, hi: usize) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= members.len() && members[lo + step - 1] < hi {
        lo += step;
        step *= 2;
    }
    let end = (lo + step).min(members.len());
    lo + members[lo..end].partition_point(|&p| p < hi)
}

/// The buffers [`OutcomeCodes::refining_extensions`] reuses from one parent
/// to the next.
#[derive(Debug, Default)]
pub(crate) struct ExtensionScratch {
    /// The candidates in the parent's group order.
    order: Vec<usize>,
    next: Vec<usize>,
    /// `runs[t]`: the ends of the groups the parent's pairs from `t` on form.
    runs: Vec<Vec<usize>>,
    group_of: Vec<usize>,
    groups_before: Vec<usize>,
    counts: Vec<usize>,
    sizes: Vec<usize>,
    slots: Vec<Slot>,
}

/// A (code row, insertion slot) that holds pairs outside the parent.
#[derive(Debug)]
struct Slot {
    row: usize,
    slot: usize,
    /// The pairs, a range of the row's pairs.
    pairs: Range<usize>,
    /// The balance of every extension by one of the pairs.
    balance: f64,
}

/// The bit-packed class-level reasoning kernel. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct OutcomeKernel {
    query_count: usize,
    query_words: usize,
    conj_words: usize,
    /// One bit per (query, conjunct); `query_masks[q]` selects query `q`'s
    /// conjunct bits. When `single_conjunct` is true the conjunct bitmap *is*
    /// the query bitmap (bit `q` ↔ query `q`'s only conjunct).
    single_conjunct: bool,
    conj_total: usize,
    query_masks: Vec<Vec<u64>>,
    /// The candidates with no conjunct (`WHERE TRUE`), which every class
    /// satisfies: bit `q` set when query `q`'s predicate is empty.
    unconditional: Vec<u64>,
    /// Per attribute: `blocks × conj_words` words; the slice for block `b`
    /// has bit `j` set when block `b` satisfies every term of conjunct `j`
    /// on this attribute.
    attr_conj_ok: Vec<Vec<u64>>,
    /// Mixed-radix strides for interning (`strides[last] == 1`).
    strides: Vec<usize>,
    block_counts: Vec<usize>,
    /// Total number of interned classes (product of block counts), when it
    /// fits in `usize`.
    class_count: Option<usize>,
    /// Dense per-class match table (`class_id × query_words`), when the class
    /// space is small enough to materialize.
    table: Option<Vec<u64>>,
    /// Per attribute position: does the attribute's join column appear in the
    /// candidates' projection?
    projection_touch: Vec<bool>,
}

impl OutcomeKernel {
    /// Builds the kernel for one context.
    pub fn build(
        space: &TupleClassSpace,
        queries: &[SpjQuery],
        join: &JoinedRelation,
        projection_columns: &BTreeSet<usize>,
    ) -> Result<OutcomeKernel> {
        let attrs = space.attributes();
        let query_count = queries.len();
        let query_words = words_for(query_count.max(1));

        // Assign one bit per (query, conjunct).
        let (conj_total, conj_ranges) = conjunct_layout(queries);
        let single_conjunct = conj_ranges.iter().all(|&(_, n)| n == 1);
        let conj_words = words_for(conj_total.max(1));
        let query_masks: Vec<Vec<u64>> = conj_ranges
            .iter()
            .map(|&(start, n)| {
                let mut mask = vec![0u64; conj_words];
                for j in start..start + n {
                    mask[j / 64] |= 1u64 << (j % 64);
                }
                mask
            })
            .collect();

        let mut unconditional = vec![0u64; query_words];
        for (q, &(_, n)) in conj_ranges.iter().enumerate() {
            if n == 0 {
                unconditional[q / 64] |= 1u64 << (q % 64);
            }
        }

        let terms_by_pos = terms_by_position(queries, &conj_ranges, join, attrs)?;

        // Per (attribute, block): which conjuncts have all their terms on the
        // attribute satisfied by the block. Term truth is constant within a
        // block by construction of the domain partition, so evaluating the
        // representative is exact.
        let attr_conj_ok: Vec<Vec<u64>> = attrs
            .iter()
            .enumerate()
            .map(|(pos, attr)| attr_conjunct_ok(attr, &terms_by_pos[pos], conj_total, conj_words))
            .collect();

        // Mixed-radix strides, last attribute fastest.
        let block_counts: Vec<usize> = attrs.iter().map(|a| a.blocks.len()).collect();
        let mut strides = vec![1usize; attrs.len()];
        let mut class_count: Option<usize> = Some(1);
        for i in (0..attrs.len()).rev() {
            strides[i] = class_count.unwrap_or_default();
            class_count = class_count.and_then(|c| c.checked_mul(block_counts[i].max(1)));
        }

        let projection_touch: Vec<bool> = attrs
            .iter()
            .map(|a| projection_columns.contains(&a.column))
            .collect();

        let mut kernel = OutcomeKernel {
            query_count,
            query_words,
            conj_words,
            single_conjunct,
            conj_total,
            query_masks,
            unconditional,
            attr_conj_ok,
            strides,
            block_counts,
            class_count,
            table: None,
            projection_touch,
        };

        // Materialize the dense per-class match table when the class space is
        // small: every later `class_matches` becomes a single bit probe.
        if let Some(total) = kernel.class_count {
            if total <= MAX_TABLE_CLASSES {
                kernel.table = Some(kernel.fill_table(total, &conj_ranges));
            }
        }
        Ok(kernel)
    }

    /// The dense per-class match table, `total × query_words` words in
    /// class-id order: row `id` is what [`Self::compute_match_words`]
    /// returns for the class with that id.
    ///
    /// The classes are visited in odometer order (last attribute fastest,
    /// which is stride order), keeping one conjunct bitmap per attribute
    /// position: the AND of the blocks' conjunct bitmaps up to that
    /// position. A step of the odometer recomputes these prefix ANDs only
    /// from the position it changed. The satisfied conjuncts are then folded
    /// into query bits through a conjunct→query map, visiting only the set
    /// bits (identity when every candidate is a single conjunct).
    fn fill_table(&self, total: usize, conj_ranges: &[(usize, usize)]) -> Vec<u64> {
        let cw = self.conj_words;
        let qw = self.query_words;
        let attrs = self.block_counts.len();
        let mut query_of = vec![0usize; self.conj_total];
        for (q, &(start, n)) in conj_ranges.iter().enumerate() {
            query_of[start..start + n].fill(q);
        }
        // The conjunct bits in use, for the fold.
        let mut used = vec![0u64; cw];
        for j in 0..self.conj_total {
            used[j / 64] |= 1u64 << (j % 64);
        }
        // `prefix[0]` is the factorized path's starting bitmap ("every
        // conjunct satisfied"); `prefix[pos + 1]` ANDs in the block of
        // attribute `pos`.
        let mut prefix = vec![0u64; (attrs + 1) * cw];
        prefix[..cw].fill(u64::MAX);
        if !self.conj_total.is_multiple_of(64) {
            prefix[self.conj_total / 64] &= (1u64 << (self.conj_total % 64)) - 1;
        }
        let mut table = vec![0u64; total * qw];
        let mut class = vec![0usize; attrs];
        let mut changed = 0;
        for row in table.chunks_exact_mut(qw) {
            for pos in changed..attrs {
                let block = &self.attr_conj_ok[pos][class[pos] * cw..(class[pos] + 1) * cw];
                let (done, rest) = prefix.split_at_mut((pos + 1) * cw);
                for ((out, &p), &b) in rest[..cw].iter_mut().zip(&done[pos * cw..]).zip(block) {
                    *out = p & b;
                }
            }
            let sat = &prefix[attrs * cw..];
            if self.single_conjunct {
                row.copy_from_slice(&sat[..qw]);
            } else {
                row.copy_from_slice(&self.unconditional);
                for (w, (&bits, &used)) in sat.iter().zip(&used).enumerate() {
                    let mut bits = bits & used;
                    while bits != 0 {
                        let q = query_of[w * 64 + bits.trailing_zeros() as usize];
                        row[q / 64] |= 1u64 << (q % 64);
                        bits &= bits - 1;
                    }
                }
            }
            // Odometer increment, last attribute fastest (= stride order, so
            // the row index tracks `class_id(&class)`).
            for pos in (0..attrs).rev() {
                class[pos] += 1;
                changed = pos;
                if class[pos] < self.block_counts[pos] {
                    break;
                }
                class[pos] = 0;
            }
        }
        table
    }

    /// Whether the dense per-class table is materialized.
    #[cfg(test)]
    pub fn has_table(&self) -> bool {
        self.table.is_some()
    }

    /// Fresh scratch buffers sized for this kernel.
    pub fn scratch(&self) -> MatchScratch {
        MatchScratch {
            conj: vec![0u64; self.conj_words],
            query: vec![0u64; self.query_words],
        }
    }

    /// The interned id of a class (mixed-radix over block indices).
    #[inline]
    pub fn class_id(&self, class: &[usize]) -> usize {
        debug_assert_eq!(class.len(), self.strides.len());
        class.iter().zip(&self.strides).map(|(&b, &s)| b * s).sum()
    }

    /// Whether the modification positions touch a projected column.
    #[inline]
    pub fn projection_touched(&self, changed: &[usize]) -> bool {
        changed.iter().any(|&pos| self.projection_touch[pos])
    }

    /// The candidate-match bitset of a class: bit `q` is set iff a tuple of
    /// the class satisfies query `q`. Returns a borrow of either the dense
    /// table or the scratch buffer; no allocation either way.
    #[inline]
    pub fn match_words<'a>(&'a self, class: &[usize], scratch: &'a mut MatchScratch) -> &'a [u64] {
        if let Some(table) = &self.table {
            let id = self.class_id(class);
            return &table[id * self.query_words..(id + 1) * self.query_words];
        }
        self.compute_match_words(class, scratch)
    }

    /// Factorized match computation: AND the per-attribute conjunct bitsets,
    /// then fold conjunct bits into query bits.
    fn compute_match_words<'a>(&self, class: &[usize], scratch: &'a mut MatchScratch) -> &'a [u64] {
        let sat = &mut scratch.conj;
        // Start from "every conjunct satisfied" with padding cleared; an
        // attribute-less space (no selection predicates) leaves it that way.
        for w in sat.iter_mut() {
            *w = u64::MAX;
        }
        let total = self.conj_total;
        if !total.is_multiple_of(64) {
            sat[total / 64] &= (1u64 << (total % 64)) - 1;
        }
        for w in sat.iter_mut().skip(words_for(total.max(1))) {
            *w = 0;
        }
        for (pos, &b) in class.iter().enumerate() {
            let blocks = &self.attr_conj_ok[pos];
            let slice = &blocks[b * self.conj_words..(b + 1) * self.conj_words];
            for (s, &x) in sat.iter_mut().zip(slice) {
                *s &= x;
            }
        }
        if self.single_conjunct {
            // Conjunct bit j == query bit j.
            scratch.query[..self.query_words].copy_from_slice(&sat[..self.query_words]);
        } else {
            scratch.query.copy_from_slice(&self.unconditional);
            for (q, mask) in self.query_masks.iter().enumerate() {
                if sat.iter().zip(mask).any(|(&s, &m)| s & m != 0) {
                    scratch.query[q / 64] |= 1u64 << (q % 64);
                }
            }
        }
        &scratch.query
    }

    /// Whether a tuple of `class` satisfies query `q` — a bit probe on the
    /// dense table, or a per-query conjunct scan without any buffer.
    #[inline]
    pub fn class_matches(&self, class: &[usize], q: usize) -> bool {
        if let Some(table) = &self.table {
            let id = self.class_id(class);
            return table[id * self.query_words + q / 64] & (1u64 << (q % 64)) != 0;
        }
        if self.unconditional[q / 64] & (1u64 << (q % 64)) != 0 {
            return true;
        }
        let mask = &self.query_masks[q];
        for (w, &m) in mask.iter().enumerate() {
            let mut bits = m;
            while bits != 0 {
                let bit = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let satisfied = class.iter().enumerate().all(|(pos, &b)| {
                    self.attr_conj_ok[pos][b * self.conj_words + bit / 64] & (1u64 << (bit % 64))
                        != 0
                });
                if satisfied {
                    return true;
                }
            }
        }
        false
    }

    /// Outcome counts of a single pair from its source/destination match
    /// bitsets (Lemma 5.1, bit-parallel).
    #[inline]
    pub fn pair_stats(
        &self,
        source: &[u64],
        destination: &[u64],
        projection_changed: bool,
    ) -> PairStats {
        let mut tt = 0usize; // matches before and after
        let mut removed = 0usize;
        let mut added = 0usize;
        for (&s, &d) in source.iter().zip(destination) {
            tt += (s & d).count_ones() as usize;
            removed += (s & !d).count_ones() as usize;
            added += (!s & d).count_ones() as usize;
        }
        let ff = self.query_count - tt - removed - added;
        let (unchanged, replaced) = if projection_changed {
            (ff, tt)
        } else {
            (ff + tt, 0)
        };
        PairStats {
            counts: [unchanged, added, removed, replaced],
        }
    }

    /// The 2-bit packed outcome code of one query under one pair:
    /// `0 = Unchanged, 1 = Added, 2 = Removed, 3 = Replaced`.
    #[inline]
    pub fn outcome_code(
        &self,
        source: &[u64],
        destination: &[u64],
        projection_changed: bool,
        q: usize,
    ) -> u8 {
        let w = q / 64;
        let bit = 1u64 << (q % 64);
        let s = source[w] & bit != 0;
        let d = destination[w] & bit != 0;
        match (s, d) {
            (false, false) => 0,
            (false, true) => 1,
            (true, false) => 2,
            (true, true) => {
                if projection_changed {
                    3
                } else {
                    0
                }
            }
        }
    }
}

/// One bit per (query, conjunct): the total conjunct count and, per query,
/// the `(start, len)` range of its conjunct bits.
fn conjunct_layout(queries: &[SpjQuery]) -> (usize, Vec<(usize, usize)>) {
    let mut conj_total = 0usize;
    let mut conj_ranges: Vec<(usize, usize)> = Vec::with_capacity(queries.len());
    for q in queries {
        let n = q.predicate.conjuncts().len();
        conj_ranges.push((conj_total, n));
        conj_total += n;
    }
    (conj_total, conj_ranges)
}

/// Groups every conjunct's terms by the attribute position its column
/// resolves to: `result[pos] = [(conjunct bit, term)]`.
fn terms_by_position<'q>(
    queries: &'q [SpjQuery],
    conj_ranges: &[(usize, usize)],
    join: &JoinedRelation,
    attrs: &[SelectionAttribute],
) -> Result<Vec<Vec<(usize, &'q qfe_query::Term)>>> {
    // Map join columns to attribute positions.
    let col_to_pos: std::collections::BTreeMap<usize, usize> = attrs
        .iter()
        .enumerate()
        .map(|(pos, a)| (a.column, pos))
        .collect();
    let mut terms_by_pos: Vec<Vec<(usize, &qfe_query::Term)>> = vec![Vec::new(); attrs.len()];
    for (q, query) in queries.iter().enumerate() {
        let (start, _) = conj_ranges[q];
        for (c, conjunct) in query.predicate.conjuncts().iter().enumerate() {
            for term in conjunct.terms() {
                let col = join
                    .resolve_column(term.attribute())
                    .map_err(QfeError::from)?;
                let pos = *col_to_pos.get(&col).ok_or_else(|| QfeError::Internal {
                    message: format!(
                        "predicate attribute {} missing from the class space",
                        term.attribute()
                    ),
                })?;
                terms_by_pos[pos].push((start + c, term));
            }
        }
    }
    Ok(terms_by_pos)
}

/// The per-block conjunct bitsets of one attribute: `blocks × conj_words`
/// words, bit `j` of block `b`'s slice set when block `b` satisfies every
/// term of conjunct `j` on this attribute, padding beyond `conj_total`
/// cleared so AND folds stay canonical.
fn attr_conjunct_ok(
    attr: &SelectionAttribute,
    terms: &[(usize, &qfe_query::Term)],
    conj_total: usize,
    conj_words: usize,
) -> Vec<u64> {
    let blocks = attr.blocks.len();
    let mut ok = vec![u64::MAX; blocks * conj_words];
    let used = conj_total.max(1);
    for b in 0..blocks {
        let slice = &mut ok[b * conj_words..(b + 1) * conj_words];
        if !used.is_multiple_of(64) {
            slice[used / 64] &= (1u64 << (used % 64)) - 1;
        }
        for w in slice.iter_mut().skip(used.div_ceil(64)) {
            *w = 0;
        }
    }
    for &(bit, term) in terms {
        for (b, block) in attr.blocks.iter().enumerate() {
            if !term.eval(block.representative()) {
                ok[b * conj_words + bit / 64] &= !(1u64 << (bit % 64));
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use qfe_query::{BoundQuery, ComparisonOp, Conjunct, DnfPredicate, SpjQuery, Term};
    use qfe_relation::{
        foreign_key_join, tuple, ColumnDef, DataType, Database, Table, TableSchema,
    };

    fn setup(queries: Vec<SpjQuery>) -> (JoinedRelation, TupleClassSpace, Vec<SpjQuery>) {
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
        let space =
            TupleClassSpace::build(&join, &crate::ActiveDomains::new(&join), &queries).unwrap();
        (join, space, queries)
    }

    fn q(p: DnfPredicate) -> SpjQuery {
        SpjQuery::new(vec!["Employee"], vec!["name"], p)
    }

    #[test]
    fn kernel_matches_agree_with_bound_query_evaluation() {
        let queries = vec![
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                4000i64,
            ))),
            // A two-conjunct DNF exercises the mask-fold path.
            q(DnfPredicate::new(vec![
                Conjunct::new(vec![Term::eq("dept", "IT")]),
                Conjunct::new(vec![
                    Term::eq("gender", "F"),
                    Term::compare("salary", ComparisonOp::Le, 3500i64),
                ]),
            ])),
        ];
        let (join, space, queries) = setup(queries);
        let bound: Vec<BoundQuery> = queries
            .iter()
            .map(|qq| BoundQuery::bind(qq, &join).unwrap())
            .collect();
        let kernel =
            OutcomeKernel::build(&space, &queries, &join, &std::collections::BTreeSet::new())
                .unwrap();
        assert!(kernel.has_table());
        let mut scratch = kernel.scratch();
        for class in space.source_classes(&join).keys() {
            let words = kernel.match_words(class, &mut scratch).to_vec();
            for (qi, b) in bound.iter().enumerate() {
                let expected = space.class_matches(class, b);
                assert_eq!(kernel.class_matches(class, qi), expected, "q{qi} {class:?}");
                assert_eq!(words[qi / 64] & (1 << (qi % 64)) != 0, expected);
            }
        }
    }

    #[test]
    fn a_candidate_without_conjuncts_matches_every_class() {
        // `WHERE TRUE` next to a two-conjunct DNF: the mask-fold path.
        let queries = vec![
            q(DnfPredicate::always_true()),
            q(DnfPredicate::new(vec![
                Conjunct::new(vec![Term::eq("dept", "IT")]),
                Conjunct::new(vec![Term::eq("gender", "F")]),
            ])),
        ];
        let (join, space, queries) = setup(queries);
        let bound: Vec<BoundQuery> = queries
            .iter()
            .map(|qq| BoundQuery::bind(qq, &join).unwrap())
            .collect();
        let with_table =
            OutcomeKernel::build(&space, &queries, &join, &std::collections::BTreeSet::new())
                .unwrap();
        let mut without_table = with_table.clone();
        without_table.table = None;
        for kernel in [&with_table, &without_table] {
            let mut scratch = kernel.scratch();
            for row in join.rows() {
                let class = space.classify(&row.tuple).unwrap();
                let words = kernel.match_words(&class, &mut scratch).to_vec();
                for (qi, b) in bound.iter().enumerate() {
                    let expected = b.matches_row(&row.tuple);
                    assert_eq!(
                        kernel.class_matches(&class, qi),
                        expected,
                        "q{qi} {class:?}"
                    );
                    assert_eq!(words[qi / 64] & (1 << (qi % 64)) != 0, expected);
                }
            }
        }
    }

    #[test]
    fn factorized_path_agrees_with_table_path() {
        let queries = vec![
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::eq("dept", "IT"))),
        ];
        let (join, space, queries) = setup(queries);
        let with_table =
            OutcomeKernel::build(&space, &queries, &join, &std::collections::BTreeSet::new())
                .unwrap();
        let mut without_table = with_table.clone();
        without_table.table = None;
        let mut s1 = with_table.scratch();
        let mut s2 = without_table.scratch();
        // Exhaustively enumerate the (tiny) class space.
        let counts: Vec<usize> = space.attributes().iter().map(|a| a.blocks.len()).collect();
        let mut class = vec![0usize; counts.len()];
        loop {
            assert_eq!(
                with_table.match_words(&class, &mut s1),
                without_table.match_words(&class, &mut s2),
                "{class:?}"
            );
            for qi in 0..queries.len() {
                assert_eq!(
                    with_table.class_matches(&class, qi),
                    without_table.class_matches(&class, qi)
                );
            }
            let mut pos = class.len();
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                class[pos] += 1;
                if class[pos] < counts[pos] {
                    break;
                }
                class[pos] = 0;
            }
        }
    }

    /// The table fill (prefix ANDs in odometer order, conjunct→query fold)
    /// against the factorized computation it replaces, on every class id:
    /// multi-conjunct DNFs, `WHERE TRUE` candidates, and more than 64
    /// conjuncts and candidates, so both bitmaps span several words and the
    /// last word of each is padded.
    #[test]
    fn table_rows_equal_the_factorized_computation() {
        let mut queries = Vec::new();
        for i in 0..70i64 {
            queries.push(match i % 7 {
                0 => q(DnfPredicate::always_true()),
                1 => q(DnfPredicate::single(Term::compare(
                    "salary",
                    ComparisonOp::Gt,
                    2900 + 30 * i,
                ))),
                _ => q(DnfPredicate::new(vec![
                    Conjunct::new(vec![Term::compare(
                        "salary",
                        ComparisonOp::Gt,
                        3000 + 25 * i,
                    )]),
                    Conjunct::new(vec![
                        Term::eq("gender", if i % 2 == 0 { "M" } else { "F" }),
                        Term::compare("salary", ComparisonOp::Le, 2800 + 35 * i),
                    ]),
                    Conjunct::new(vec![Term::eq(
                        "dept",
                        ["IT", "Sales", "HR"][i as usize % 3],
                    )]),
                ])),
            });
        }
        let (join, space, queries) = setup(queries);
        let kernel =
            OutcomeKernel::build(&space, &queries, &join, &std::collections::BTreeSet::new())
                .unwrap();
        assert!(kernel.conj_total > 64 && !kernel.conj_total.is_multiple_of(64));
        assert!(kernel.conj_words >= 2 && kernel.query_words >= 2);
        assert!(!kernel.single_conjunct);
        let table = kernel.table.as_ref().expect("the class space is small");
        let counts: Vec<usize> = space.attributes().iter().map(|a| a.blocks.len()).collect();
        let total: usize = counts.iter().product();
        assert!(total > 1);
        assert_eq!(table.len(), total * kernel.query_words);
        let mut scratch = kernel.scratch();
        let mut class = vec![0usize; counts.len()];
        let mut seen = 0;
        'classes: loop {
            let id = kernel.class_id(&class);
            assert_eq!(
                &table[id * kernel.query_words..(id + 1) * kernel.query_words],
                kernel.compute_match_words(&class, &mut scratch),
                "{class:?}"
            );
            seen += 1;
            let mut pos = class.len();
            loop {
                if pos == 0 {
                    break 'classes;
                }
                pos -= 1;
                class[pos] += 1;
                if class[pos] < counts[pos] {
                    break;
                }
                class[pos] = 0;
            }
        }
        assert_eq!(seen, total);
    }

    /// A deterministic SplitMix64 stream for the random code tables.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn code_grouping_agrees_with_signature_grouping() {
        let mut rng = 19u64;
        let mut long_sets = 0;
        for case in 0..300 {
            let nq = 1 + (splitmix(&mut rng) % 70) as usize;
            let pairs = 1 + (splitmix(&mut rng) % 64) as usize;
            // Few distinct codes in some tables, so that groups merge.
            let alphabet = 1 + case % 4;
            let codes: Vec<u8> = (0..nq * pairs)
                .map(|_| (splitmix(&mut rng) % alphabet as u64) as u8)
                .collect();
            let table = OutcomeCodes::new(nq, codes);
            let indices: Vec<usize> = (0..pairs)
                .filter(|_| !splitmix(&mut rng).is_multiple_of(3))
                .collect();
            long_sets += usize::from(indices.len() > 32);

            // Oracle: candidates grouped by their explicit code signatures.
            let mut by_signature: BTreeMap<Vec<u8>, BTreeSet<usize>> = BTreeMap::new();
            for q in 0..nq {
                let signature = indices.iter().map(|&i| table.code(i, q)).collect();
                by_signature.entry(signature).or_default().insert(q);
            }
            let expected: BTreeSet<BTreeSet<usize>> = by_signature.into_values().collect();
            let (order, ends) = table.groups(&indices);
            let mut start = 0;
            let got: BTreeSet<BTreeSet<usize>> = ends
                .iter()
                .map(|&end| {
                    let group = order[start..end].iter().copied().collect();
                    start = end;
                    group
                })
                .collect();
            assert_eq!(got, expected, "case {case}: {indices:?}");

            // Up to 32 pairs: the sizes in the order of a sort of packed keys
            // (pair `i`'s code at bits 2i..2i+2), so balances are identical.
            if indices.len() <= 32 {
                let mut keys: Vec<u64> = (0..nq)
                    .map(|q| {
                        indices.iter().enumerate().fold(0u64, |key, (i, &p)| {
                            key | u64::from(table.code(p, q)) << (2 * i)
                        })
                    })
                    .collect();
                keys.sort_unstable();
                let mut sizes: Vec<usize> = Vec::new();
                for (i, key) in keys.iter().enumerate() {
                    if i > 0 && keys[i - 1] == *key {
                        *sizes.last_mut().unwrap() += 1;
                    } else {
                        sizes.push(1);
                    }
                }
                assert_eq!(table.partition_sizes(&indices), sizes, "case {case}");
                assert_eq!(
                    table.balance(&indices).to_bits(),
                    crate::cost::balance_score(&sizes).to_bits()
                );
            }
        }
        assert!(long_sets > 10, "too few sets of more than 32 pairs");
    }

    /// The pairs `p ∉ parent` whose extension balances strictly lower than
    /// `parent`, ascending, each grouped on its own.
    fn lower_extensions(table: &OutcomeCodes, parent: &[usize]) -> Vec<(usize, u64)> {
        let bound = table.balance(parent);
        (0..table.pair_count())
            .filter(|p| !parent.contains(p))
            .filter_map(|p| {
                let mut extended = parent.to_vec();
                extended.push(p);
                extended.sort_unstable();
                let balance = table.balance(&extended);
                (balance < bound).then_some((p, balance.to_bits()))
            })
            .collect()
    }

    fn extension_bits(
        table: &OutcomeCodes,
        parent: &[usize],
        scratch: &mut ExtensionScratch,
    ) -> Vec<(usize, u64)> {
        let mut found = Vec::new();
        table.refining_extensions(parent, scratch, &mut found);
        found
            .into_iter()
            .map(|(p, balance)| (p, balance.to_bits()))
            .collect()
    }

    #[test]
    fn refining_extensions_are_exactly_the_lower_balanced_extensions() {
        let mut rng = 21u64;
        let (mut parents, mut found, mut long, mut singletons) = (0, 0, 0, 0);
        // One scratch for every parent of every table, as pick keeps it.
        let mut scratch = ExtensionScratch::default();
        for case in 0..240u64 {
            // Every fourth table has 2–6 candidates, so that parents often
            // split them into singletons.
            let nq = if case % 4 == 3 {
                2 + (splitmix(&mut rng) % 5) as usize
            } else {
                2 + (splitmix(&mut rng) % 69) as usize
            };
            // A few distinct rows over a small alphabet, so that pairs share
            // rows and groups merge.
            let alphabet = 1 + case % 4;
            let distinct = 1 + (splitmix(&mut rng) % 12) as usize;
            let palette: Vec<Vec<u8>> = (0..distinct)
                .map(|_| {
                    (0..nq)
                        .map(|_| (splitmix(&mut rng) % alphabet) as u8)
                        .collect()
                })
                .collect();
            let pair_count = 1 + (splitmix(&mut rng) % 64) as usize;
            let codes: Vec<u8> = (0..pair_count)
                .flat_map(|_| palette[(splitmix(&mut rng) % distinct as u64) as usize].clone())
                .collect();
            let table = OutcomeCodes::new(nq, codes);

            for p in 0..pair_count {
                assert_eq!(
                    table.single_balances()[p].to_bits(),
                    table.balance(&[p]).to_bits(),
                    "case {case}: single {p}"
                );
            }
            for _ in 0..4 {
                // A random parent of 1–40 pairs (Fisher–Yates prefix).
                let size = 1 + (splitmix(&mut rng) % 40) as usize % pair_count;
                let mut shuffled: Vec<usize> = (0..pair_count).collect();
                for i in 0..size {
                    let j = i + (splitmix(&mut rng) % (pair_count - i) as u64) as usize;
                    shuffled.swap(i, j);
                }
                let mut parent = shuffled[..size].to_vec();
                parent.sort_unstable();
                let expected = lower_extensions(&table, &parent);
                assert_eq!(
                    extension_bits(&table, &parent, &mut scratch),
                    expected,
                    "case {case}: parent {parent:?}"
                );
                parents += 1;
                found += expected.len();
                long += usize::from(parent.len() > 32);
                singletons += usize::from(table.partition_sizes(&parent).len() == nq);
            }
        }
        assert!(found > 100, "too few refining extensions ({found})");
        assert!(long > 10, "too few parents of more than 32 pairs ({long})");
        assert!(
            singletons > 10,
            "too few all-singleton parents ({singletons})"
        );
        assert_eq!(parents, 960);

        // An extension with its parent's groups, reordered: sizes
        // [1,1,1,1,2,1] → [1,1,1,1,1,2] sum one ulp lower, and the search
        // keeps that acceptance.
        let table = OutcomeCodes::new(
            7,
            [
                [0, 1, 2, 3, 0, 0, 1],
                [0, 0, 0, 0, 1, 1, 1],
                [0, 0, 0, 0, 1, 1, 0],
            ]
            .concat(),
        );
        assert_eq!(table.partition_sizes(&[0, 1]), [1, 1, 1, 1, 2, 1]);
        assert_eq!(table.partition_sizes(&[0, 1, 2]), [1, 1, 1, 1, 1, 2]);
        let lower = table.balance(&[0, 1, 2]);
        assert!(lower < table.balance(&[0, 1]));
        assert_eq!(
            extension_bits(&table, &[0, 1], &mut scratch),
            [(2, lower.to_bits())]
        );
    }

    #[test]
    fn pair_stats_count_the_four_outcomes() {
        let queries = vec![
            q(DnfPredicate::single(Term::eq("gender", "M"))),
            q(DnfPredicate::single(Term::compare(
                "salary",
                ComparisonOp::Gt,
                4000i64,
            ))),
            q(DnfPredicate::single(Term::eq("dept", "IT"))),
        ];
        let (join, space, queries) = setup(queries);
        let kernel =
            OutcomeKernel::build(&space, &queries, &join, &std::collections::BTreeSet::new())
                .unwrap();
        // source matches {0,1,2}; destination matches {0,2}: one Removed.
        let s = vec![0b111u64];
        let d = vec![0b101u64];
        let stats = kernel.pair_stats(&s, &d, false);
        assert_eq!(stats.counts, [2, 0, 1, 0]);
        assert_eq!(stats.sizes().count(), 2);
        assert_eq!(stats.binary_smaller(), Some(1));
        assert!(stats.balance().is_finite());
        // With a projection change the two true-true queries become Replaced.
        let stats = kernel.pair_stats(&s, &d, true);
        assert_eq!(stats.counts, [0, 0, 1, 2]);
        assert_eq!(kernel.outcome_code(&s, &d, true, 0), 3);
        assert_eq!(kernel.outcome_code(&s, &d, true, 1), 2);
        // No split: infinite balance.
        let same = kernel.pair_stats(&s, &s, false);
        assert_eq!(same.sizes().count(), 1);
        assert!(same.balance().is_infinite());
        assert_eq!(same.binary_smaller(), None);
    }
}
