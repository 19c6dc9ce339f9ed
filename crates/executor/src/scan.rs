//! Compiled scan kernels: the stateless prefix of a routing scope
//! (type routing, predicate clauses, groupability) evaluated over whole
//! [`EventBatch`]es into **u64 selection bitmaps**, 64 rows per word.
//!
//! A [`ScanKernel`] is the only thing that selects the rows an executor
//! folds: it compiles the scope's clause list once and evaluates it
//! column-at-a-time instead of walking every row through branchy
//! per-clause checks:
//!
//! 1. **Routing + groupability pass** — one fused sweep over the `ty` and
//!    row-offset columns builds the candidate bitmap: a single per-type
//!    table lookup yields the row's minimum width (`u32::MAX` for
//!    unrouted types), so bit `i` is one compare — set iff the row's type
//!    routes into the scope *and* the row carries every `GROUP BY`
//!    attribute (grouping attributes are positional, so presence of
//!    attribute `a` is `row_width > a`). The same sweep scatters each
//!    clause-bearing type's membership bitmap, so the type column is read
//!    exactly once per scan no matter how many clauses follow.
//! 2. **Gather** — identical `(attr, op, lit)` clauses appearing on
//!    several types (the signature of a shared workload) are merged at
//!    compile time into one clause over the union type mask; for each
//!    distinct `(type set, attribute)` run, the *live* rows' values are
//!    gathered once into reused typed column scratch (`f64` mirror, exact
//!    `i64` lane, plus present/int/str bitmaps). Live means still
//!    selected: rows an earlier clause failed are never gathered again.
//! 3. **Clause evaluation** — each clause produces a pass bitmap from the
//!    gathered columns with branch-free 64-lane comparisons, folded into
//!    the selection with `R &= !M | P` (rows of other types are
//!    unaffected; matching rows must pass). String-literal equality falls
//!    back to a scalar lane over the (few) set bits.
//! 4. **Extraction** — `trailing_zeros` walks each word's survivors into
//!    the existing `Vec<u32>` selection buffers.
//!
//! Exactness is non-negotiable: the kernel reproduces
//! [`sharon_query::clause_passes`] bit for bit — a missing attribute
//! fails every operator (`!=` included), a present-but-incomparable value
//! (numeric vs. string, NaN comparisons) satisfies only `!=`, `Int` vs
//! `Int` compares exactly in `i64` (no precision loss past 2^53), and
//! mixed numeric comparisons go through `f64` exactly like
//! [`Value::partial_cmp`]. The per-row clause checks
//! ([`sharon_query::clause_passes`] and the scopes' `predicates_pass` /
//! `groupable`) remain as the tests' oracle.

use sharon_query::{clause_passes, CmpOp};
use sharon_types::{AttrId, EventBatch, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-scope stateless-scan tallies, shared between a [`crate::BatchRouter`]
/// (which may live on a dedicated router thread) and the
/// [`crate::ShardedExecutor`] handle that reports them: `scanned` counts
/// rows examined, `selected` rows that survived routing + predicates +
/// groupability.
#[derive(Debug)]
pub struct ScanCounters {
    scanned: Box<[AtomicU64]>,
    selected: Box<[AtomicU64]>,
}

impl ScanCounters {
    /// Zeroed counters for `n_scopes` routing scopes.
    pub fn new(n_scopes: usize) -> Arc<Self> {
        Arc::new(ScanCounters {
            scanned: (0..n_scopes).map(|_| AtomicU64::new(0)).collect(),
            selected: (0..n_scopes).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Add one chunk's tallies for `scope`.
    #[inline]
    pub fn record(&self, scope: usize, scanned: u64, selected: u64) {
        self.scanned[scope].fetch_add(scanned, Ordering::Relaxed);
        self.selected[scope].fetch_add(selected, Ordering::Relaxed);
    }

    /// Number of scopes tracked.
    pub fn len(&self) -> usize {
        self.scanned.len()
    }

    /// True if no scopes are tracked.
    pub fn is_empty(&self) -> bool {
        self.scanned.is_empty()
    }

    /// `(rows_scanned, rows_selected)` of `scope` so far.
    pub fn get(&self, scope: usize) -> (u64, u64) {
        (
            self.scanned[scope].load(Ordering::Relaxed),
            self.selected[scope].load(Ordering::Relaxed),
        )
    }

    /// All scopes' `(rows_scanned, rows_selected)` pairs.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

/// One compiled predicate clause: rows of the types named by `slots`
/// must satisfy `attrs[attr] <op> lit`. Identical `(attr, op, lit)`
/// clauses appearing on several routed types — the signature of a shared
/// workload — are merged into one clause over the *union* of the type
/// masks, so the comparison sweep runs once, not once per type.
#[derive(Debug, Clone)]
struct Clause {
    /// Slot indexes (into the scattered per-type membership bitmaps) of
    /// every type carrying this clause, sorted.
    slots: Box<[u32]>,
    /// Positional attribute index within the row.
    attr: u32,
    op: CmpOp,
    lit: Value,
}

/// Reused typed column scratch of the gather stage: one entry per chunk
/// row (dense; only lanes set in the current type bitmap are live).
#[derive(Debug, Default)]
struct Gather {
    /// `f64` mirror of every present numeric value (`Int` lanes hold
    /// `i as f64` — exactly [`Value::as_f64`]'s mixed-comparison view).
    f64s: Vec<f64>,
    /// Exact `i64` lane of `Int` values.
    i64s: Vec<i64>,
    /// Bit set iff the row carries the attribute at all.
    present: Vec<u64>,
    /// Bit set iff the attribute is `Value::Int` (⊆ present).
    ints: Vec<u64>,
    /// Bit set iff the attribute is `Value::Str` (⊆ present).
    strs: Vec<u64>,
}

/// A compiled scan kernel for one routing scope. Built once at executor
/// construction (see [`crate::CompiledPartition::scan_kernel`]); all
/// scratch is reused, so steady-state scanning allocates nothing.
#[derive(Debug)]
pub struct ScanKernel {
    /// Per type id (dense): `(min_width, 1 + slot)`. `min_width` fuses
    /// routing and groupability into one compare — `u32::MAX` for
    /// unrouted types (unreachable by any real row: a row would need
    /// 2^32 - 1 values to match, more than the u32 offset column can
    /// index), else `max group-attr index + 1` (0 with no `GROUP BY`).
    /// The second element is `1 + slot` into
    /// [`ScanKernel::ty_match_all`] for types carrying clauses, 0
    /// otherwise — pass 1 scatters every clause type's membership bitmap
    /// in its single sweep over the type column.
    ty_table: Box<[(u32, u32)]>,
    /// Merged predicate clauses, sorted by `(slots, attr)` so the gather
    /// is built once per distinct `(type set, attr)` run.
    clauses: Box<[Clause]>,
    /// Number of distinct clause-bearing types (slots).
    n_slots: usize,
    /// The selection bitmap under construction (64 rows per word).
    words: Vec<u64>,
    /// Concatenated per-slot type-membership bitmaps (`n_slots × n_words`),
    /// filled by pass 1.
    ty_match_all: Vec<u64>,
    /// The current clause's *live* mask: its type's membership ∧ the
    /// selection so far — rows another clause already failed are never
    /// gathered or compared again.
    ty_match: Vec<u64>,
    gather: Gather,
}

impl ScanKernel {
    /// Compile a kernel from a scope's routing bitmap, per-type `GROUP BY`
    /// attributes, and per-type predicate clauses.
    pub fn new(
        routed: Vec<bool>,
        group_attrs: &[Box<[AttrId]>],
        predicates: &[Vec<(AttrId, CmpOp, Value)>],
    ) -> Self {
        // raw per-type clauses of routed types (others can never matter)
        let mut raw: Vec<(u32, u32, CmpOp, Value)> = Vec::new();
        for (ti, is_routed) in routed.iter().enumerate() {
            if !is_routed {
                continue;
            }
            for (attr, op, lit) in predicates.get(ti).into_iter().flatten() {
                raw.push((ti as u32, attr.index() as u32, *op, lit.clone()));
            }
        }
        // one scatter slot per clause-bearing type, in type order
        let mut ty_slot = vec![0u32; routed.len()];
        let mut n_slots = 0usize;
        for &(ti, ..) in raw.iter() {
            let s = &mut ty_slot[ti as usize];
            if *s == 0 {
                n_slots += 1;
                *s = n_slots as u32;
            }
        }
        // merge identical (attr, op, lit) clauses across types: a shared
        // workload attaches the same comparison to many pattern types, and
        // one sweep over the union mask serves them all. (NaN float
        // literals never compare equal, so they simply stay unmerged.)
        let mut clauses: Vec<Clause> = Vec::new();
        let mut merged: Vec<Vec<u32>> = Vec::new();
        for (ti, attr, op, lit) in raw {
            let slot = ty_slot[ti as usize] - 1;
            if let Some(i) = clauses
                .iter()
                .position(|c| c.attr == attr && c.op == op && c.lit == lit)
            {
                if !merged[i].contains(&slot) {
                    merged[i].push(slot);
                }
            } else {
                clauses.push(Clause {
                    slots: Box::new([]),
                    attr,
                    op,
                    lit,
                });
                merged.push(vec![slot]);
            }
        }
        for (c, mut slots) in clauses.iter_mut().zip(merged) {
            slots.sort_unstable();
            c.slots = slots.into_boxed_slice();
        }
        clauses.sort_by(|a, b| (&a.slots, a.attr).cmp(&(&b.slots, b.attr)));
        let ty_table = routed
            .iter()
            .enumerate()
            .map(|(ti, &is_routed)| {
                let need = if is_routed {
                    group_attrs
                        .get(ti)
                        .map(|g| g.iter().map(|a| a.index() as u32 + 1).max().unwrap_or(0))
                        .unwrap_or(0)
                } else {
                    u32::MAX
                };
                (need, ty_slot[ti])
            })
            .collect();
        ScanKernel {
            ty_table,
            clauses: clauses.into_boxed_slice(),
            n_slots,
            words: Vec::new(),
            ty_match_all: Vec::new(),
            ty_match: Vec::new(),
            gather: Gather::default(),
        }
    }

    /// Evaluate the scope's stateless prefix over rows `lo..hi` of
    /// `batch` into the selection bitmap `words`: bit `i - lo` covers
    /// absolute row `i`.
    fn scan(&mut self, batch: &EventBatch, lo: usize, hi: usize) {
        let n = hi - lo;
        let n_words = n.div_ceil(64);
        self.words.clear();
        self.words.resize(n_words, 0);
        let tys = &batch.types()[lo..hi];
        // chunk-relative offsets view: row i's width is offs[i+1]-offs[i]
        let offs = &batch.offsets()[lo..hi + 1];

        // pass 1: routing ∧ groupability, fused over the ty and offset
        // columns (lanes beyond `n` stay 0 in the trailing word): one
        // table lookup yields the row's minimum width (u32::MAX for
        // unrouted types), so routing and the GROUP BY width check are a
        // single compare. The same sweep scatters each clause-bearing
        // type's membership bitmap into its `ty_match_all` slot, so pass 2
        // never re-reads the type column — clause-free scopes take the
        // slot-free loop below.
        let table = &self.ty_table;
        if self.n_slots == 0 {
            for (w, word) in self.words.iter_mut().enumerate() {
                let base = w * 64;
                let lanes = (n - base).min(64);
                let tys_w = &tys[base..base + lanes];
                let offs_w = &offs[base..base + lanes + 1];
                let mut bits = 0u64;
                for (lane, ty) in tys_w.iter().enumerate() {
                    let (need, _) = table.get(ty.index()).copied().unwrap_or((u32::MAX, 0));
                    let ok = offs_w[lane + 1] - offs_w[lane] >= need;
                    bits |= (ok as u64) << lane;
                }
                *word = bits;
            }
        } else {
            self.ty_match_all.clear();
            self.ty_match_all.resize(self.n_slots * n_words, 0);
            for (w, word) in self.words.iter_mut().enumerate() {
                let base = w * 64;
                let lanes = (n - base).min(64);
                let tys_w = &tys[base..base + lanes];
                let offs_w = &offs[base..base + lanes + 1];
                let mut bits = 0u64;
                for (lane, ty) in tys_w.iter().enumerate() {
                    let (need, slot) = table.get(ty.index()).copied().unwrap_or((u32::MAX, 0));
                    let ok = offs_w[lane + 1] - offs_w[lane] >= need;
                    bits |= (ok as u64) << lane;
                    if slot != 0 {
                        self.ty_match_all[(slot as usize - 1) * n_words + w] |= 1u64 << lane;
                    }
                }
                *word = bits;
            }
        }
        if self.clauses.is_empty() || self.words.iter().all(|&w| w == 0) {
            return;
        }

        // pass 2: predicate clauses, fused with AND/ANDNOT. Each clause's
        // working mask is the union of its types' membership bitmaps
        // (scattered by pass 1) ∧ the selection so far, so rows an earlier
        // clause already failed are neither gathered nor compared again.
        // Clauses are sorted by (slots, attr): the gather runs once per
        // distinct (type set, attr) run, and because the selection only
        // ever shrinks, a gather taken at the first clause of a run covers
        // every later clause's (smaller) mask.
        let mut cur: Option<(&[u32], u32)> = None;
        let values = batch.values();
        for clause in self.clauses.iter() {
            self.ty_match.clear();
            self.ty_match.resize(n_words, 0);
            for &s in clause.slots.iter() {
                let sb = &self.ty_match_all[s as usize * n_words..][..n_words];
                for (m, &t) in self.ty_match.iter_mut().zip(sb) {
                    *m |= t;
                }
            }
            let mut live = 0u64;
            for (m, &r) in self.ty_match.iter_mut().zip(self.words.iter()) {
                *m &= r;
                live |= *m;
            }
            if live == 0 {
                continue; // no live rows of these types: clause cannot matter
            }
            if cur != Some((&clause.slots, clause.attr)) {
                gather_column(
                    &mut self.gather,
                    &self.ty_match,
                    offs,
                    values,
                    clause.attr,
                    n,
                );
                cur = Some((&clause.slots, clause.attr));
            }
            eval_clause(
                &mut self.words,
                &self.ty_match,
                &self.gather,
                offs,
                values,
                clause,
                n,
            );
        }
    }

    /// Evaluate the scope's stateless prefix over rows `lo..hi` of
    /// `batch` and append the surviving absolute row indexes to `sel`
    /// (ascending).
    pub fn select_into(&mut self, batch: &EventBatch, lo: usize, hi: usize, sel: &mut Vec<u32>) {
        self.scan(batch, lo, hi);
        extract_into(&self.words, lo, sel);
    }
}

/// Gather attribute `attr` of every row in `ty_match` into the typed
/// column scratch. `offs` is the chunk-relative offsets view (`n + 1`
/// entries indexing the batch-wide `values` buffer).
fn gather_column(
    g: &mut Gather,
    ty_match: &[u64],
    offs: &[u32],
    values: &[Value],
    attr: u32,
    n: usize,
) {
    let n_words = ty_match.len();
    g.f64s.resize(n, 0.0);
    g.i64s.resize(n, 0);
    g.present.clear();
    g.present.resize(n_words, 0);
    g.ints.clear();
    g.ints.resize(n_words, 0);
    g.strs.clear();
    g.strs.resize(n_words, 0);
    for (w, &m) in ty_match.iter().enumerate() {
        let mut bits = m;
        let (mut present, mut ints, mut strs) = (0u64, 0u64, 0u64);
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let i = w * 64 + lane;
            if offs[i + 1] - offs[i] > attr {
                present |= 1 << lane;
                match &values[(offs[i] + attr) as usize] {
                    Value::Int(x) => {
                        ints |= 1 << lane;
                        g.i64s[i] = *x;
                        // the f64 mirror is exactly `Value::as_f64`'s view
                        // of the mixed numeric comparison
                        g.f64s[i] = *x as f64;
                    }
                    Value::Float(f) => g.f64s[i] = *f,
                    Value::Str(_) => strs |= 1 << lane,
                }
            }
        }
        g.present[w] = present;
        g.ints[w] = ints;
        g.strs[w] = strs;
    }
}

/// 64-lane branch-free comparison of an `f64` column against a literal.
/// Native IEEE-754 comparisons reproduce `partial_cmp` + `CmpOp::eval`
/// exactly: any comparison involving NaN orders as `None`, which fails
/// every operator except `!=` — and native `!=` is true for NaN operands.
#[inline]
fn cmp_f64_word(vals: &[f64], lit: f64, op: CmpOp) -> u64 {
    macro_rules! pack {
        ($test:expr) => {{
            let mut bits = 0u64;
            for (lane, &v) in vals.iter().enumerate() {
                bits |= (($test(v)) as u64) << lane;
            }
            bits
        }};
    }
    match op {
        CmpOp::Eq => pack!(|v: f64| v == lit),
        CmpOp::Ne => pack!(|v: f64| v != lit),
        CmpOp::Lt => pack!(|v: f64| v < lit),
        CmpOp::Le => pack!(|v: f64| v <= lit),
        CmpOp::Gt => pack!(|v: f64| v > lit),
        CmpOp::Ge => pack!(|v: f64| v >= lit),
    }
}

/// 64-lane comparison of the exact `i64` column against an integer
/// literal (`Int` vs `Int` must not round-trip through `f64`: beyond
/// 2^53 the conversion conflates distinct integers).
#[inline]
fn cmp_i64_word(vals: &[i64], lit: i64, op: CmpOp) -> u64 {
    macro_rules! pack {
        ($test:expr) => {{
            let mut bits = 0u64;
            for (lane, &v) in vals.iter().enumerate() {
                bits |= (($test(v)) as u64) << lane;
            }
            bits
        }};
    }
    match op {
        CmpOp::Eq => pack!(|v: i64| v == lit),
        CmpOp::Ne => pack!(|v: i64| v != lit),
        CmpOp::Lt => pack!(|v: i64| v < lit),
        CmpOp::Le => pack!(|v: i64| v <= lit),
        CmpOp::Gt => pack!(|v: i64| v > lit),
        CmpOp::Ge => pack!(|v: i64| v >= lit),
    }
}

/// Fold one clause into the selection: `words[w] &= !M | P` — rows of
/// other types (`!M`) are unaffected, matching rows survive only where
/// the clause passes (`P`).
fn eval_clause(
    words: &mut [u64],
    ty_match: &[u64],
    g: &Gather,
    offs: &[u32],
    values: &[Value],
    clause: &Clause,
    n: usize,
) {
    let op = clause.op;
    // a present-but-incomparable value satisfies only `!=`
    let ne_all = if op == CmpOp::Ne { !0u64 } else { 0 };
    for (w, &m) in ty_match.iter().enumerate() {
        if m == 0 {
            continue;
        }
        let base = w * 64;
        let lanes = (n - base).min(64);
        let present = g.present[w];
        let strs = g.strs[w];
        let pass = match &clause.lit {
            Value::Int(k) => {
                // Int vs Int is exact; Float vs Int goes through f64
                // (`as_f64` on both sides); Str vs Int is incomparable
                let ints = g.ints[w];
                let floats = present & !ints & !strs;
                let ci = cmp_i64_word(&g.i64s[base..base + lanes], *k, op);
                let cf = cmp_f64_word(&g.f64s[base..base + lanes], *k as f64, op);
                (ints & ci) | (floats & cf) | (present & strs & ne_all)
            }
            Value::Float(x) => {
                // every numeric lane compares in f64 (Int lanes were
                // mirrored by the gather); Str vs Float is incomparable
                let nums = present & !strs;
                let cf = cmp_f64_word(&g.f64s[base..base + lanes], *x, op);
                (nums & cf) | (present & strs & ne_all)
            }
            Value::Str(_) => {
                // Str vs Str compares lexicographically — a scalar lane
                // over the (few) string bits through the shared helper;
                // numeric vs Str is incomparable
                let mut pass = present & !strs & ne_all;
                let mut bits = m & present & strs;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let i = base + lane;
                    let v = &values[(offs[i] + clause.attr) as usize];
                    if clause_passes(op, Some(v), &clause.lit) {
                        pass |= 1 << lane;
                    }
                }
                pass
            }
        };
        words[w] &= !m | pass;
    }
}

/// Extract the set bits of a selection bitmap into absolute row indexes
/// (bit `i` of `words` is row `lo + i`), appended to `sel` ascending.
pub fn extract_into(words: &[u64], lo: usize, sel: &mut Vec<u32>) {
    for (w, &word) in words.iter().enumerate() {
        let base = lo + w * 64;
        let mut bits = word;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            sel.push((base + lane) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_types::{EventTypeId, Timestamp};

    /// The scalar oracle: routing, clauses and groupability row by row.
    fn scalar_select(
        routed: &[bool],
        group_attrs: &[Box<[AttrId]>],
        predicates: &[Vec<(AttrId, CmpOp, Value)>],
        batch: &EventBatch,
        lo: usize,
        hi: usize,
    ) -> Vec<u32> {
        let mut sel = Vec::new();
        for row in lo..hi {
            let ty = batch.ty(row);
            if !routed.get(ty.index()).copied().unwrap_or(false) {
                continue;
            }
            let attrs = batch.attrs(row);
            let preds_ok = predicates.get(ty.index()).is_none_or(|preds| {
                preds
                    .iter()
                    .all(|(a, op, lit)| clause_passes(*op, attrs.get(a.index()), lit))
            });
            if !preds_ok {
                continue;
            }
            let grp_ok = group_attrs
                .get(ty.index())
                .is_none_or(|gattrs| gattrs.iter().all(|a| attrs.get(a.index()).is_some()));
            if !grp_ok {
                continue;
            }
            sel.push(row as u32);
        }
        sel
    }

    fn assert_parity(
        routed: Vec<bool>,
        group_attrs: Vec<Box<[AttrId]>>,
        predicates: Vec<Vec<(AttrId, CmpOp, Value)>>,
        batch: &EventBatch,
    ) {
        let mut kernel = ScanKernel::new(routed.clone(), &group_attrs, &predicates);
        for (lo, hi) in [
            (0, batch.len()),
            (0, batch.len().min(1)),
            (batch.len() / 3, batch.len()),
            (batch.len() / 2, batch.len() / 2),
        ] {
            let want = scalar_select(&routed, &group_attrs, &predicates, batch, lo, hi);
            let mut got = Vec::new();
            kernel.select_into(batch, lo, hi, &mut got);
            assert_eq!(got, want, "rows {lo}..{hi}");
        }
    }

    /// A batch mixing every hard case: NaN, ±inf, huge exact ints,
    /// strings, missing attributes, unrouted types, ragged widths.
    fn hard_batch(n: usize) -> EventBatch {
        let mut b = EventBatch::new();
        for i in 0..n {
            let ty = EventTypeId((i % 3) as u32);
            let t = Timestamp(i as u64);
            match i % 7 {
                0 => b.push_from(ty, t, [Value::Float(f64::NAN), Value::Int(i as i64)]),
                1 => b.push_from(ty, t, [Value::Int((1i64 << 53) + i as i64)]),
                2 => b.push_from(ty, t, []), // all attrs missing
                3 => b.push_from(ty, t, [Value::str("MainSt"), Value::Float(i as f64)]),
                4 => b.push_from(ty, t, [Value::Float(f64::INFINITY), Value::str("x")]),
                5 => b.push_from(ty, t, [Value::Int(-5), Value::Float(-0.0)]),
                _ => b.push_from(ty, t, [Value::Float(0.5 + i as f64)]),
            }
        }
        b
    }

    #[test]
    fn routing_and_group_width_only() {
        let b = hard_batch(130); // trailing partial word
        assert_parity(vec![true, false, true], vec![], vec![], &b);
        // GROUP BY attr 1 on type 0: width filter drops narrow rows
        assert_parity(
            vec![true, true, false],
            vec![Box::new([AttrId(1)]), Box::new([])],
            vec![],
            &b,
        );
    }

    #[test]
    fn numeric_clauses_match_scalar_semantics() {
        let b = hard_batch(200);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for lit in [
                Value::Int(0),
                Value::Int((1i64 << 53) + 1),
                Value::Float(f64::NAN),
                Value::Float(0.0),
                Value::Float(f64::INFINITY),
                Value::str("MainSt"),
                Value::str("zz"),
            ] {
                assert_parity(
                    vec![true, true, true],
                    vec![],
                    vec![
                        vec![(AttrId(0), op, lit.clone())],
                        vec![(AttrId(1), op, lit.clone())],
                        vec![],
                    ],
                    &b,
                );
            }
        }
    }

    #[test]
    fn int_comparisons_are_exact_past_2_pow_53() {
        // 2^53 and 2^53 + 1 collapse in f64; the exact i64 lane must not
        let mut b = EventBatch::new();
        b.push_from(EventTypeId(0), Timestamp(0), [Value::Int(1i64 << 53)]);
        b.push_from(EventTypeId(0), Timestamp(1), [Value::Int((1i64 << 53) + 1)]);
        let preds = vec![vec![(AttrId(0), CmpOp::Eq, Value::Int((1i64 << 53) + 1))]];
        let mut kernel = ScanKernel::new(vec![true], &[], &preds);
        let mut sel = Vec::new();
        kernel.select_into(&b, 0, 2, &mut sel);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn multiple_clauses_fuse_with_and() {
        let b = hard_batch(150);
        assert_parity(
            vec![true, true, true],
            vec![Box::new([]), Box::new([AttrId(0)])],
            vec![
                vec![
                    (AttrId(0), CmpOp::Ge, Value::Int(-10)),
                    (AttrId(1), CmpOp::Ne, Value::str("x")),
                ],
                vec![(AttrId(0), CmpOp::Ne, Value::Float(f64::NAN))],
                vec![],
            ],
            &b,
        );
    }

    #[test]
    fn empty_batch_and_unrouted_scope() {
        let b = EventBatch::new();
        let mut kernel = ScanKernel::new(vec![false], &[], &[]);
        let mut sel = Vec::new();
        kernel.select_into(&b, 0, 0, &mut sel);
        assert!(sel.is_empty());
    }

    #[test]
    fn extract_into_is_ascending_and_absolute() {
        let words = [0b1001u64, 0b1];
        let mut sel = Vec::new();
        extract_into(&words, 10, &mut sel);
        assert_eq!(sel, vec![10, 13, 74]);
    }

    #[test]
    fn counters_accumulate_per_scope() {
        let c = ScanCounters::new(2);
        c.record(0, 100, 10);
        c.record(0, 50, 5);
        c.record(1, 7, 7);
        assert_eq!(c.get(0), (150, 15));
        assert_eq!(c.snapshot(), vec![(150, 15), (7, 7)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }
}
