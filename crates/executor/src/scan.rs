//! Compiled scan kernels: the stateless prefix of a routing scope
//! (type routing, predicate clauses, groupability) evaluated over whole
//! [`EventBatch`]es into **u64 selection bitmaps**, 64 rows per word.
//!
//! A [`ScanKernel`] is the only thing that selects the rows an executor
//! folds: it compiles the scope's clause list once and evaluates it
//! column-at-a-time instead of walking every row through branchy
//! per-clause checks. The work splits into one pass shared by every scope
//! of an owner and the per-scope rest:
//!
//! 1. **Type pass, shared** — a [`TypePass`] sweeps the `ty` and
//!    row-offset columns of a chunk once for *all* scopes of its owner
//!    (an [`crate::Executor`]'s engines, a two-step driver's distinct
//!    scopes, or a [`crate::BatchRouter`]'s scopes — each owner's
//!    [`crate::ScanFront`]), building a membership bitmap for every
//!    routed type plus that type's minimum row width in the chunk.
//!    However many scopes follow, the type column is read once per
//!    chunk.
//! 2. **Routing + groupability, per scope** — the kernel's candidate
//!    bitmap is the union of its routed types' bitmaps. A row carries
//!    every `GROUP BY` attribute iff `row_width > max attr index`
//!    (grouping attributes are positional), so a type whose chunk-minimum
//!    width already covers the scope's need joins word-wise; only a type
//!    with narrower rows is checked bit by bit.
//! 3. **Gather** — identical `(attr, op, lit)` clauses appearing on
//!    several types (the signature of a shared workload) are merged at
//!    compile time into one clause over the union type mask; for each
//!    distinct `(type set, attribute)` run, the *live* rows' values are
//!    gathered once, compacted in row order, into reused typed column
//!    scratch (`f64` mirror, exact `i64` lane, plus present/int/str
//!    bitmaps). Live means of the clause's types (read from the shared
//!    type bitmaps) and still selected: rows an earlier clause failed are
//!    never gathered again.
//! 4. **Clause evaluation** — each clause produces pass bits for the
//!    gathered lanes with branch-free 64-lane comparisons, folded into
//!    the selection with `R &= !M | P` (rows of other types are
//!    unaffected; gathered rows must pass, so the fold clears the ones
//!    that fail). Compaction keeps the comparisons to rows the clause can
//!    affect, not every row of the chunk. String-literal equality falls
//!    back to a scalar lane over the (few) string lanes.
//! 5. **Extraction** — `trailing_zeros` walks each word's survivors into
//!    the existing `Vec<u32>` selection buffers.
//!
//! [`ScanKernel::select_from`] runs steps 2–5 over a pass its owner built;
//! [`ScanKernel::select_into`] is the one-scope form, building a pass that
//! covers only its own types and then running the same code.
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

/// Per-scope stateless-scan tallies of one front end
/// ([`crate::ScanFront`]), shareable with a handle on another thread (the
/// sharded runtime's router lives on its own): `scanned` counts rows
/// examined, `selected` rows that survived routing + predicates +
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

    /// Every scope's `(rows_scanned, rows_selected)` so far.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        self.scanned
            .iter()
            .map(load)
            .zip(self.selected.iter().map(load))
            .collect()
    }
}

/// One compiled predicate clause: rows of the types in `types` must
/// satisfy `attrs[attr] <op> lit`. Identical `(attr, op, lit)` clauses
/// appearing on several routed types — the signature of a shared
/// workload — are merged into one clause over the *union* of the type
/// masks, so the comparison sweep runs once, not once per type.
#[derive(Debug, Clone)]
struct Clause {
    /// Type ids of every type carrying this clause, sorted.
    types: Box<[u32]>,
    /// Positional attribute index within the row.
    attr: u32,
    op: CmpOp,
    lit: Value,
}

/// Reused typed column scratch of the gather stage: the gathered rows'
/// values **compacted** in row order, one lane per gathered row, so the
/// comparisons run over live rows only — not over every row of the chunk.
#[derive(Debug, Default)]
struct Gather {
    /// Chunk-relative row index of each lane.
    rows: Vec<u32>,
    /// `f64` mirror of every present numeric value (`Int` lanes hold
    /// `i as f64` — exactly [`Value::as_f64`]'s mixed-comparison view).
    f64s: Vec<f64>,
    /// Exact `i64` lane of `Int` values.
    i64s: Vec<i64>,
    /// Bit set iff the lane's row carries the attribute at all (64 lanes
    /// per word).
    present: Vec<u64>,
    /// Bit set iff the attribute is `Value::Int` (⊆ present).
    ints: Vec<u64>,
    /// Bit set iff the attribute is `Value::Str` (⊆ present).
    strs: Vec<u64>,
}

/// Pass 1 of the scan, shared by every scope of one owner: a single sweep
/// over the `ty` and row-offset columns of rows `lo..hi` builds, for every
/// type some covered kernel routes, the type's membership bitmap (bit
/// `i` covers absolute row `lo + i`) and the minimum width of its rows in
/// the chunk. Built once per chunk by [`TypePass::build`], then read by
/// each covered kernel's [`ScanKernel::select_from`]. All storage is
/// reused, so steady-state passes allocate nothing.
#[derive(Debug)]
pub struct TypePass {
    /// Per type id (dense): the type's slot, 0 for types no covered
    /// kernel routes. Slot 0 is a sink that unrouted rows write to, so the
    /// sweep carries no branch on routing.
    slot_of: Box<[u32]>,
    /// Per slot: the chunk's membership bitmap, `n_words` words each.
    members: Vec<u64>,
    /// Per slot: the narrowest row of the type in the chunk (`u32::MAX`
    /// when it has none).
    min_width: Vec<u32>,
    lo: usize,
    hi: usize,
    n_words: usize,
}

impl TypePass {
    /// A pass covering every type routed by any of `kernels`.
    pub fn new<'a>(kernels: impl IntoIterator<Item = &'a ScanKernel>) -> Self {
        let mut slot_of: Vec<u32> = Vec::new();
        let mut n_slots = 1u32; // slot 0 is the unrouted sink
        for kernel in kernels {
            for &(ty, _) in kernel.types.iter() {
                let ty = ty as usize;
                if slot_of.len() <= ty {
                    slot_of.resize(ty + 1, 0);
                }
                if slot_of[ty] == 0 {
                    slot_of[ty] = n_slots;
                    n_slots += 1;
                }
            }
        }
        TypePass {
            slot_of: slot_of.into_boxed_slice(),
            members: Vec::new(),
            min_width: vec![u32::MAX; n_slots as usize],
            lo: 0,
            hi: 0,
            n_words: 0,
        }
    }

    /// Sweep rows `lo..hi` of `batch` once: every covered kernel may then
    /// select from this chunk.
    pub fn build(&mut self, batch: &EventBatch, lo: usize, hi: usize) {
        let n = hi - lo;
        let n_words = n.div_ceil(64);
        (self.lo, self.hi, self.n_words) = (lo, hi, n_words);
        self.members.clear();
        self.members.resize(self.min_width.len() * n_words, 0);
        self.min_width.fill(u32::MAX);
        if self.min_width.len() == 1 {
            return; // covers no type: every kernel selects nothing
        }
        let tys = &batch.types()[lo..hi];
        // chunk-relative offsets view: row i's width is offs[i+1]-offs[i]
        let offs = &batch.offsets()[lo..hi + 1];
        for (i, (ty, w)) in tys.iter().zip(offs.windows(2)).enumerate() {
            let slot = self.slot_of.get(ty.index()).copied().unwrap_or(0) as usize;
            self.members[slot * n_words + i / 64] |= 1u64 << (i % 64);
            let min = &mut self.min_width[slot];
            *min = (*min).min(w[1] - w[0]);
        }
    }

    /// Type `ty`'s `(membership bitmap, minimum row width)` in the chunk.
    ///
    /// # Panics
    ///
    /// If no kernel this pass was built for routes `ty`.
    fn of(&self, ty: u32) -> (&[u64], u32) {
        let slot = self.slot_of.get(ty as usize).copied().unwrap_or(0) as usize;
        assert!(slot != 0, "type {ty} is not covered by this type pass");
        (
            &self.members[slot * self.n_words..][..self.n_words],
            self.min_width[slot],
        )
    }
}

/// A compiled scan kernel for one routing scope. Built once at executor
/// construction (see [`crate::CompiledPartition::scan_kernel`]); all
/// scratch is reused, so steady-state scanning allocates nothing.
#[derive(Debug)]
pub struct ScanKernel {
    /// Routed types, ascending: `(type id, need)`, where `need` is the
    /// row width that carries every `GROUP BY` attribute of the type
    /// (`max group-attr index + 1`, 0 with no `GROUP BY`).
    types: Box<[(u32, u32)]>,
    /// Merged predicate clauses, sorted by `(types, attr)` so the gather
    /// is built once per distinct `(type set, attr)` run.
    clauses: Box<[Clause]>,
    /// The selection bitmap under construction (64 rows per word).
    words: Vec<u64>,
    /// The current clause's *live* mask: its types' membership ∧ the
    /// selection so far — rows another clause already failed are never
    /// gathered or compared again.
    ty_match: Vec<u64>,
    gather: Gather,
    /// The pass [`ScanKernel::select_into`] builds over this kernel's own
    /// types (created on first use; boxed, as most kernels never build
    /// one).
    solo: Option<Box<TypePass>>,
}

impl ScanKernel {
    /// Compile a kernel from a scope's routing bitmap, per-type `GROUP BY`
    /// attributes, and per-type predicate clauses.
    pub fn new(
        routed: Vec<bool>,
        group_attrs: &[Box<[AttrId]>],
        predicates: &[Vec<(AttrId, CmpOp, Value)>],
    ) -> Self {
        let types: Box<[(u32, u32)]> = routed
            .iter()
            .enumerate()
            .filter(|&(_, &is_routed)| is_routed)
            .map(|(ti, _)| {
                let need = group_attrs
                    .get(ti)
                    .map(|g| g.iter().map(|a| a.index() as u32 + 1).max().unwrap_or(0))
                    .unwrap_or(0);
                (ti as u32, need)
            })
            .collect();
        // merge identical (attr, op, lit) clauses of routed types (others
        // can never matter) across types: a shared workload attaches the
        // same comparison to many pattern types, and one sweep over the
        // union mask serves them all. (NaN float literals never compare
        // equal, so they simply stay unmerged.)
        let mut clauses: Vec<Clause> = Vec::new();
        let mut merged: Vec<Vec<u32>> = Vec::new();
        for &(ti, _) in types.iter() {
            for (attr, op, lit) in predicates.get(ti as usize).into_iter().flatten() {
                let attr = attr.index() as u32;
                if let Some(i) = clauses
                    .iter()
                    .position(|c| c.attr == attr && c.op == *op && c.lit == *lit)
                {
                    if !merged[i].contains(&ti) {
                        merged[i].push(ti);
                    }
                } else {
                    clauses.push(Clause {
                        types: Box::new([]),
                        attr,
                        op: *op,
                        lit: lit.clone(),
                    });
                    merged.push(vec![ti]);
                }
            }
        }
        for (c, tys) in clauses.iter_mut().zip(merged) {
            // pushed in ascending type order: already sorted
            c.types = tys.into_boxed_slice();
        }
        clauses.sort_by(|a, b| (&a.types, a.attr).cmp(&(&b.types, b.attr)));
        ScanKernel {
            types,
            clauses: clauses.into_boxed_slice(),
            words: Vec::new(),
            ty_match: Vec::new(),
            gather: Gather::default(),
            solo: None,
        }
    }

    /// Select this scope's rows of the chunk `pass` was last built over
    /// (rows `lo..hi` of `batch`), appending the surviving absolute row
    /// indexes to `sel` (ascending).
    ///
    /// # Panics
    ///
    /// If `pass` was not built for this kernel (see [`TypePass::new`]).
    pub fn select_from(&mut self, pass: &TypePass, batch: &EventBatch, sel: &mut Vec<u32>) {
        self.scan(pass, batch);
        extract_into(&self.words, pass.lo, sel);
    }

    /// Evaluate the scope's stateless prefix over rows `lo..hi` of
    /// `batch` and append the surviving absolute row indexes to `sel`
    /// (ascending): the one-scope form of [`ScanKernel::select_from`],
    /// over a pass covering only this kernel's types.
    pub fn select_into(&mut self, batch: &EventBatch, lo: usize, hi: usize, sel: &mut Vec<u32>) {
        let mut solo = self
            .solo
            .take()
            .unwrap_or_else(|| Box::new(TypePass::new([&*self])));
        solo.build(batch, lo, hi);
        self.select_from(&solo, batch, sel);
        self.solo = Some(solo);
    }

    /// Evaluate the scope's stateless prefix over the chunk of `pass`
    /// into the selection bitmap `words`: bit `i` covers absolute row
    /// `pass.lo + i`.
    fn scan(&mut self, pass: &TypePass, batch: &EventBatch) {
        let n_words = pass.n_words;
        self.words.clear();
        self.words.resize(n_words, 0);
        let offs = &batch.offsets()[pass.lo..pass.hi + 1];

        // routing ∧ groupability: the union of the routed types' bitmaps,
        // word-wise where the type's narrowest row in the chunk carries
        // every GROUP BY attribute, bit by bit only where it does not
        for &(ty, need) in self.types.iter() {
            let (members, min_width) = pass.of(ty);
            if min_width >= need {
                for (r, &m) in self.words.iter_mut().zip(members) {
                    *r |= m;
                }
                continue;
            }
            for (w, (r, &m)) in self.words.iter_mut().zip(members).enumerate() {
                let mut bits = m;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let i = w * 64 + lane;
                    if offs[i + 1] - offs[i] >= need {
                        *r |= 1 << lane;
                    }
                }
            }
        }
        if self.clauses.is_empty() || self.words.iter().all(|&w| w == 0) {
            return;
        }

        // predicate clauses, fused with AND/ANDNOT. Each clause's working
        // mask is the union of its types' shared membership bitmaps ∧ the
        // selection so far, so rows an earlier clause already failed are
        // neither gathered nor compared again. Clauses are sorted by
        // (types, attr): the gather runs once per distinct (type set,
        // attr) run, and because the selection only ever shrinks, a gather
        // taken at the first clause of a run covers every later clause's
        // (smaller) mask.
        let mut cur: Option<(&[u32], u32)> = None;
        let values = batch.values();
        for clause in self.clauses.iter() {
            self.ty_match.clear();
            self.ty_match.resize(n_words, 0);
            for &ty in clause.types.iter() {
                for (m, &t) in self.ty_match.iter_mut().zip(pass.of(ty).0) {
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
            if cur != Some((&clause.types, clause.attr)) {
                gather_column(&mut self.gather, &self.ty_match, offs, values, clause.attr);
                cur = Some((&clause.types, clause.attr));
            }
            eval_clause(&mut self.words, &self.gather, offs, values, clause);
        }
    }
}

/// Gather attribute `attr` of every row in `ty_match`, compacted in row
/// order, into the typed column scratch. `offs` is the chunk-relative
/// offsets view (`n + 1` entries indexing the batch-wide `values` buffer).
fn gather_column(g: &mut Gather, ty_match: &[u64], offs: &[u32], values: &[Value], attr: u32) {
    g.rows.clear();
    g.f64s.clear();
    g.i64s.clear();
    g.present.clear();
    g.ints.clear();
    g.strs.clear();
    let (mut present, mut ints, mut strs) = (0u64, 0u64, 0u64);
    for (w, &m) in ty_match.iter().enumerate() {
        let mut bits = m;
        while bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let lane = g.rows.len() % 64;
            let (mut f, mut k) = (0.0, 0);
            if offs[i + 1] - offs[i] > attr {
                present |= 1 << lane;
                match &values[(offs[i] + attr) as usize] {
                    Value::Int(x) => {
                        ints |= 1 << lane;
                        k = *x;
                        // the f64 mirror is exactly `Value::as_f64`'s view
                        // of the mixed numeric comparison
                        f = *x as f64;
                    }
                    Value::Float(x) => f = *x,
                    Value::Str(_) => strs |= 1 << lane,
                }
            }
            g.rows.push(i as u32);
            g.f64s.push(f);
            g.i64s.push(k);
            if lane == 63 {
                g.present.push(std::mem::take(&mut present));
                g.ints.push(std::mem::take(&mut ints));
                g.strs.push(std::mem::take(&mut strs));
            }
        }
    }
    if !g.rows.len().is_multiple_of(64) {
        g.present.push(present);
        g.ints.push(ints);
        g.strs.push(strs);
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

/// Fold one clause into the selection, 64 gathered lanes at a time:
/// `R &= !M | P` — rows of other types (`!M`) are unaffected, the
/// gathered rows (`M`) survive only where the clause passes (`P`), so the
/// fold clears exactly the gathered rows that fail. Gathered rows an
/// earlier clause of the same run already failed are cleared again, which
/// changes nothing.
fn eval_clause(words: &mut [u64], g: &Gather, offs: &[u32], values: &[Value], clause: &Clause) {
    let op = clause.op;
    // a present-but-incomparable value satisfies only `!=`
    let ne_all = if op == CmpOp::Ne { !0u64 } else { 0 };
    for (w, rows) in g.rows.chunks(64).enumerate() {
        let base = w * 64;
        let lanes = rows.len();
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
                let mut bits = present & strs;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let i = rows[lane] as usize;
                    let v = &values[(offs[i] + clause.attr) as usize];
                    if clause_passes(op, Some(v), &clause.lit) {
                        pass |= 1 << lane;
                    }
                }
                pass
            }
        };
        let mut fail = !pass & (u64::MAX >> (64 - lanes));
        while fail != 0 {
            let i = rows[fail.trailing_zeros() as usize] as usize;
            fail &= fail - 1;
            words[i / 64] &= !(1u64 << (i % 64));
        }
    }
}

/// Extract the set bits of a selection bitmap into absolute row indexes
/// (bit `i` of `words` is row `lo + i`), appended to `sel` ascending.
pub(crate) fn extract_into(words: &[u64], lo: usize, sel: &mut Vec<u32>) {
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
    fn kernels_sharing_a_type_pass_select_as_they_do_alone() {
        // one pass, three scopes: GROUP BY widths that every row of a type
        // covers (word-wise union), that only some rows cover (bit-by-bit
        // width check), and a clause merged across two types
        let b = hard_batch(150);
        type Table = (
            Vec<bool>,
            Vec<Box<[AttrId]>>,
            Vec<Vec<(AttrId, CmpOp, Value)>>,
        );
        let tables: Vec<Table> = vec![
            (vec![true, true, false], vec![], vec![]),
            (
                vec![false, true, true],
                vec![Box::new([]), Box::new([AttrId(1)]), Box::new([AttrId(0)])],
                vec![],
            ),
            (
                vec![true, false, true],
                vec![],
                vec![
                    vec![(AttrId(0), CmpOp::Gt, Value::Int(0))],
                    vec![],
                    vec![(AttrId(0), CmpOp::Gt, Value::Int(0))],
                ],
            ),
        ];
        let mut kernels: Vec<ScanKernel> = tables
            .iter()
            .map(|(r, g, p)| ScanKernel::new(r.clone(), g, p))
            .collect();
        let mut pass = TypePass::new(&kernels);
        for (lo, hi) in [(0, b.len()), (7, 71), (b.len() / 2, b.len() / 2)] {
            pass.build(&b, lo, hi);
            for ((r, g, p), kernel) in tables.iter().zip(&mut kernels) {
                let mut got = Vec::new();
                kernel.select_from(&pass, &b, &mut got);
                assert_eq!(got, scalar_select(r, g, p, &b, lo, hi), "rows {lo}..{hi}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn a_pass_rejects_a_kernel_it_was_not_built_for() {
        let b = hard_batch(10);
        let mut pass = TypePass::new([&ScanKernel::new(vec![true], &[], &[])]);
        pass.build(&b, 0, b.len());
        let mut other = ScanKernel::new(vec![false, true], &[], &[]);
        other.select_from(&pass, &b, &mut Vec::new());
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
        assert_eq!(c.snapshot(), vec![(150, 15), (7, 7)]);
    }
}
