//! Compiled scan kernels: the stateless prefix of a routing scope
//! (type routing, predicate clauses, groupability) evaluated over whole
//! [`EventBatch`]es into **u64 selection bitmaps**, 64 rows per word.
//!
//! A [`ScanKernel`] is the only thing that selects the rows an executor
//! folds: it compiles the scope's clause list once and evaluates it
//! column-at-a-time instead of walking every row through branchy
//! per-clause checks. Two passes are shared by every scope of an owner
//! (an [`crate::Executor`]'s engines, a two-step driver's distinct
//! scopes, or a [`crate::BatchRouter`]'s scopes — each owner's
//! [`crate::ScanFront`]); the rest is per scope:
//!
//! 1. **Type pass, shared** — a [`TypePass`] sweeps the `ty` and
//!    row-offset columns of a chunk once, building a membership bitmap
//!    for every routed type plus that type's minimum row width in the
//!    chunk.
//! 2. **Routing + groupability, per scope** — the kernel's candidate
//!    bitmap is the union of its routed types' bitmaps. A row carries
//!    every `GROUP BY` attribute iff `row_width > max attr index`
//!    (grouping attributes are positional), so a type whose chunk-minimum
//!    width already covers the scope's need joins word-wise; only a type
//!    with narrower rows is checked bit by bit.
//! 3. **Column cache, shared** — right after the type pass, a
//!    [`ColumnCache`] gathers each distinct `(type, attribute)` column
//!    any kernel compares, once, over every row of the type, compacted
//!    in row order into typed lanes (`f64` mirror, exact `i64` lane,
//!    present/int/str bitmaps). Six scopes comparing one column share
//!    one gather.
//! 4. **Clause evaluation, per scope** — each `(type, attr, op, lit)`
//!    clause compares its cached column with branch-free 64-lane
//!    comparisons and folds into the selection with `R &= !M | P`: rows
//!    of other types are unaffected, the column's rows survive only
//!    where the clause passes. The column also covers rows this scope
//!    never selected or already failed; a cleared bit stays cleared, so
//!    the fold is exact. String literals compare in a scalar lane over
//!    the (few) string lanes.
//! 5. **Extraction** — `trailing_zeros` walks each word's survivors into
//!    the existing `Vec<u32>` selection buffers.
//!
//! [`ScanKernel::select_from`] runs steps 2, 4 and 5 over its owner's
//! pass and cache; [`ScanKernel::select_into`] is the one-scope form,
//! over a pass and a cache that cover only its own kernel.
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

/// One compiled predicate clause: rows of type `ty` must satisfy
/// `attrs[attr] <op> lit`.
#[derive(Debug, Clone)]
struct Clause {
    ty: u32,
    /// Positional attribute index within the row.
    attr: u32,
    op: CmpOp,
    lit: Value,
}

/// One cached typed column: an attribute of every row of one type in the
/// chunk, **compacted** in row order, one lane per row, so comparisons
/// run over that type's rows only.
#[derive(Debug, Default)]
struct Column {
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
/// the [`ColumnCache`] and each covered kernel's
/// [`ScanKernel::select_from`]. All storage is reused, so steady-state
/// passes allocate nothing.
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
        for &(ty, _) in kernels.into_iter().flat_map(|k| k.types.iter()) {
            let ty = ty as usize;
            if slot_of.len() <= ty {
                slot_of.resize(ty + 1, 0);
            }
            if slot_of[ty] == 0 {
                slot_of[ty] = n_slots;
                n_slots += 1;
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

/// Pass 2 of the scan, shared like the [`TypePass`]: one typed column over
/// every row of the type in the chunk for each distinct `(type,
/// attribute)` a covered kernel compares. Built once per chunk by
/// [`ColumnCache::build`], right after the pass, then read by each
/// covered kernel's [`ScanKernel::select_from`]. All storage is reused,
/// so steady-state builds allocate nothing.
#[derive(Debug)]
pub struct ColumnCache {
    /// The distinct `(type id, attribute)` keys, ascending; `cols[i]` is
    /// the column of `keys[i]`.
    keys: Box<[(u32, u32)]>,
    cols: Box<[Column]>,
}

impl ColumnCache {
    /// A cache holding every column compared by any of `kernels`.
    pub fn new<'a>(kernels: impl IntoIterator<Item = &'a ScanKernel>) -> Self {
        let mut keys: Vec<(u32, u32)> = kernels
            .into_iter()
            .flat_map(|k| k.clauses.iter().map(|c| (c.ty, c.attr)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        ColumnCache {
            cols: keys.iter().map(|_| Column::default()).collect(),
            keys: keys.into_boxed_slice(),
        }
    }

    /// Gather every column over the chunk `pass` was last built over
    /// (rows of `batch`); `pass` must cover this cache's kernels.
    pub fn build(&mut self, pass: &TypePass, batch: &EventBatch) {
        let offs = &batch.offsets()[pass.lo..pass.hi + 1];
        for (&(ty, attr), col) in self.keys.iter().zip(self.cols.iter_mut()) {
            col.gather(pass.of(ty).0, offs, batch.values(), attr);
        }
    }

    /// The column of `attr` on type `ty`.
    fn column(&self, ty: u32, attr: u32) -> &Column {
        // an owner builds its cache from the kernels that read it, so a
        // miss is a kernel from another owner: a caller's bug, asserted
        // like a type missing from `TypePass::of`
        #[allow(clippy::expect_used)]
        let i = self
            .keys
            .binary_search(&(ty, attr))
            .expect("column is not covered by this cache");
        &self.cols[i]
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
    /// Predicate clauses of the routed types (others can never matter).
    clauses: Box<[Clause]>,
    /// The selection bitmap under construction (64 rows per word).
    words: Vec<u64>,
    /// The pass and cache [`ScanKernel::select_into`] builds over this
    /// kernel alone (created on first use; boxed, as most kernels never
    /// build one).
    solo: Option<Box<(TypePass, ColumnCache)>>,
}

impl ScanKernel {
    /// Compile a kernel from a scope's routing bitmap, per-type `GROUP BY`
    /// attributes, and per-type predicate clauses.
    pub fn new(
        routed: Vec<bool>,
        group_attrs: &[Box<[AttrId]>],
        predicates: &[Vec<(AttrId, CmpOp, Value)>],
    ) -> Self {
        let (mut types, mut clauses) = (Vec::new(), Vec::new());
        for ty in (0..routed.len()).filter(|&ty| routed[ty]) {
            let group = group_attrs.get(ty).into_iter().flatten();
            let need = group.map(|a| a.index() as u32 + 1).max().unwrap_or(0);
            types.push((ty as u32, need));
            for (attr, op, lit) in predicates.get(ty).into_iter().flatten() {
                clauses.push(Clause {
                    ty: ty as u32,
                    attr: attr.index() as u32,
                    op: *op,
                    lit: lit.clone(),
                });
            }
        }
        ScanKernel {
            types: types.into_boxed_slice(),
            clauses: clauses.into_boxed_slice(),
            words: Vec::new(),
            solo: None,
        }
    }

    /// Select this scope's rows of the chunk `pass` and `cache` were last
    /// built over (rows `lo..hi` of `batch`), appending the surviving
    /// absolute row indexes to `sel` (ascending). Panics if `pass` or
    /// `cache` was not built over this kernel ([`TypePass::new`],
    /// [`ColumnCache::new`]).
    pub fn select_from(
        &mut self,
        pass: &TypePass,
        cache: &ColumnCache,
        batch: &EventBatch,
        sel: &mut Vec<u32>,
    ) {
        self.scan(pass, cache, batch);
        extract_into(&self.words, pass.lo, sel);
    }

    /// Evaluate the scope's stateless prefix over rows `lo..hi` of
    /// `batch` and append the surviving absolute row indexes to `sel`
    /// (ascending): the one-scope form of [`ScanKernel::select_from`],
    /// over a pass and a cache covering only this kernel.
    pub fn select_into(&mut self, batch: &EventBatch, lo: usize, hi: usize, sel: &mut Vec<u32>) {
        let mut solo = self
            .solo
            .take()
            .unwrap_or_else(|| Box::new((TypePass::new([&*self]), ColumnCache::new([&*self]))));
        let (pass, cache) = &mut *solo;
        pass.build(batch, lo, hi);
        cache.build(pass, batch);
        self.select_from(pass, cache, batch, sel);
        self.solo = Some(solo);
    }

    /// Evaluate the scope's stateless prefix over the chunk of `pass`
    /// into the selection bitmap `words`: bit `i` covers absolute row
    /// `pass.lo + i`.
    fn scan(&mut self, pass: &TypePass, cache: &ColumnCache, batch: &EventBatch) {
        self.words.clear();
        self.words.resize(pass.n_words, 0);
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

        // predicate clauses, each over its type's cached column, fused
        // with AND/ANDNOT; a clause whose type has no selected row left
        // cannot clear anything and is skipped
        for clause in self.clauses.iter() {
            let members = pass.of(clause.ty).0;
            if members.iter().zip(&self.words).all(|(&m, &r)| m & r == 0) {
                continue;
            }
            let col = cache.column(clause.ty, clause.attr);
            eval_clause(&mut self.words, col, offs, batch.values(), clause);
        }
    }
}

impl Column {
    /// Gather attribute `attr` of every row in `members`, compacted in row
    /// order. `offs` is the chunk-relative offsets view (`n + 1` entries
    /// indexing the batch-wide `values` buffer).
    fn gather(&mut self, members: &[u64], offs: &[u32], values: &[Value], attr: u32) {
        self.rows.clear();
        self.f64s.clear();
        self.i64s.clear();
        self.present.clear();
        self.ints.clear();
        self.strs.clear();
        let (mut present, mut ints, mut strs) = (0u64, 0u64, 0u64);
        for (w, &m) in members.iter().enumerate() {
            let mut bits = m;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let lane = self.rows.len() % 64;
                let (mut f, mut k) = (0.0, 0);
                if offs[i + 1] - offs[i] > attr {
                    present |= 1 << lane;
                    match &values[(offs[i] + attr) as usize] {
                        Value::Int(x) => {
                            ints |= 1 << lane;
                            k = *x;
                            // the f64 mirror is exactly `Value::as_f64`'s
                            // view of the mixed numeric comparison
                            f = *x as f64;
                        }
                        Value::Float(x) => f = *x,
                        Value::Str(_) => strs |= 1 << lane,
                    }
                }
                self.rows.push(i as u32);
                self.f64s.push(f);
                self.i64s.push(k);
                if lane == 63 {
                    self.present.push(std::mem::take(&mut present));
                    self.ints.push(std::mem::take(&mut ints));
                    self.strs.push(std::mem::take(&mut strs));
                }
            }
        }
        if !self.rows.len().is_multiple_of(64) {
            self.present.push(present);
            self.ints.push(ints);
            self.strs.push(strs);
        }
    }
}

/// 64-lane branch-free comparison of a cached lane against a literal:
/// the `f64` mirror, or the exact `i64` lane of `Int` values (`Int` vs
/// `Int` must not round-trip through `f64`: beyond 2^53 the conversion
/// conflates distinct integers). On `f64`, native IEEE-754 comparisons
/// reproduce `partial_cmp` + `CmpOp::eval` exactly: any comparison
/// involving NaN orders as `None`, which fails every operator except
/// `!=` — and native `!=` is true for NaN operands.
#[inline]
fn cmp_word<T: PartialOrd + Copy>(vals: &[T], lit: T, op: CmpOp) -> u64 {
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
        CmpOp::Eq => pack!(|v: T| v == lit),
        CmpOp::Ne => pack!(|v: T| v != lit),
        CmpOp::Lt => pack!(|v: T| v < lit),
        CmpOp::Le => pack!(|v: T| v <= lit),
        CmpOp::Gt => pack!(|v: T| v > lit),
        CmpOp::Ge => pack!(|v: T| v >= lit),
    }
}

/// Fold one clause into the selection, 64 cached lanes at a time:
/// `R &= !M | P` — rows of other types (`!M`) are unaffected, the
/// column's rows (`M`) survive only where the clause passes (`P`), so the
/// fold clears exactly the column's rows that fail. A row this scope
/// never selected, or an earlier clause already failed, is cleared again,
/// which changes nothing.
fn eval_clause(words: &mut [u64], g: &Column, offs: &[u32], values: &[Value], clause: &Clause) {
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
                let ci = cmp_word(&g.i64s[base..base + lanes], *k, op);
                let cf = cmp_word(&g.f64s[base..base + lanes], *k as f64, op);
                (ints & ci) | (floats & cf) | (present & strs & ne_all)
            }
            Value::Float(x) => {
                // every numeric lane compares in f64 (Int lanes were
                // mirrored by the gather); Str vs Float is incomparable
                let nums = present & !strs;
                let cf = cmp_word(&g.f64s[base..base + lanes], *x, op);
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
            let grp_ok = group_attrs
                .get(ty.index())
                .is_none_or(|gattrs| gattrs.iter().all(|a| attrs.get(a.index()).is_some()));
            if preds_ok && grp_ok {
                sel.push(row as u32);
            }
        }
        sel
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    type Table = (
        Vec<bool>,
        Vec<Box<[AttrId]>>,
        Vec<Vec<(AttrId, CmpOp, Value)>>,
    );

    /// Every table's kernel selects from one type pass and one column
    /// cache per chunk, as in a [`crate::ScanFront`]: each selection must
    /// equal the scalar oracle and the kernel's own `select_into`.
    /// Returns how many columns the shared cache holds.
    fn assert_shared_parity(tables: &[Table], b: &EventBatch) -> usize {
        let mut kernels: Vec<ScanKernel> = tables
            .iter()
            .map(|(r, g, p)| ScanKernel::new(r.clone(), g, p))
            .collect();
        let (mut pass, mut cache) = (TypePass::new(&kernels), ColumnCache::new(&kernels));
        let n = b.len();
        for (lo, hi) in [(0, n), (0, n.min(1)), (n / 3, n), (7, 71), (n / 2, n / 2)] {
            pass.build(b, lo, hi);
            cache.build(&pass, b);
            for (si, ((r, g, p), kernel)) in tables.iter().zip(&mut kernels).enumerate() {
                let want = scalar_select(r, g, p, b, lo, hi);
                let (mut shared, mut alone) = (Vec::new(), Vec::new());
                kernel.select_from(&pass, &cache, b, &mut shared);
                kernel.select_into(b, lo, hi, &mut alone);
                assert_eq!(
                    (&shared, &alone),
                    (&want, &want),
                    "scope {si}, rows {lo}..{hi}"
                );
            }
        }
        cache.keys.len()
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
        assert_shared_parity(&[(vec![true, false, true], vec![], vec![])], &b);
        // GROUP BY attr 1 on type 0: width filter drops narrow rows
        let group_by_1: Vec<Box<[AttrId]>> = vec![Box::new([AttrId(1)])];
        assert_shared_parity(&[(vec![true, true, false], group_by_1, vec![])], &b);
    }

    #[test]
    fn numeric_clauses_match_scalar_semantics() {
        let b = hard_batch(200);
        for op in OPS {
            for lit in [
                Value::Int(0),
                Value::Int((1i64 << 53) + 1),
                Value::Float(f64::NAN),
                Value::Float(0.0),
                Value::Float(f64::INFINITY),
                Value::str("MainSt"),
                Value::str("zz"),
            ] {
                let preds = vec![
                    vec![(AttrId(0), op, lit.clone())],
                    vec![(AttrId(1), op, lit.clone())],
                ];
                assert_shared_parity(&[(vec![true, true, true], vec![], preds)], &b);
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
        let preds = vec![
            vec![
                (AttrId(0), CmpOp::Ge, Value::Int(-10)),
                (AttrId(1), CmpOp::Ne, Value::str("x")),
            ],
            vec![(AttrId(0), CmpOp::Ne, Value::Float(f64::NAN))],
        ];
        let group_attrs: Vec<Box<[AttrId]>> = vec![Box::new([]), Box::new([AttrId(0)])];
        assert_shared_parity(&[(vec![true, true, true], group_attrs, preds)], &b);
    }

    #[test]
    fn kernels_sharing_a_type_pass_select_as_they_do_alone() {
        // GROUP BY widths that every row of a type covers (word-wise
        // union) and that only some rows cover (bit-by-bit width check);
        // one clause text on two types; and two scopes comparing one
        // column against an Int, a Float and a NaN literal
        let b = hard_batch(150);
        let gt0 = (AttrId(0), CmpOp::Gt, Value::Int(0));
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
                vec![vec![gt0.clone()], vec![], vec![gt0]],
            ),
            (
                vec![true, false, false],
                vec![],
                vec![vec![
                    (AttrId(0), CmpOp::Lt, Value::Float(1e17)),
                    (AttrId(0), CmpOp::Ne, Value::Float(f64::NAN)),
                ]],
            ),
        ];
        // columns (0, 0) and (2, 0), each gathered once: (0, 0) is read by
        // an Int clause of one scope, a Float and a NaN clause of another
        assert_eq!(assert_shared_parity(&tables, &b), 2);
    }

    #[test]
    fn a_front_of_24_scopes_gathers_each_column_once() {
        // the EC filter shape: 24 scopes each route 3 of 12 types with one
        // `price` clause per type, so 72 clauses read 12 distinct columns
        let mut b = EventBatch::new();
        for i in 0..600u64 {
            let price = match i % 3 {
                0 => Value::Int((i * 37 % 500) as i64),
                _ => Value::Float((i * 53 % 500) as f64 + 0.5),
            };
            let attrs = if i % 13 == 0 { vec![] } else { vec![price] };
            b.push_from(EventTypeId((i * 7 % 12) as u32), Timestamp(i), attrs);
        }
        let tables: Vec<Table> = (0..24u32)
            .map(|s| {
                let types = [s % 12, (s + 1) % 12, (s + 3) % 12];
                let mut preds = vec![vec![]; 12];
                for (k, &ty) in types.iter().enumerate() {
                    let lit = match k {
                        0 => Value::Int(s as i64 * 20),
                        _ => Value::Float(s as f64 * 20.0 + 0.5),
                    };
                    preds[ty as usize].push((AttrId(0), OPS[(s as usize + k) % 6], lit));
                }
                ((0..12).map(|t| types.contains(&t)).collect(), vec![], preds)
            })
            .collect();
        assert_eq!(assert_shared_parity(&tables, &b), 12);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn a_pass_rejects_a_kernel_it_was_not_built_for() {
        let b = hard_batch(10);
        let mut pass = TypePass::new([&ScanKernel::new(vec![true], &[], &[])]);
        pass.build(&b, 0, b.len());
        let mut other = ScanKernel::new(vec![false, true], &[], &[]);
        let cache = ColumnCache::new([&other]);
        other.select_from(&pass, &cache, &b, &mut Vec::new());
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
