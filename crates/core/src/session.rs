//! Live query churn: attach and detach queries against a running engine.
//!
//! A [`SharonSession`] runs the engine as a long-lived service. Queries
//! come and go at runtime ([`SharonSession::attach`] /
//! [`SharonSession::detach`]) while the stream keeps flowing; results are
//! read per epoch with [`SharonSession::drain_results`] and the session
//! re-optimizes its sharing plan in the background as the workload or the
//! event rates move.
//!
//! ## How an attach lands
//!
//! * **Fast path** — the query's [`QuerySig`] (pattern + aggregate +
//!   sharing signature, ignoring the id) matches a query already hosted:
//!   the new handle aliases the existing evaluation and joins the shared
//!   plan **without recompilation**.
//! * **Sidecar** — a genuinely new query is compiled into a private
//!   sequential sidecar engine that runs alongside the shared plan, so
//!   the attach never stalls the main runtime. The next re-optimization
//!   folds the sidecar into the shared plan.
//!
//! ## Re-optimization and hot swap
//!
//! Re-planning triggers on **churn** (pending attach/detach operations
//! reach [`SessionConfig::churn_threshold`]), on **rate drift** (for
//! [`Strategy::Sharon`], a [`DynamicPlanManager`] re-scores the active
//! plan at every completed rate horizon), or explicitly
//! ([`SharonSession::reoptimize_now`]). A swap happens at a batch
//! boundary and never loses window state: the outgoing engines are not
//! torn down but *retired* — they keep receiving the stream until every
//! window they own has closed, then flush. Ownership is an interval of
//! window-start times: an incarnation born at stream time `B` owns window
//! starts strictly after `B` (all their rows arrive after it was born),
//! and one retired at `B` owns starts up to and including `B`. The same
//! interval filter scopes each handle to the windows that are complete
//! for *it* — the first fully-owned window after its attach point, and
//! only windows closed before its detach point.

use crate::strategy::{build_online, strategy_plan, AnyExecutor, Strategy};
use sharon_executor::{CompileError, Executor, ExecutorResults, ShardedOptions};
use sharon_metrics::record_swap_windows_lost;
use sharon_optimizer::{DynamicPlanManager, OptimizerConfig, PlanDecision, RateEstimator, RateMap};
use sharon_query::{Query, QueryId, QuerySig, SharingPlan, Workload};
use sharon_types::{Catalog, EventBatch, EventTypeId, FxHashMap, TimeDelta, Timestamp};

/// The horizon over which a session measures per-type event rates before
/// each drift check.
const RATE_HORIZON: TimeDelta = TimeDelta::from_secs(1);

/// Tuning for a [`SharonSession`]'s background re-optimizer.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Pending churn operations (sidecar attaches + shared-plan detaches)
    /// that trigger a re-optimization at the next batch boundary. Treated
    /// as at least 1.
    pub churn_threshold: u32,
    /// Relative score-drift threshold that triggers re-optimization under
    /// [`Strategy::Sharon`] (see [`DynamicPlanManager`]).
    pub drift_threshold: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            churn_threshold: 8,
            drift_threshold: 0.1,
        }
    }
}

/// A ticket for one attached query.
///
/// Results drained from the session are keyed by
/// [`QueryHandle::query_id`]; the initial workload's queries become
/// handles `0..n` in order, so their result keys match a static run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryHandle(u32);

impl QueryHandle {
    /// The key this handle's results carry in an [`ExecutorResults`].
    pub fn query_id(self) -> QueryId {
        QueryId(self.0)
    }
}

impl std::fmt::Display for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.query_id())
    }
}

/// One attached query's lifecycle and result scope.
struct HandleSlot {
    /// Index into `SharonSession::sigs`.
    sig: usize,
    /// Exclusive lower bound on owned window starts: the stream frontier
    /// at attach (`None` = attached before any data; owns everything).
    attached_after: Option<Timestamp>,
    /// Stream frontier at detach (`None` = still attached). Only windows
    /// fully closed by this point (`start + within <= detached_at`) are
    /// kept — later windows would be partial relative to a static run.
    detached_at: Option<Timestamp>,
    /// The query's window length in milliseconds (for the detach filter).
    within: u64,
}

impl HandleSlot {
    fn owns(&self, w: Timestamp) -> bool {
        self.attached_after.is_none_or(|a| w > a)
            && self
                .detached_at
                .is_none_or(|d| w.millis() + self.within <= d.millis())
    }
}

/// One distinct query evaluation (shared by aliasing handles).
struct SigSlot {
    sig: QuerySig,
    /// Canonical copy compiled into plans (its id is rewritten per plan).
    query: Query,
    /// Live handles referencing this evaluation; 0 = tombstone awaiting
    /// fold-out at the next re-optimization.
    refs: u32,
    /// Every handle ever attached to this evaluation, detached ones
    /// included, in ascending order: the handles its rows settle onto.
    handles: Vec<u32>,
}

/// One compiled plan with its window-start ownership interval.
///
/// Every live incarnation receives the full stream; the interval decides
/// which of its emitted windows are *exact* and therefore settled. An
/// incarnation born at frontier `lo` missed nothing for windows starting
/// strictly after `lo` (rows are time-ordered); one closed at `hi` keeps
/// being fed until `horizon` so every window starting at or before `hi`
/// sees all its rows.
struct Incarnation {
    /// The shared plan as the builder builds it, or a sidecar's
    /// sequential executor.
    host: AnyExecutor,
    /// Maps this incarnation's internal [`QueryId`] index to a sig slot.
    sigs: Vec<usize>,
    /// Exclusive lower ownership bound (`None` = from the beginning).
    lo: Option<Timestamp>,
    /// Inclusive upper ownership bound (`None` = current, still owning).
    hi: Option<Timestamp>,
    /// Retire (finish and settle) once the frontier reaches this.
    horizon: Option<Timestamp>,
}

/// Per-type rate tracking: a full [`DynamicPlanManager`] (drift-driven
/// re-planning) under [`Strategy::Sharon`], a bare [`RateEstimator`]
/// otherwise — Greedy and A-Seq sessions re-plan on churn or explicit
/// request only.
enum Tracker {
    Managed(Box<DynamicPlanManager>),
    Bare(RateEstimator),
}

impl Tracker {
    fn warmed(&self) -> bool {
        match self {
            Tracker::Managed(m) => m.warmed(),
            Tracker::Bare(e) => e.warmed(),
        }
    }

    fn rates(&self) -> &RateMap {
        match self {
            Tracker::Managed(m) => m.rates(),
            Tracker::Bare(e) => e.rates(),
        }
    }
}

/// A long-lived engine service supporting runtime query churn.
///
/// Construct through
/// [`SharonBuilder::session`](crate::SharonBuilder::session). The session
/// builds its shared plan through the builder's build path, in-process
/// at `shards(0)` and on the sharded runtime otherwise, and accepts only
/// the online strategies (Sharon / Greedy / A-Seq); checkpoint and
/// lateness options are rejected for now (they do not yet compose
/// with plan hot-swaps) as [`CompileError::UnsupportedOption`].
///
/// Input must be time-ordered, like every Sharon ingest path. All event
/// types must be registered in the catalog before the session starts —
/// the session owns a snapshot of it.
pub struct SharonSession {
    catalog: Catalog,
    strategy: Strategy,
    opt_config: OptimizerConfig,
    cfg: SessionConfig,
    n_shards: usize,
    options: ShardedOptions,
    seed_rates: RateMap,
    tracker: Tracker,
    handles: Vec<HandleSlot>,
    sigs: Vec<SigSlot>,
    /// The shared plan's incarnation (`None` when no query is hosted).
    main: Option<Incarnation>,
    sidecars: Vec<Incarnation>,
    /// Closed incarnations still being fed until their horizon.
    retiring: Vec<Incarnation>,
    /// Results already owned and re-keyed onto handles.
    settled: ExecutorResults,
    /// Largest event time ingested so far.
    frontier: Option<Timestamp>,
    /// Pending churn operations since the last swap.
    churn: u32,
    /// The workload currently compiled into `main`.
    shared: Workload,
    plan: SharingPlan,
    reopt_count: u64,
    swap_count: u64,
}

impl SharonSession {
    /// Start a session hosting `workload` as the initially attached
    /// queries (handles `0..n` in order). A two-step strategy (option
    /// `session`: a session re-plans and hot-swaps online engines only)
    /// and a checkpoint or lateness option is
    /// [`CompileError::UnsupportedOption`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        catalog: Catalog,
        workload: &Workload,
        seed_rates: RateMap,
        strategy: Strategy,
        opt_config: OptimizerConfig,
        n_shards: usize,
        options: ShardedOptions,
        cfg: SessionConfig,
    ) -> Result<SharonSession, CompileError> {
        let refused = if matches!(strategy, Strategy::FlinkLike | Strategy::SpassLike) {
            Some("session")
        } else if options.checkpoint.is_some() {
            Some("checkpoint")
        } else if options.lateness.is_some() {
            Some("lateness")
        } else {
            None
        };
        if let Some(option) = refused {
            return Err(CompileError::UnsupportedOption {
                option,
                strategy: strategy.name(),
            });
        }
        let mut session = SharonSession {
            catalog,
            strategy,
            opt_config,
            cfg,
            n_shards,
            options,
            seed_rates,
            tracker: Tracker::Bare(RateEstimator::new(RATE_HORIZON)),
            handles: Vec::new(),
            sigs: Vec::new(),
            main: None,
            sidecars: Vec::new(),
            retiring: Vec::new(),
            settled: ExecutorResults::new(),
            frontier: None,
            churn: 0,
            shared: Workload::new(),
            plan: SharingPlan::non_shared(),
            reopt_count: 0,
            swap_count: 0,
        };
        for q in workload.queries() {
            let sig = QuerySig::of(q);
            let within = q.window.within.millis();
            let slot = match session.sigs.iter().position(|s| s.sig == sig) {
                Some(i) => {
                    session.sigs[i].refs += 1;
                    i
                }
                None => {
                    session.sigs.push(SigSlot {
                        sig,
                        query: q.clone(),
                        refs: 1,
                        handles: Vec::new(),
                    });
                    session.sigs.len() - 1
                }
            };
            let handle = session.handles.len() as u32;
            session.sigs[slot].handles.push(handle);
            session.handles.push(HandleSlot {
                sig: slot,
                attached_after: None,
                detached_at: None,
                within,
            });
        }
        let (wl, map) = session.rebuild();
        let (plan, outcome) =
            strategy_plan(&wl, &session.seed_rates, strategy, &session.opt_config);
        if let (Strategy::Sharon, Some(outcome)) = (strategy, &outcome) {
            session.tracker = Tracker::Managed(Box::new(DynamicPlanManager::new(
                RATE_HORIZON,
                session.cfg.drift_threshold,
                session.opt_config.clone(),
                outcome,
            )));
        }
        if !wl.is_empty() {
            let options = session.options.clone();
            let host = build_online(&session.catalog, &wl, &plan, n_shards, options)?;
            session.main = Some(Incarnation {
                host,
                sigs: map,
                lo: None,
                hi: None,
                horizon: None,
            });
        }
        session.shared = wl;
        session.plan = plan;
        Ok(session)
    }

    /// Attach a query at runtime; results accrue from its first fully
    /// owned window (the first window starting strictly after the attach
    /// point) under the returned handle's [`QueryHandle::query_id`].
    ///
    /// If an equal-signature query is already hosted this is the
    /// **fast path**: the handle aliases the running evaluation with no
    /// compilation at all. Otherwise the query is compiled into a private
    /// **sidecar** engine (the only work on this path — the shared plan
    /// is untouched) which the next re-optimization folds into the shared
    /// plan.
    pub fn attach(&mut self, query: Query) -> Result<QueryHandle, CompileError> {
        let sig = QuerySig::of(&query);
        let within = query.window.within.millis();
        let slot = match self.sigs.iter().position(|s| s.refs > 0 && s.sig == sig) {
            Some(i) => {
                self.sigs[i].refs += 1;
                i
            }
            None => {
                // compile before registering the signature: a query that
                // does not compile must leave no slot for a later attach
                // to alias or a re-optimization to fold in
                let mut wl = Workload::new();
                wl.push(query.clone());
                let ex = Executor::non_shared(&self.catalog, &wl)?;
                let idx = self.sigs.len();
                self.sigs.push(SigSlot {
                    sig,
                    query,
                    refs: 1,
                    handles: Vec::new(),
                });
                self.sidecars.push(Incarnation {
                    host: ex.into(),
                    sigs: vec![idx],
                    lo: self.frontier,
                    hi: None,
                    horizon: None,
                });
                self.churn += 1;
                idx
            }
        };
        let handle = QueryHandle(self.handles.len() as u32);
        self.sigs[slot].handles.push(handle.0);
        self.handles.push(HandleSlot {
            sig: slot,
            attached_after: self.frontier,
            detached_at: None,
            within,
        });
        Ok(handle)
    }

    /// Detach a query. The handle keeps every window fully closed before
    /// the detach point; its evaluation's state is freed immediately if
    /// it ran in a sidecar, or folded out of the shared plan at the next
    /// re-optimization.
    ///
    /// Panics if the handle was already detached.
    pub fn detach(&mut self, handle: QueryHandle) {
        let slot = &mut self.handles[handle.0 as usize];
        assert!(slot.detached_at.is_none(), "{handle} is already detached");
        slot.detached_at = Some(self.frontier.unwrap_or(Timestamp::ZERO));
        let s = slot.sig;
        self.sigs[s].refs -= 1;
        if self.sigs[s].refs == 0 {
            if let Some(pos) = self
                .sidecars
                .iter()
                .position(|inc| inc.sigs.as_slice() == [s])
            {
                let sidecar = self.sidecars.swap_remove(pos);
                self.settle_finished(sidecar);
            } else {
                // hosted by the shared plan: fold out at the next re-opt
                self.churn += 1;
            }
        }
    }

    /// Process a time-ordered columnar batch, then run the session's
    /// housekeeping at the batch boundary: rate estimation, drift /
    /// churn-triggered re-optimization (with plan hot-swap), and
    /// retirement of incarnations whose owned windows have all closed.
    pub fn process_columnar(&mut self, batch: &EventBatch) {
        if batch.is_empty() {
            return;
        }
        if let Some(main) = &mut self.main {
            main.host.process_columnar(batch);
        }
        for inc in &mut self.sidecars {
            inc.host.process_columnar(batch);
        }
        for inc in &mut self.retiring {
            inc.host.process_columnar(batch);
        }
        let max_t = batch
            .times()
            .iter()
            .copied()
            .max()
            .expect("non-empty batch");
        self.frontier = Some(self.frontier.map_or(max_t, |f| f.max(max_t)));

        // rate estimation over the batch's per-type row counts
        let mut counts: FxHashMap<EventTypeId, u64> = FxHashMap::default();
        for &ty in batch.types() {
            *counts.entry(ty).or_insert(0) += 1;
        }
        let mut drift_plan: Option<SharingPlan> = None;
        match &mut self.tracker {
            Tracker::Managed(m) => {
                if let PlanDecision::Replace(outcome) =
                    m.observe_counts(&self.shared, counts, max_t)
                {
                    drift_plan = Some(outcome.plan);
                }
            }
            Tracker::Bare(e) => {
                e.observe_counts(counts, max_t);
            }
        }
        if let Some(plan) = drift_plan {
            self.reopt_count += 1;
            if self.churn == 0 {
                // same query set: adopt the manager's re-planned graph
                let (wl, map) = self.rebuild();
                self.swap_to(wl, map, plan);
            } else {
                // fold the pending churn into the same swap
                self.replan_and_swap();
            }
        }
        if self.churn >= self.cfg.churn_threshold.max(1) {
            self.reoptimize_now();
        }
        self.retire_due();
    }

    /// Unconditionally re-run the optimizer over the live query set and
    /// hot-swap the shared plan at this batch boundary (sidecars fold in,
    /// detached queries fold out). Never loses window state: the outgoing
    /// engines retire only after every window they own has closed.
    pub fn reoptimize_now(&mut self) {
        self.reopt_count += 1;
        self.replan_and_swap();
    }

    /// Move out every result settled so far: windows emitted by their
    /// owning incarnation, re-keyed onto the handles whose lifetime
    /// covers them. Repeated calls return disjoint epochs; the stream may
    /// keep flowing afterwards.
    pub fn drain_results(&mut self) -> ExecutorResults {
        for inc in self
            .main
            .iter_mut()
            .chain(self.sidecars.iter_mut())
            .chain(self.retiring.iter_mut())
        {
            let results = inc.host.drain_results();
            settle_into(
                &self.handles,
                &self.sigs,
                &mut self.settled,
                &inc.sigs,
                inc.lo,
                inc.hi,
                &results,
            );
        }
        std::mem::take(&mut self.settled)
    }

    /// Shut the session down: flush every incarnation and return all
    /// remaining results — a final [`SharonSession::drain_results`] over
    /// the flushed engines.
    pub fn finish(mut self) -> ExecutorResults {
        let incarnations: Vec<Incarnation> = self
            .main
            .take()
            .into_iter()
            .chain(self.sidecars.drain(..))
            .chain(self.retiring.drain(..))
            .collect();
        for inc in incarnations {
            self.settle_finished(inc);
        }
        std::mem::take(&mut self.settled)
    }

    /// The sharing plan currently compiled into the shared runtime.
    pub fn plan(&self) -> &SharingPlan {
        &self.plan
    }

    /// Re-optimizations performed (drift-, churn-, and explicitly
    /// triggered) over this session's lifetime.
    pub fn reoptimizations(&self) -> u64 {
        self.reopt_count
    }

    /// Hot swaps of the compiled shared plan performed.
    pub fn plan_swaps(&self) -> u64 {
        self.swap_count
    }

    /// Session-side state proxy: live aggregate cells of every
    /// incarnation hosted in-process (a shared plan on the sharded
    /// runtime keeps its state on the worker threads and reports 0 — see
    /// [`sharon_executor::BatchProcessor::state_size`]).
    pub fn state_size(&self) -> usize {
        self.main
            .iter()
            .chain(&self.sidecars)
            .chain(&self.retiring)
            .map(|i| i.host.state_size())
            .sum()
    }

    /// Live sidecar engines (queries attached but not yet folded into the
    /// shared plan).
    pub fn sidecar_count(&self) -> usize {
        self.sidecars.len()
    }

    /// Handles currently attached.
    pub fn attached_count(&self) -> usize {
        self.handles
            .iter()
            .filter(|h| h.detached_at.is_none())
            .count()
    }

    /// Total handles ever issued (attached + detached).
    pub fn handle_count(&self) -> u32 {
        self.handles.len() as u32
    }

    /// Whether `handle` is still attached.
    pub fn is_attached(&self, handle: QueryHandle) -> bool {
        self.handles[handle.0 as usize].detached_at.is_none()
    }

    /// The `index`-th handle ever issued (the initial workload's queries
    /// are handles `0..n` in order, then attach order), if it exists.
    pub fn handle(&self, index: u32) -> Option<QueryHandle> {
        (index < self.handles.len() as u32).then_some(QueryHandle(index))
    }

    /// Largest event time ingested so far.
    pub fn frontier(&self) -> Option<Timestamp> {
        self.frontier
    }

    /// The live query set as a [`Workload`] plus the map from its query
    /// indices to sig slots.
    fn rebuild(&self) -> (Workload, Vec<usize>) {
        let mut wl = Workload::new();
        let mut map = Vec::new();
        for (idx, slot) in self.sigs.iter().enumerate() {
            if slot.refs > 0 {
                wl.push(slot.query.clone());
                map.push(idx);
            }
        }
        (wl, map)
    }

    /// Re-plan the live query set under the freshest rates (seed rates
    /// until a full horizon is measured) and hot-swap to it.
    fn replan_and_swap(&mut self) {
        let (wl, map) = self.rebuild();
        let rates = if self.tracker.warmed() {
            self.tracker.rates().clone()
        } else {
            self.seed_rates.clone()
        };
        let plan = if wl.is_empty() {
            SharingPlan::non_shared()
        } else {
            match &mut self.tracker {
                Tracker::Managed(m) => m.reoptimize(&wl, &rates).plan,
                Tracker::Bare(_) => strategy_plan(&wl, &rates, self.strategy, &self.opt_config).0,
            }
        };
        self.swap_to(wl, map, plan);
    }

    /// Hot-swap the shared plan at the current batch boundary: close
    /// every live incarnation at the frontier (they retire once their
    /// owned windows close) and start a fresh main incarnation owning
    /// everything after it.
    fn swap_to(&mut self, workload: Workload, sig_map: Vec<usize>, plan: SharingPlan) {
        let boundary = self.frontier;
        let mut closing: Vec<Incarnation> = self.sidecars.drain(..).collect();
        if let Some(main) = self.main.take() {
            closing.push(main);
        }
        for mut inc in closing {
            match boundary {
                // nothing ingested yet: the incarnation holds no state
                None => self.settle_finished(inc),
                Some(b) => {
                    inc.hi = Some(b);
                    inc.horizon = Some(Timestamp(b.millis() + self.max_within(&inc.sigs)));
                    self.retiring.push(inc);
                }
            }
        }
        if !workload.is_empty() {
            let host = build_online(
                &self.catalog,
                &workload,
                &plan,
                self.n_shards,
                self.options.clone(),
            )
            .expect("re-optimized sharing plan must compile");
            self.main = Some(Incarnation {
                host,
                sigs: sig_map,
                lo: boundary,
                hi: None,
                horizon: None,
            });
        }
        self.shared = workload;
        self.plan = plan;
        self.churn = 0;
        self.swap_count += 1;
    }

    /// Longest window of the sig slots hosted by an incarnation: rows up
    /// to `hi + max_within` can still land in an owned window.
    fn max_within(&self, sigs: &[usize]) -> u64 {
        sigs.iter()
            .map(|&s| self.sigs[s].query.window.within.millis())
            .max()
            .unwrap_or(0)
    }

    /// Finish retired incarnations whose horizon the frontier has passed:
    /// every window they own has closed, so flushing loses nothing.
    fn retire_due(&mut self) {
        let Some(f) = self.frontier else { return };
        let mut i = 0;
        while i < self.retiring.len() {
            if self.retiring[i].horizon.is_some_and(|h| f >= h) {
                let inc = self.retiring.swap_remove(i);
                self.settle_finished(inc);
            } else {
                i += 1;
            }
        }
    }

    /// Flush an incarnation and settle its owned windows.
    fn settle_finished(&mut self, inc: Incarnation) {
        let Incarnation {
            host, sigs, lo, hi, ..
        } = inc;
        let results = host.finish();
        settle_into(
            &self.handles,
            &self.sigs,
            &mut self.settled,
            &sigs,
            lo,
            hi,
            &results,
        );
    }
}

/// Re-key an incarnation's results onto handles: keep windows inside the
/// incarnation's ownership interval `(lo, hi]`, then emit one copy per
/// handle aliasing the window's sig slot whose lifetime covers it, in
/// ascending handle order.
fn settle_into(
    handles: &[HandleSlot],
    slots: &[SigSlot],
    settled: &mut ExecutorResults,
    sigs: &[usize],
    lo: Option<Timestamp>,
    hi: Option<Timestamp>,
    results: &ExecutorResults,
) {
    // source group id → id in `settled`, resolved on a group's first
    // settled row: one key lookup per group and call, none per copy
    const UNSETTLED: u32 = u32::MAX;
    let mut settled_gid = vec![UNSETTLED; results.group_slots()];
    for (qid, gid, w, value) in results.rows() {
        if lo.is_some_and(|l| w <= l) || hi.is_some_and(|h| w > h) {
            continue;
        }
        for &h in &slots[sigs[qid.0 as usize]].handles {
            if handles[h as usize].owns(w) {
                let to = &mut settled_gid[gid as usize];
                if *to == UNSETTLED {
                    *to = settled.intern(results.group(gid));
                }
                settled.emit_interned(QueryId(h), *to, w, value);
            }
        }
    }
}

impl Drop for SharonSession {
    fn drop(&mut self) {
        // abandoning a session with live incarnations discards their
        // unflushed window state; surface that through the metric the
        // equivalence suites assert stays zero
        let live = u64::from(self.main.is_some())
            + self.sidecars.len() as u64
            + self.retiring.len() as u64;
        if live > 0 {
            record_swap_windows_lost(live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharonBuilder;
    use sharon_query::{parse_query, parse_workload};
    use sharon_types::Event;

    fn session_over(sources: &[&str], extra: &[&str]) -> (SharonSession, Vec<Query>) {
        let mut catalog = Catalog::new();
        let workload = parse_workload(&mut catalog, sources.iter().copied()).unwrap();
        // parse attachable queries first so their types are in the
        // catalog snapshot the session takes
        let attachable: Vec<Query> = extra
            .iter()
            .map(|src| parse_query(&mut catalog, src).unwrap())
            .collect();
        let rates = RateMap::uniform(100.0);
        let session = SharonBuilder::new(&catalog, &workload, &rates)
            .shards(2)
            .session(SessionConfig::default())
            .unwrap();
        (session, attachable)
    }

    /// Feed an alternating `A, B, A, B, …` stream over `[from_ms, upto_ms)`
    /// (sessions require time-ordered input across calls).
    fn feed(session: &mut SharonSession, catalog_types: &[&str], from_ms: u64, upto_ms: u64) {
        let tys: Vec<_> = catalog_types
            .iter()
            .map(|n| session.catalog.lookup(n).unwrap())
            .collect();
        let mut events = Vec::new();
        let mut t = from_ms;
        while t < upto_ms {
            for &ty in &tys {
                events.push(Event::new(ty, Timestamp(t)));
            }
            t += 500;
        }
        session.process_columnar(&EventBatch::from_events(&events));
    }

    #[test]
    fn alias_attach_takes_the_fast_path() {
        let (mut session, extra) = session_over(
            &["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 2 s"],
            &[
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 2 s",
                "RETURN COUNT(*) PATTERN SEQ(B, A) WITHIN 10 s SLIDE 2 s",
            ],
        );
        let [alias, fresh] = extra.try_into().ok().unwrap();
        let h = session.attach(alias).unwrap();
        assert_eq!(session.sidecar_count(), 0, "equal signature must alias");
        assert_eq!(h.query_id(), QueryId(1));
        let h2 = session.attach(fresh).unwrap();
        assert_eq!(session.sidecar_count(), 1, "new signature needs a sidecar");
        assert!(session.is_attached(h2));
        assert_eq!(session.attached_count(), 3);
    }

    #[test]
    fn settled_rows_follow_each_signatures_handles_in_order() {
        const AB: &str = "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 2 s";
        const BA: &str = "RETURN COUNT(*) PATTERN SEQ(B, A) WITHIN 10 s SLIDE 2 s";
        // handles 0 and 1 alias SEQ(A, B), handle 2 is SEQ(B, A); all three
        // stay attached and own every window, so each shows the rows its
        // signature's evaluation emitted, in emission order
        let (mut session, extra) = session_over(&[AB, AB, BA], &[AB, BA]);
        let [ab, ba] = extra.try_into().ok().unwrap();
        let attach = |session: &mut SharonSession, q: &Query, n: usize| {
            (0..n)
                .map(|_| session.attach(q.clone()).unwrap())
                .collect::<Vec<_>>()
        };
        let early = attach(&mut session, &ab, 3);
        feed(&mut session, &["A", "B"], 0, 6_000);
        let mid = attach(&mut session, &ba, 2);
        let late = attach(&mut session, &ab, 2);
        session.detach(early[1]);
        feed(&mut session, &["A", "B"], 6_000, 14_000);
        session.detach(mid[0]);
        session.detach(late[1]);
        attach(&mut session, &ba, 1);
        assert_eq!(session.sidecar_count(), 0, "every attach aliases");
        assert_eq!(session.handle_count(), 11);
        let mut drains = vec![session.drain_results()];
        feed(&mut session, &["A", "B"], 14_000, 30_000);
        drains.push(session.drain_results());
        let handles = &session.handles;
        for drained in &drains {
            let rows: Vec<_> = drained
                .rows()
                .map(|(q, gid, w, v)| (q, drained.group(gid).clone(), w, v))
                .collect();
            assert!(rows.iter().any(|r| r.0 == QueryId(0)));
            // every row of handles 0 and 2 stands for one emitted row:
            // it settles onto each handle of its signature that owns its
            // window, by ascending handle
            let mut want = Vec::new();
            for (q, group, w, v) in rows.iter().filter(|r| [0, 2].contains(&r.0 .0)) {
                let sig = handles[q.0 as usize].sig;
                for (h, slot) in handles.iter().enumerate() {
                    if slot.sig == sig && slot.owns(*w) {
                        want.push((QueryId(h as u32), group.clone(), *w, *v));
                    }
                }
            }
            assert_eq!(rows, want);
        }
        assert!(drains[1].rows().any(|r| r.0 == QueryId(10)));
        assert!(
            drains.iter().all(|d| d.rows().all(|r| r.0 != QueryId(4))),
            "detached before its first window closed"
        );
    }

    #[test]
    fn reordered_conjuncts_attach_as_an_alias() {
        let mut catalog = Catalog::new();
        catalog.register_with_schema("A", sharon_types::Schema::new(["x"]));
        catalog.register_with_schema("B", sharon_types::Schema::new(["y"]));
        let workload = parse_workload(
            &mut catalog,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.x > 1 AND B.y < 2 WITHIN 10 s SLIDE 2 s"],
        )
        .unwrap();
        let reordered = parse_query(
            &mut catalog,
            "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE B.y < 2 AND A.x > 1 WITHIN 10 s SLIDE 2 s",
        )
        .unwrap();
        let rates = RateMap::uniform(100.0);
        let mut session = SharonBuilder::new(&catalog, &workload, &rates)
            .session(SessionConfig::default())
            .unwrap();
        session.attach(reordered).unwrap();
        assert_eq!(session.sidecar_count(), 0, "one conjunction must alias");
        assert_eq!(session.attached_count(), 2);
    }

    #[test]
    fn a_failed_attach_leaves_no_query_behind() {
        let (mut session, extra) = session_over(
            &["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 2 s"],
            &["RETURN COUNT(*) PATTERN SEQ(B, A) WHERE [nope] WITHIN 10 s SLIDE 2 s"],
        );
        let broken = extra.into_iter().next().unwrap();
        feed(&mut session, &["A", "B"], 0, 4_000);
        for _ in 0..2 {
            let err = session.attach(broken.clone()).err();
            assert!(
                matches!(err, Some(CompileError::GroupAttrMissing { .. })),
                "a query that does not compile is refused every time: {err:?}"
            );
        }
        assert_eq!(session.attached_count(), 1);
        assert_eq!(session.sidecar_count(), 0);
        session.reoptimize_now();
        feed(&mut session, &["A", "B"], 4_000, 30_000);
        let results = session.finish();
        assert!(!results.is_empty(), "the hosted query still answers");
    }

    #[test]
    fn detach_frees_sidecar_state() {
        let (mut session, extra) = session_over(
            &["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 2 s"],
            &["RETURN COUNT(*) PATTERN SEQ(B, A) WITHIN 10 s SLIDE 2 s"],
        );
        feed(&mut session, &["A", "B"], 0, 4_000);
        let h = session.attach(extra.into_iter().next().unwrap()).unwrap();
        feed(&mut session, &["A", "B"], 4_000, 8_000);
        assert!(
            session.state_size() > 0,
            "sidecar must hold live window state"
        );
        session.detach(h);
        assert_eq!(
            session.state_size(),
            0,
            "detach must free the sidecar's state"
        );
        assert!(!session.is_attached(h));
        let _ = session.finish();
    }

    #[test]
    fn explicit_reoptimize_folds_sidecars_and_swaps() {
        let (mut session, extra) = session_over(
            &["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 2 s"],
            &["RETURN COUNT(*) PATTERN SEQ(B, A) WITHIN 10 s SLIDE 2 s"],
        );
        feed(&mut session, &["A", "B"], 0, 4_000);
        session.attach(extra.into_iter().next().unwrap()).unwrap();
        assert_eq!(session.sidecar_count(), 1);
        session.reoptimize_now();
        assert_eq!(session.sidecar_count(), 0, "sidecar folded into the plan");
        assert_eq!(session.plan_swaps(), 1);
        assert_eq!(session.reoptimizations(), 1);
        // run well past the horizon so the retired incarnations flush
        feed(&mut session, &["A", "B"], 8_000, 40_000);
        let results = session.finish();
        assert!(!results.is_empty());
    }
}
