//! Compilation of a workload + sharing plan into executable form.
//!
//! The runtime executor "computes the aggregation results for each shared
//! pattern and then combines these shared aggregations to obtain the final
//! results for each query" (Section 2.2). Compilation turns the declarative
//! artifacts into flat dispatch tables:
//!
//! * queries are grouped into **partitions** by their sharing signature
//!   (window, predicates, grouping, aggregate) — assumption (2) of the
//!   paper, §7.2 extension: each partition runs its own engine;
//! * each query's pattern is decomposed into its private/shared **segment
//!   chain** ([`SharingPlan::decompose`]);
//! * each segment of length ≥ 2 gets a [`crate::runner::SegmentRunner`]
//!   slot — one per plan candidate (shared once across its queries), one
//!   per private segment;
//! * a per-event-type **route table** lists every runner position and every
//!   stateless length-1 segment the type participates in.

use crate::agg::OutputKind;
use crate::scan::ScanKernel;
use sharon_query::{clause_passes, CmpOp, Query, QueryId, SegmentKind, SharingPlan, Workload};
use sharon_types::{AttrId, Catalog, EventTypeId, FxHashMap, GroupKey, Value, WindowSpec};
use std::fmt;
use std::path::PathBuf;

/// Errors raised while compiling a workload and plan.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The plan is invalid for the workload (Definition 7).
    PlanInvalid(String),
    /// A plan candidate groups queries with different predicates, grouping,
    /// windows, or aggregates — sharing requires identical clauses
    /// (assumption (2)).
    CandidateSpansPartitions {
        /// Display form of the offending pattern.
        pattern: String,
    },
    /// A `GROUP BY` attribute is missing from the schema of a pattern type.
    GroupAttrMissing {
        /// The event type lacking the attribute.
        ty: String,
        /// The attribute name.
        attr: String,
    },
    /// The aggregate's target attribute is missing from the target type's
    /// schema.
    AggAttrMissing {
        /// The event type lacking the attribute.
        ty: String,
        /// The attribute name.
        attr: String,
    },
    /// A `WHERE` predicate references an attribute missing from the
    /// constrained type's schema.
    PredicateAttrMissing {
        /// The event type lacking the attribute.
        ty: String,
        /// The attribute name.
        attr: String,
    },
    /// The workload is empty.
    EmptyWorkload,
    /// A durability option (checkpoint, fault) was set on a build that
    /// runs the sequential engine: the durability tier lives in the
    /// sharded runtime only.
    ShardsRequired {
        /// The option that was set (`checkpoint` or `fault`).
        option: &'static str,
        /// Display name of the strategy being built.
        strategy: &'static str,
    },
    /// The strategy cannot honour a runtime option (the two-step
    /// baselines cannot serialize their state, so they host no
    /// checkpoint or fault injection, nor a live session, and run in
    /// arrival order, so they take no lateness; a session hosts no
    /// checkpoint, fault or lateness option).
    UnsupportedOption {
        /// The option that was set.
        option: &'static str,
        /// Display name of the strategy being built.
        strategy: &'static str,
    },
    /// A sharded runtime was asked for zero worker shards.
    ZeroShards {
        /// Display name of the strategy being built.
        strategy: &'static str,
    },
    /// The checkpoint directory could not be opened or created.
    CheckpointDir {
        /// The configured directory.
        dir: PathBuf,
        /// The filesystem error.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::PlanInvalid(e) => write!(f, "invalid sharing plan: {e}"),
            CompileError::CandidateSpansPartitions { pattern } => write!(
                f,
                "candidate {pattern} groups queries with incompatible predicates/grouping/window/aggregate"
            ),
            CompileError::GroupAttrMissing { ty, attr } => {
                write!(f, "GROUP BY attribute `{attr}` missing from type {ty}")
            }
            CompileError::AggAttrMissing { ty, attr } => {
                write!(f, "aggregate attribute `{attr}` missing from type {ty}")
            }
            CompileError::PredicateAttrMissing { ty, attr } => {
                write!(f, "predicate attribute `{attr}` missing from type {ty}")
            }
            CompileError::EmptyWorkload => write!(f, "workload has no queries"),
            CompileError::ShardsRequired { option, strategy } => write!(
                f,
                "{strategy}: the {option} option requires the sharded runtime (shards >= 1)"
            ),
            CompileError::UnsupportedOption { option, strategy } => {
                write!(f, "{strategy}: the strategy does not support the {option} option")
            }
            CompileError::ZeroShards { strategy } => {
                write!(f, "{strategy}: the sharded runtime needs at least one shard")
            }
            CompileError::CheckpointDir { dir, reason } => {
                write!(f, "cannot open checkpoint directory {}: {reason}", dir.display())
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled per-query description.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The original workload id.
    pub id: QueryId,
    /// Number of chain stages (segments).
    pub n_stages: usize,
    /// Group-block index of this query's stage-0 chain log: stage `s`
    /// (`s < n_stages − 1`) folds into log `chain_base + s`.
    pub chain_base: usize,
    /// How the final cell maps to the query's output.
    pub output: OutputKind,
}

/// A runner slot: one online aggregation state per pattern segment of
/// length ≥ 2.
#[derive(Debug, Clone)]
pub struct RunnerSpec {
    /// Segment length.
    pub len: usize,
    /// `(query index, stage)` pairs whose chain offset every record of
    /// this runner carries (stages > 0 only): STARTs share a record only
    /// under equal offsets.
    pub start_subs: Vec<(usize, usize)>,
    /// `(query index, stage)` pairs folding this runner's completions.
    pub completion_subs: Vec<(usize, usize)>,
    /// True if this runner realizes a shared plan candidate (for
    /// statistics).
    pub shared: bool,
}

/// All roles an event type plays within one partition.
#[derive(Debug, Clone, Default)]
pub struct Routes {
    /// `(runner, 0-based position)` — sorted by runner, then *descending*
    /// position so an event never extends state it just created (relevant
    /// for repeated types, §7.3).
    pub runner_roles: Vec<(usize, usize)>,
    /// `(query index, stage)` for stateless length-1 segments.
    pub unit_roles: Vec<(usize, usize)>,
}

/// One compiled engine partition (queries with identical sharing
/// signatures).
#[derive(Debug, Clone)]
pub struct CompiledPartition {
    /// The partition's window clause.
    pub window: WindowSpec,
    /// Compiled queries (partition-local indexes).
    pub queries: Vec<CompiledQuery>,
    /// Runner slots.
    pub runners: Vec<RunnerSpec>,
    /// Per event type id (dense): routes, `None` for unused types.
    pub routes: Vec<Option<Box<Routes>>>,
    /// Per event type id: resolved `GROUP BY` attribute ids.
    pub group_attrs: Vec<Box<[AttrId]>>,
    /// Per event type id: compiled predicates `(attr, op, literal)`.
    pub predicates: Vec<Vec<(AttrId, CmpOp, Value)>>,
    /// Aggregate contribution source: target type and attribute
    /// (`None` for pure counting).
    pub contrib_target: Option<(EventTypeId, Option<AttrId>)>,
    /// True if every query in the partition is `COUNT`-like (enables the
    /// [`crate::agg::CountCell`] kernel).
    pub count_only: bool,
    /// Per chain log of a group block: the window-plane column mirroring
    /// it (the log's contributions folded per window) — `Some` only where
    /// the query's next stage is a length-1 segment, the one reader of
    /// current per-window totals. Its length is the block's log count.
    pub mirror_col: Vec<Option<usize>>,
    /// Columns of a group's window plane: column `q` is query `q`'s final
    /// accumulator, the mirrors follow.
    pub n_cols: usize,
}

impl CompiledPartition {
    /// True if `ty` routes into this partition at all (the first check of
    /// the stateless event prefix). With [`CompiledPartition::predicates_pass`]
    /// and [`CompiledPartition::groupable`], the row-at-a-time oracle the
    /// tests check [`CompiledPartition::scan_kernel`] against.
    #[inline]
    pub fn routed(&self, ty: EventTypeId) -> bool {
        matches!(self.routes.get(ty.index()), Some(Some(_)))
    }

    /// True if `attrs` pass this partition's predicates on `ty` (a missing
    /// attribute fails). Must only be called for routed types.
    ///
    #[inline]
    pub fn predicates_pass(&self, ty: EventTypeId, attrs: &[Value]) -> bool {
        self.predicates[ty.index()]
            .iter()
            .all(|(attr, op, lit)| clause_passes(*op, attrs.get(attr.index()), lit))
    }

    /// Compile this partition's stateless prefix — routing, predicates,
    /// groupability — into a vectorized [`ScanKernel`] evaluating whole
    /// batches into u64 selection bitmaps — what the engine's columnar
    /// path and the sharded batch router select rows with. Selects exactly
    /// the rows the [`CompiledPartition::routed`] / `predicates_pass` /
    /// `groupable` chain accepts.
    pub fn scan_kernel(&self) -> ScanKernel {
        let routed = self.routes.iter().map(Option::is_some).collect();
        ScanKernel::new(routed, &self.group_attrs, &self.predicates)
    }

    /// True if every `GROUP BY` attribute of `ty` is present in `attrs`
    /// (events missing one are ungroupable and dropped). Must only be
    /// called for routed types.
    #[inline]
    pub fn groupable(&self, ty: EventTypeId, attrs: &[Value]) -> bool {
        self.group_attrs[ty.index()]
            .iter()
            .all(|a| attrs.get(a.index()).is_some())
    }

    /// Build the group key of a routed row into `key` (reusing the `vals`
    /// scratch buffer, so no allocation in steady state), returning `false`
    /// if a grouping attribute is missing (ungroupable event). With no
    /// `GROUP BY`, writes [`GroupKey::Global`]. Must only be called for
    /// routed types.
    ///
    /// The single definition of key construction shared by the engines
    /// and the sharded batch router — shard assignment hashes exactly the
    /// key an engine would build, so the two cannot drift apart.
    #[inline]
    pub fn read_group_key(
        &self,
        ty: EventTypeId,
        attrs: &[Value],
        vals: &mut Vec<Value>,
        key: &mut GroupKey,
    ) -> bool {
        let gattrs = &self.group_attrs[ty.index()];
        if gattrs.is_empty() {
            *key = GroupKey::Global;
            return true;
        }
        vals.clear();
        for a in gattrs.iter() {
            match attrs.get(a.index()) {
                Some(v) => vals.push(v.clone()),
                None => return false,
            }
        }
        key.assign_from_slice(vals);
        true
    }
}

/// Split `workload` into sharing-signature partitions and compile each.
///
/// Returns the compiled partitions together with, for each, the set of
/// workload query ids it serves.
pub fn compile(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
) -> Result<Vec<CompiledPartition>, CompileError> {
    if workload.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    plan.validate(workload)
        .map_err(|e| CompileError::PlanInvalid(e.to_string()))?;

    // partition queries by sharing signature, preserving id order
    let mut partitions: Vec<(Vec<&Query>, sharon_query::SharingSignature)> = Vec::new();
    for q in workload.queries() {
        let sig = q.sharing_signature();
        match partitions.iter_mut().find(|(_, s)| *s == sig) {
            Some((qs, _)) => qs.push(q),
            None => partitions.push((vec![q], sig)),
        }
    }

    // every candidate must live inside one partition
    for cand in &plan.candidates {
        let holds = |qs: &[&Query]| cand.queries.iter().all(|id| qs.iter().any(|q| q.id == *id));
        if !partitions.iter().any(|(qs, _)| holds(qs)) {
            return Err(CompileError::CandidateSpansPartitions {
                pattern: cand.pattern.display(catalog).to_string(),
            });
        }
    }

    partitions
        .into_iter()
        .map(|(queries, _)| compile_partition(catalog, &queries, plan))
        .collect()
}

fn compile_partition(
    catalog: &Catalog,
    queries: &[&Query],
    plan: &SharingPlan,
) -> Result<CompiledPartition, CompileError> {
    let window = queries[0].window;
    let count_only = queries.iter().all(|q| q.agg.is_count_like());

    // resolve aggregate target (identical across the partition by signature,
    // except COUNT(*) vs COUNT(E) which both use the count kernel)
    let mut contrib_target = None;
    for q in queries {
        if let (Some(t), attr) = (q.agg.target_type(), q.agg.target_attr()) {
            let attr_id = match attr {
                Some(name) => Some(catalog.schema(t).attr(name).ok_or_else(|| {
                    CompileError::AggAttrMissing {
                        ty: catalog.name(t).to_string(),
                        attr: name.to_string(),
                    }
                })?),
                None => None,
            };
            contrib_target = Some((t, attr_id));
        }
    }

    let max_ty = queries
        .iter()
        .flat_map(|q| q.pattern.types())
        .map(|t| t.index())
        .max()
        .unwrap_or(0);

    // resolve GROUP BY attributes for every pattern type
    let group_by = &queries[0].group_by;
    let mut group_attrs: Vec<Box<[AttrId]>> = vec![Box::new([]); max_ty + 1];
    let mut predicates: Vec<Vec<(AttrId, CmpOp, Value)>> = vec![Vec::new(); max_ty + 1];
    for q in queries {
        for &t in q.pattern.types() {
            if group_attrs[t.index()].len() != group_by.len() {
                let schema = catalog.schema(t);
                let ids: Vec<AttrId> = group_by
                    .iter()
                    .map(|name| {
                        schema
                            .attr(name)
                            .ok_or_else(|| CompileError::GroupAttrMissing {
                                ty: catalog.name(t).to_string(),
                                attr: name.clone(),
                            })
                    })
                    .collect::<Result<_, _>>()?;
                group_attrs[t.index()] = ids.into_boxed_slice();
            }
        }
    }
    for p in &queries[0].predicates {
        if p.ty.index() <= max_ty {
            let attr = catalog.schema(p.ty).attr(&p.attr).ok_or_else(|| {
                CompileError::PredicateAttrMissing {
                    ty: catalog.name(p.ty).to_string(),
                    attr: p.attr.clone(),
                }
            })?;
            predicates[p.ty.index()].push((attr, p.op, p.value.clone()));
        }
    }

    // build runners and routes from segment decompositions
    let mut runners: Vec<RunnerSpec> = Vec::new();
    let mut shared_runner: FxHashMap<usize, usize> = FxHashMap::default(); // candidate idx -> runner idx
    let mut routes: Vec<Option<Box<Routes>>> = (0..=max_ty).map(|_| None).collect();
    let mut compiled_queries = Vec::with_capacity(queries.len());
    let mut mirror_col: Vec<Option<usize>> = Vec::new();
    let mut n_cols = queries.len();

    for (qi, q) in queries.iter().enumerate() {
        let segments = plan
            .decompose(q)
            .map_err(|e| CompileError::PlanInvalid(e.to_string()))?;
        let n_stages = segments.len();
        let chain_base = mirror_col.len();
        mirror_col.resize(chain_base + n_stages.saturating_sub(1), None);
        for (stage, seg) in segments.iter().enumerate() {
            if seg.pattern.len() == 1 {
                if stage > 0 {
                    mirror_col[chain_base + stage - 1] = Some(n_cols);
                    n_cols += 1;
                }
                let t = seg.pattern.start_type();
                routes[t.index()]
                    .get_or_insert_with(Default::default)
                    .unit_roles
                    .push((qi, stage));
                continue;
            }
            let runner_idx = match seg.kind {
                SegmentKind::Shared(ci) => match shared_runner.get(&ci) {
                    Some(&r) => {
                        runners[r].completion_subs.push((qi, stage));
                        if stage > 0 {
                            runners[r].start_subs.push((qi, stage));
                        }
                        continue; // routes already registered for this runner
                    }
                    None => {
                        let r = runners.len();
                        shared_runner.insert(ci, r);
                        runners.push(RunnerSpec {
                            len: seg.pattern.len(),
                            start_subs: if stage > 0 {
                                vec![(qi, stage)]
                            } else {
                                Vec::new()
                            },
                            completion_subs: vec![(qi, stage)],
                            shared: true,
                        });
                        r
                    }
                },
                SegmentKind::Private => {
                    let r = runners.len();
                    runners.push(RunnerSpec {
                        len: seg.pattern.len(),
                        start_subs: if stage > 0 {
                            vec![(qi, stage)]
                        } else {
                            Vec::new()
                        },
                        completion_subs: vec![(qi, stage)],
                        shared: false,
                    });
                    r
                }
            };
            for (pos, &t) in seg.pattern.types().iter().enumerate() {
                routes[t.index()]
                    .get_or_insert_with(Default::default)
                    .runner_roles
                    .push((runner_idx, pos));
            }
        }
        compiled_queries.push(CompiledQuery {
            id: q.id,
            n_stages,
            chain_base,
            output: OutputKind::of(q),
        });
    }

    // order roles: per runner, descending position
    for r in routes.iter_mut().flatten() {
        r.runner_roles
            .sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    }

    Ok(CompiledPartition {
        window,
        queries: compiled_queries,
        runners,
        routes,
        group_attrs,
        predicates,
        contrib_target,
        count_only,
        mirror_col,
        n_cols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_query::{parse_workload, Pattern, PlanCandidate};

    fn setup() -> (Catalog, Workload) {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(A, B, D) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(E) WITHIN 10 s SLIDE 1 s",
            ],
        )
        .unwrap();
        (c, w)
    }

    #[test]
    fn non_shared_compiles_one_runner_per_query() {
        let (c, w) = setup();
        let parts = compile(&c, &w, &SharingPlan::non_shared()).unwrap();
        assert_eq!(parts.len(), 1);
        let p = &parts[0];
        assert_eq!(p.queries.len(), 3);
        // q1, q2 each get a private 3-type runner; q3 is a unit segment
        assert_eq!(p.runners.len(), 2);
        assert!(p.runners.iter().all(|r| !r.shared));
        let a = c.lookup("A").unwrap();
        let roles = p.routes[a.index()].as_ref().unwrap();
        assert_eq!(roles.runner_roles.len(), 2, "A starts both runners");
        let e = c.lookup("E").unwrap();
        let unit = p.routes[e.index()].as_ref().unwrap();
        assert_eq!(unit.unit_roles, vec![(2, 0)]);
        assert!(p.count_only);
    }

    #[test]
    fn shared_candidate_creates_one_runner_with_two_subscribers() {
        let (mut c, w) = setup();
        let ab = Pattern::from_names(&mut c, ["A", "B"]);
        let plan = SharingPlan::new([PlanCandidate::new(ab, [QueryId(0), QueryId(1)])]);
        let parts = compile(&c, &w, &plan).unwrap();
        let p = &parts[0];
        // one shared (A,B) runner; suffixes (C) and (D) are unit segments
        assert_eq!(p.runners.len(), 1);
        assert!(p.runners[0].shared);
        assert_eq!(p.runners[0].completion_subs, vec![(0, 0), (1, 0)]);
        assert!(
            p.runners[0].start_subs.is_empty(),
            "stage 0 needs no snapshots"
        );
        let cty = c.lookup("C").unwrap();
        assert_eq!(
            p.routes[cty.index()].as_ref().unwrap().unit_roles,
            vec![(0, 1)]
        );
    }

    #[test]
    fn shared_mid_candidate_registers_start_subscriptions() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(X, A, B) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(Y, A, B) WITHIN 10 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let ab = Pattern::from_names(&mut c, ["A", "B"]);
        let plan = SharingPlan::new([PlanCandidate::new(ab, [QueryId(0), QueryId(1)])]);
        let p = &compile(&c, &w, &plan).unwrap()[0];
        assert_eq!(p.runners.len(), 1);
        // both queries use the shared runner at stage 1 => both need snaps
        let mut subs = p.runners[0].start_subs.clone();
        subs.sort_unstable();
        assert_eq!(subs, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn different_windows_split_partitions() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 20 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let parts = compile(&c, &w, &SharingPlan::non_shared()).unwrap();
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn candidate_spanning_partitions_rejected() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 20 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let ab = Pattern::from_names(&mut c, ["A", "B"]);
        let plan = SharingPlan::new([PlanCandidate::new(ab, [QueryId(0), QueryId(1)])]);
        let err = compile(&c, &w, &plan).unwrap_err();
        assert!(
            matches!(err, CompileError::CandidateSpansPartitions { .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_group_attr_rejected() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY vehicle WITHIN 10 s SLIDE 1 s"],
        )
        .unwrap();
        // types A, B have empty schemas -> `vehicle` cannot resolve
        let err = compile(&c, &w, &SharingPlan::non_shared()).unwrap_err();
        assert!(
            matches!(err, CompileError::GroupAttrMissing { .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_agg_attr_rejected() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            ["RETURN SUM(A.price) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 1 s"],
        )
        .unwrap();
        let err = compile(&c, &w, &SharingPlan::non_shared()).unwrap_err();
        assert!(matches!(err, CompileError::AggAttrMissing { .. }), "{err}");
    }

    #[test]
    fn empty_workload_rejected() {
        let c = Catalog::new();
        let err = compile(&c, &Workload::new(), &SharingPlan::non_shared()).unwrap_err();
        assert_eq!(err, CompileError::EmptyWorkload);
    }

    #[test]
    fn output_kinds() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(B) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(Z) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let parts = compile(&c, &w, &SharingPlan::non_shared()).unwrap();
        // COUNT(B): k=1; COUNT(Z): Z not in pattern, k=0
        let kinds: Vec<OutputKind> = parts
            .iter()
            .flat_map(|p| p.queries.iter().map(|q| q.output))
            .collect();
        assert!(kinds.contains(&OutputKind::CountTimes(1)));
        assert!(kinds.contains(&OutputKind::CountTimes(0)));
    }

    #[test]
    fn repeated_type_positions_sorted_descending() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, A, C) WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(A, B, A, D) WITHIN 10 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let p = &compile(&c, &w, &SharingPlan::non_shared()).unwrap()[0];
        let a = c.lookup("A").unwrap();
        let roles = &p.routes[a.index()].as_ref().unwrap().runner_roles;
        // per runner: position 2 before position 0
        assert_eq!(roles, &vec![(0, 2), (0, 0), (1, 2), (1, 0)]);
    }
}
