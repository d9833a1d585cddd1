(** Query evaluation.

    A query's result is itself a valid-time relation: one tuple per
    (group, constant interval), carrying the group-by values, the
    aggregate values, and the constant interval as its valid time —
    coalesced so that adjacent intervals with identical values are merged
    (TSQL2 result semantics, paper Section 5.1).

    For ungrouped queries the result covers the whole time-line
    (including leading/trailing intervals where the aggregate is empty,
    as in the paper's Table 1 which begins at time 0).  For queries with
    a GROUP BY attribute, each group's timeline is clipped to that
    group's lifespan, since an unbounded all-empty timeline per group is
    rarely useful. *)

type outcome = {
  result : Relation.Trel.t;
  degradations : Tempagg.Engine.degradation list;
      (** Every recovery event across all per-aggregate, per-group
          evaluations, in occurrence order.  Empty on a clean run. *)
}

val execute :
  ?memory_budget:int ->
  ?deadline_ms:float ->
  ?profile:Obs.Profile.t ->
  Catalog.t ->
  Semant.plan ->
  (outcome, string) result
(** Evaluate an analyzed plan and record its outcome in the catalog's
    statistics store — the one path every query takes.  Every engine
    evaluation goes through {!Tempagg.Engine.eval_robust} (or
    {!Tempagg.Span.eval_robust}) under the plan's own [on_error]
    policy: budgets and deadlines (per evaluation) are enforced,
    failures walk the recovery chain when the policy allows, and every
    degradation is reported, never applied silently.  With no budget,
    no profile and the [fail] policy the run costs what a bare
    {!Tempagg.Engine.eval} costs.

    [?profile] threads an {!Obs.Profile} through every evaluation (the
    implementation behind [EXPLAIN ANALYZE] and the CLI's [--profile]).
    The run is one [execute-plan] span: its duration is the latency the
    statistics store records and the rest of the profile's total.
    Profiling forces instrumentation, so the run costs what
    {!Tempagg.Engine.eval_with_stats} costs.
    [Error _] carries the rendered structured error when recovery is
    impossible or disallowed. *)

val run : Semant.plan -> Relation.Trel.t
(** {!execute}'s evaluation without budgets, profile or outcome
    record.
    @raise Failure with {!execute}'s error message when evaluation
    fails. *)

type value_monoid =
  | Value_monoid : (Relation.Value.t, 's, Relation.Value.t) Tempagg.Monoid.t -> value_monoid
      (** An aggregate monoid over relation values with its state type
          abstracted — what a heterogeneous list of per-aggregate
          evaluations (or live views) carries. *)

val monoid_of_spec : Semant.agg_spec -> value_monoid
(** The monoid an analyzed aggregate evaluates: COUNT over any column,
    SUM specialized to the column's numeric type, AVG as float,
    MIN/MAX by {!Relation.Value.compare}.  Shared by the batch path
    here and the incremental maintenance in {!Session}. *)

val zip_timelines :
  'a Temporal.Timeline.t list -> 'a list Temporal.Timeline.t
(** Refine a non-empty list of timelines over a common cover into one
    timeline of value lists (in input order). *)

val plan :
  ?adaptive:bool ->
  ?algorithm:Tempagg.Engine.algorithm ->
  ?domains:int ->
  ?on_error:Tempagg.Engine.on_error ->
  ?join_strategy:Join.Engine.strategy ->
  ?profile:Obs.Profile.t ->
  Catalog.t ->
  Ast.query ->
  (Semant.plan, string) result
(** Analyze a parsed query and apply the overrides.  [?adaptive]
    (default true) lets the planner consult the catalog's statistics
    store — the CLI's [--no-adaptive] turns it off (outcomes are still
    recorded).  [?algorithm] replaces the planned evaluation algorithm
    (the CLI's [--algorithm]); [?domains] above 1 wraps it in
    {!Tempagg.Engine.Parallel} over that many OCaml domains
    ([--domains]); [?on_error] replaces the query's [ON ERROR] clause or
    the optimizer's recommendation ([--on-error]); [?join_strategy]
    pins the interval-join strategy ([--join-strategy]; ignored for
    join-free queries).  [?profile] receives the query text, and the
    [parse+analyze] span's duration as a phase and part of its total. *)

val prepare :
  ?adaptive:bool ->
  ?algorithm:Tempagg.Engine.algorithm ->
  ?domains:int ->
  ?on_error:Tempagg.Engine.on_error ->
  ?join_strategy:Join.Engine.strategy ->
  ?profile:Obs.Profile.t ->
  Catalog.t ->
  string ->
  (Semant.plan, string) result
(** Parse, then {!plan}, both inside the one [parse+analyze] span. *)

val query :
  ?adaptive:bool ->
  ?algorithm:Tempagg.Engine.algorithm ->
  ?domains:int ->
  ?join_strategy:Join.Engine.strategy ->
  Catalog.t ->
  string ->
  (Relation.Trel.t, string) result
(** {!prepare} then {!execute}: the whole pipeline, for callers that
    want only the result relation. *)

val record_outcome :
  ?profile:Obs.Profile.t ->
  ?intervals:int ->
  Catalog.t ->
  Semant.plan ->
  elapsed_ms:float ->
  degradations:int ->
  Relation.Trel.t ->
  unit
(** Feed one successful run into the catalog's statistics store: input
    cardinality, algorithm, latency, peak bytes (when profiled), and —
    only for a plain scan — the run's un-coalesced constant-interval
    count [?intervals] (no observation when absent) and any k bound the
    run proved (a bare k-ordered tree completing with every aggregate
    consuming every tuple).  {!execute} calls this itself. *)

val explain :
  ?adaptive:bool ->
  ?algorithm:Tempagg.Engine.algorithm ->
  ?domains:int ->
  ?on_error:Tempagg.Engine.on_error ->
  ?join_strategy:Join.Engine.strategy ->
  Catalog.t ->
  string ->
  (string, string) result
(** {!prepare} only; describe the chosen strategy (algorithm, sorting,
    grouping, join strategy and rationale for join queries, recovery
    policy when not [fail]) without running the query.  Takes the same
    overrides as {!plan}, so [explain] shows exactly what {!execute}
    would run. *)
