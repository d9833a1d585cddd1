(** Multicore divide-and-conquer evaluation over OCaml 5 domains.

    Temporal aggregation is embarrassingly parallel in the tuples: shard
    the relation, evaluate each shard with {e any} inner algorithm into a
    timeline of partial-aggregate {e states} over the full time-line, and
    fold the shard timelines together with {!Timeline.merge} under the
    monoid's [combine] — commutativity and associativity (the same laws
    the aggregation tree relies on) make the result independent of the
    sharding.

    Sharding is contiguous, so a time-sorted or k-ordered input stays
    sorted/k-ordered within each shard and the k-ordered tree remains a
    valid inner algorithm.

    This module is algorithm-agnostic: the caller supplies [eval_shard]
    (normally a closure over {!Engine.eval} with the inner algorithm and
    the state monoid [{ m with output = Fun.id }]); {!Engine.eval}'s
    [Parallel] variant is the packaged form. *)

open Temporal

val eval :
  ?instrument:Instrument.t ->
  ?fallback_shard:
    (shard:int ->
    exn:exn ->
    instrument:Instrument.t option ->
    (Interval.t * 'v) Seq.t ->
    's Timeline.t) ->
  ?offsets:int array ->
  domains:int ->
  eval_shard:
    (instrument:Instrument.t option ->
    (Interval.t * 'v) Seq.t ->
    's Timeline.t) ->
  ('v, 's, 'r) Monoid.t ->
  (Interval.t * 'v) array ->
  'r Timeline.t
(** [eval ~domains ~eval_shard monoid tuples] splits [tuples] into at
    most [domains] contiguous shards — slices read in place, not
    copies — evaluates shard 0 on the current domain
    and the rest on freshly spawned domains, then merges the shard
    timelines pairwise and applies [monoid.output].

    [eval_shard] must return a timeline of monoid {e states} (not
    outputs) covering the same [[origin, horizon]] stretch for every
    shard, including the empty shard.  Each shard gets its own
    {!Instrument} (no cross-domain mutation); their snapshots are
    absorbed into the parent instrument after the join, with peaks
    summed, since the shards ran concurrently.

    With [domains = 1] (or fewer tuples than domains beyond a point) the
    evaluation runs inline with no domain overhead.

    [offsets], when given, fixes the shard boundaries explicitly instead
    of the default equal-count slicing: an array [[|0; o1; ...; n|]] of
    nondecreasing indices into [tuples], one shard per
    adjacent pair (empty shards allowed) — how a time-partitioned
    relation keeps its evaluation shards aligned with its storage
    shards.  [domains] is ignored for slicing when [offsets] is present
    (one domain runs per shard).
    @raise Invalid_argument if [offsets] does not rise from [0] to the
    input length.

    @raise Invalid_argument if [domains < 1].  Without [fallback_shard],
    exceptions raised by a shard (e.g. {!Korder_tree.Order_violation})
    are re-raised after all domains have been joined.

    With [fallback_shard], a failed shard does {e not} abort the query:
    after every domain has been joined, each failed shard is re-evaluated
    inline on the calling domain by
    [fallback_shard ~shard ~exn ~instrument data] — [exn] being the
    shard's original failure, [instrument] its (reset) per-shard
    instrument, [data] the same contiguous slice — and the recovered
    timeline takes the shard's place in the merge.  An exception raised
    by the fallback itself propagates.  Shard instruments inherit the
    parent instrument's {!Instrument.hook}, so {!Guard} budgets apply
    inside shards (each shard checked against its own live bytes). *)
