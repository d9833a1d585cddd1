(** EXPLAIN-ANALYZE-style per-query execution report.

    A mutable builder the planner and engine fill in while a query
    runs: plan choice and rationale, every evaluation attempt (aborted
    fallback attempts included, so peak-memory reporting covers them),
    degradations, per-phase time, I/O counters and output size.  It
    reads no clock: every duration is the duration of a span, measured
    with {!Trace.timed} by the code that runs the phase.

    Attempts fold into the aggregate memory numbers as sequential
    retries — allocations sum, peaks max.  On a clean single-attempt
    run, {!peak_bytes} therefore equals that attempt's
    [Instrument.peak_bytes] exactly. *)

type t

type attempt = {
  algorithm : string;
  outcome : string;  (** ["ok"] or the failure reason *)
  allocated_nodes : int;
  peak_live : int;
  node_bytes : int;
  peak_bytes : int;
  elapsed_ms : float;
}

type io = {
  pages_read : int;
  pages_written : int;
  io_retries : int;
  corrupt_pages : int;
}

val create : unit -> t
val set_query : t -> string -> unit
val set_plan : t -> algorithm:string -> rationale:string -> unit

val set_stats_source : t -> string -> unit
(** Where the plan's inputs came from: ["declared metadata"] or
    ["observed (...)"] when the optimizer leaned on the statistics
    store. *)

val stats_source : t -> string option

val set_join : t -> strategy:string -> rationale:string -> stats_source:string -> unit
(** The plan's interval-join strategy (["sweep-join"] /
    ["nested-loop-join"]), why it was chosen, and the provenance of the
    cardinalities behind that choice — printed by EXPLAIN ANALYZE for
    join queries. *)

val set_k_estimate : t -> int -> unit
val set_tuples : t -> int -> unit
val set_segments : t -> int -> unit

val add_total : t -> int -> unit
(** [add_total t us] adds the duration of one of the query's top-level
    spans (parse+analyze, then the plan's execution) to its total. *)

val set_io :
  t -> pages_read:int -> pages_written:int -> retries:int -> corrupt_pages:int -> unit

val add_attempt :
  t ->
  algorithm:string ->
  outcome:string ->
  allocated_nodes:int ->
  peak_live:int ->
  node_bytes:int ->
  peak_bytes:int ->
  elapsed_ms:float ->
  unit

val note_degradation : t -> string -> unit

val add_phase : t -> string -> int -> unit
(** [add_phase t label us] adds a phase span's duration in
    microseconds — repeated labels accumulate. *)

val attempts : t -> attempt list
val degradations : t -> string list
val allocated_nodes : t -> int
val peak_live : t -> int
val peak_bytes : t -> int
val segments : t -> int option

val to_string : t -> string
(** Human-readable report.  The memory line is machine-parseable:
    [memory: allocated_nodes=%d peak_live=%d node_bytes=%d peak_bytes=%d].
    Once a total is set, the phases end with an [unattributed] row:
    the total minus the phases, never negative. *)
