(** EXPLAIN-ANALYZE-style per-query execution report.

    A mutable builder the planner and engine fill in while a query
    runs: plan choice and rationale, every evaluation attempt (aborted
    fallback attempts included, so peak-memory reporting covers them),
    degradations, per-phase wall time, I/O counters and output size.

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
val set_total_ms : t -> float -> unit

val elapsed_ms : t -> float
(** Milliseconds since {!create}, on {!Trace.now_us}'s clock — how a
    query's total (parse through evaluation) is measured when the
    profile is created before the statement is parsed. *)

val set_io :
  t -> pages_read:int -> pages_written:int -> retries:int -> corrupt_pages:int -> unit

val add_attempt :
  t ->
  algorithm:string ->
  outcome:string ->
  ?allocated_nodes:int ->
  ?peak_live:int ->
  ?node_bytes:int ->
  ?peak_bytes:int ->
  elapsed_ms:float ->
  unit ->
  unit

val note_degradation : t -> string -> unit

val add_phase : t -> string -> float -> unit
(** [add_phase t label ms] — repeated labels accumulate. *)

val time_phase : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk and record its wall time under [label] (even on raise). *)

val attempts : t -> attempt list
val degradations : t -> string list
val phases : t -> (string * float) list
val allocated_nodes : t -> int
val peak_live : t -> int
val peak_bytes : t -> int
val segments : t -> int option

val to_string : t -> string
(** Human-readable report.  The memory line is machine-parseable:
    [memory: allocated_nodes=%d peak_live=%d node_bytes=%d peak_bytes=%d]. *)
