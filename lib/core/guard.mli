(** Per-query resource budgets: peak-memory caps and deadlines.

    The paper's algorithms have sharply different resource profiles — the
    aggregation tree is O(n²) time on sorted input and its node count is
    unbounded by the result size, while a mis-guessed k makes the
    k-ordered tree abort outright.  A {!t} turns "runs away" into a
    structured, catchable failure: a {e memory budget} is enforced by
    piggybacking on {!Instrument.alloc} (the same 16-bytes-per-node
    accounting the paper uses for its memory figures), and a {e deadline}
    by cooperative checks in every algorithm's insert loop (each tuple
    pulled from a {!wrap_seq}-wrapped input, and each node allocation,
    ticks the guard; the clock is sampled every 256 ticks).  Deadlines
    run on {!Obs.Trace.now_us}, the monotonic clock spans are stamped
    with, so a step of the wall clock neither fires nor postpones one.

    Both failures raise structured exceptions that {!Engine.eval_robust}
    converts into fallbacks or errors, never silent truncation. *)

exception
  Budget_exceeded of {
    budget_bytes : int;  (** The configured cap. *)
    used_bytes : int;  (** Live bytes at the allocation that crossed it. *)
  }
(** The evaluation's live algorithm state (per the {!Instrument} node
    model) exceeded the memory budget. *)

exception
  Deadline_exceeded of {
    deadline_ms : float;  (** The configured deadline. *)
    elapsed_ms : float;  (** Time actually spent, on the monotonic clock. *)
  }
(** The evaluation ran past its deadline. *)

type t

val create : ?memory_budget:int -> ?deadline_ms:float -> unit -> t
(** [memory_budget] is in bytes of algorithm state; [deadline_ms] is
    milliseconds on the monotonic clock, counted from this call.
    Omitted limits are not enforced.
    @raise Invalid_argument on a negative budget or deadline. *)

val unlimited : t -> bool
(** No limit was configured: every check is a no-op. *)

val split : t -> int -> t
(** [split t ways] is a shard-local guard for one of [ways] concurrent
    shards of the same evaluation: the memory budget is divided by
    [ways] (concurrent shards' live bytes add up against the query's
    cap), the deadline clock is shared with [t] (it keeps counting from
    the original start).  @raise Invalid_argument if [ways < 1]. *)

val check : t -> unit
(** One cooperative tick.  Cheap (a masked compare); samples the
    monotonic clock every 256th tick (and on the first).
    @raise Deadline_exceeded when the deadline has passed. *)

val hook : t -> (Instrument.t -> unit) option
(** The {!Instrument.set_hook} payload: [None] when {!unlimited} (so the
    happy path keeps its bare allocation counters), otherwise {!check}
    plus the budget comparison against the instrument's live bytes.
    @raise Budget_exceeded
    @raise Deadline_exceeded *)

val attach : t -> Instrument.t -> unit
(** [attach t inst] installs {!hook} on [inst]. *)

val wrap_seq : t -> 'a Seq.t -> 'a Seq.t
(** Interpose a {!check} before every element — the per-tuple cooperative
    deadline check in each algorithm's insert loop.  The identity when no
    deadline is set. *)

val describe : exn -> string option
(** A human-readable rendering of the two guard exceptions; [None] for
    any other exception. *)
