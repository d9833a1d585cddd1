(** Memory instrumentation for the aggregation algorithms.

    The paper's Section 6.2 compares algorithms by the number of live
    "nodes" times a per-node byte cost: 16 bytes for both tree algorithms
    (two child pointers, an aggregate value, a split timestamp) and 16 for
    the linked list (two timestamps, an aggregate value, a next pointer).
    Each algorithm calls {!alloc}/{!free} as it creates and garbage-collects
    nodes; {!peak_bytes} then reproduces the Figure 9 measurements. *)

type t

val create : ?node_bytes:int -> unit -> t
(** [node_bytes] defaults to 16, the paper's cost for tree and list nodes. *)

val alloc : t -> unit
val free : t -> unit
val free_many : t -> int -> unit

val set_hook : t -> (t -> unit) option -> unit
(** Install (or clear) a hook invoked after every {!alloc}, with the
    allocation already counted.  This is how {!Guard} piggybacks its
    resource checks on the paper's node accounting: the hook may raise
    (e.g. {!Guard.Budget_exceeded}) to abort a runaway evaluation at the
    exact allocation that crossed the budget.  Survives {!reset}. *)

val hook : t -> (t -> unit) option
(** The installed hook, so child instruments (e.g. {!Parallel} shards)
    can inherit the parent's guard. *)

val allocated : t -> int
(** Total nodes ever allocated. *)

val live : t -> int
(** Nodes currently live. *)

val peak_live : t -> int
(** High-water mark of {!live}. *)

val node_bytes : t -> int
val peak_bytes : t -> int
(** [peak_live * node_bytes] — the paper's main-memory requirement. *)

val reset : t -> unit

type snapshot = {
  allocated : int;
  peak_live : int;
  node_bytes : int;
  peak_bytes : int;
}

val snapshot : t -> snapshot

val absorb : t -> snapshot -> unit
(** Fold a child instrument's snapshot into [t]: the child's allocations
    are added to [t]'s total, and its peak joins [t]'s live count (so
    absorbing the snapshots of several concurrently-running children
    before releasing them with {!free_many} makes [t]'s peak the sum of
    the children's peaks — the honest multicore accounting, since the
    children's states were live at the same time). *)

val pp_snapshot : Format.formatter -> snapshot -> unit
