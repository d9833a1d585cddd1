(** A small LRU page cache.

    The paper charges Tuma's approach for scanning the relation twice;
    whether that second scan really costs disk I/O depends on whether the
    pages are still resident.  A buffer pool makes that explicit: scans
    consult the pool first, and only misses reach the disk (and the
    {!Io_stats} counters).

    Pages are keyed by (file path, page index).  Eviction is
    least-recently-used; the implementation favours simplicity (hash
    table plus generation stamps, O(capacity) eviction scan) over raw
    speed, which is ample for the pool sizes the benches use. *)

type t

type key = string * int
(** File path and data-page index. *)

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int
val length : t -> int

val find : t -> key -> bytes option
(** On a hit, the page becomes most-recently-used.  Callers must not
    mutate the returned bytes. *)

val insert : t -> key -> bytes -> unit
(** Cache a page (the pool keeps its own copy), evicting the
    least-recently-used entry when full.  Re-inserting an existing key
    refreshes it. *)

val invalidate_file : t -> string -> unit
(** Drop every cached page of the given file (after rewriting it). *)

val hits : t -> int
val misses : t -> int
(** Counters of {!find} outcomes. *)

val clear : t -> unit
