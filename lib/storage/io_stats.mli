(** Disk-I/O accounting.

    The paper's Section 6.3 weighs "the cost of increased memory
    requirements [against] the cost of disk access" — e.g. whether the
    disk time needed to sort the relation beats the aggregation tree's
    memory appetite.  Every storage operation in this library charges its
    page reads and writes to an [Io_stats.t] so that trade-off can be
    measured rather than guessed.

    Fault recovery is accounted too: [retries] counts re-reads after a
    transient fault (each retried read is also charged as a page read),
    and [corrupt_pages] counts pages whose CRC trailer failed to verify
    — so no recovery is ever silent in the numbers. *)

type t

val create : unit -> t

val read_page : t -> unit
val write_page : t -> unit

val retry : t -> unit
(** A page read was retried after a transient fault. *)

val corrupt_page : t -> unit
(** A page failed its checksum. *)

val pages_read : t -> int
val pages_written : t -> int
val retries : t -> int
val corrupt_pages : t -> int

val total_pages : t -> int

val reset : t -> unit

type snapshot = {
  pages_read : int;
  pages_written : int;
  retries : int;
  corrupt_pages : int;
}

val snapshot : t -> snapshot

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Prints reads/writes always; retries and corrupt pages only when
    non-zero (the happy path stays terse). *)
