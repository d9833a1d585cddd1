(** Registry of named counters, gauges and histograms with a
    Prometheus-style text exposition.

    Metrics are identified by (name, label set); re-registering an
    existing pair returns the same cell.  Values that live elsewhere
    enter through {!source} callbacks, which every read runs first.
    Registries are not thread-safe — mutate and read from one domain
    (spans are the cross-domain instrument; see {!Trace}). *)

type t
type counter
type gauge

type kind = Counter | Gauge | Histogram

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** @raise Invalid_argument on a malformed name or if [name] was already
    registered with a different metric kind. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?gamma:float ->
  string ->
  Histogram.t
(** The returned histogram is live: observations made through it are
    visible to {!expose} as cumulative [_bucket]/[_sum]/[_count] series. *)

val source : t -> (unit -> unit) -> unit
(** Register a callback that sets this registry's metrics from state
    held elsewhere.  Sources run in registration order at the start of
    {!samples} and {!expose} (and so of {!write_file}), on the reading
    domain, so every read sees fresh values without a refresh call. *)

val inc : counter -> unit

val add : counter -> float -> unit
(** @raise Invalid_argument on a negative increment. *)

val set : gauge -> float -> unit
val set_int : gauge -> int -> unit
val counter_value : counter -> float
val gauge_value : gauge -> float

val value : t -> ?labels:(string * string) list -> string -> float option
(** Current value of a registered counter or gauge ([None] for missing
    names and histograms). *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;  (** Sorted by key. *)
  s_kind : kind;
  s_value : float;  (** Counter/gauge value; a histogram's sum. *)
  s_count : int;  (** A histogram's observation count; 1 otherwise. *)
  s_buckets : (float * int) list;
      (** A histogram's non-empty (upper bound, count) buckets in
          ascending bound order; [[]] for counters and gauges. *)
}

val samples : t -> sample list
(** Structured enumeration of every registered metric, in {!expose}'s
    order (name, then labels) — what scrapers and tests should consume
    instead of parsing the text exposition. *)

val expose : t -> string
(** Prometheus text exposition: metrics sorted by name then labels, one
    [# HELP]/[# TYPE] header per name, integral values printed without a
    decimal point. *)

val write_file : t -> string -> unit
(** Write {!expose} to [path] atomically: the exposition goes to
    [path ^ ".tmp"] first and is renamed into place, so a concurrent
    reader sees either the previous complete exposition or the new one,
    never a torn write. *)
