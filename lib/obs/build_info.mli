(** Binary identity for metric scrapes. *)

val version : string
(** The advertised version: [TEMPAGG_VERSION] from the environment when
    set, else the built-in release version. *)

val to_metrics : Metrics.t -> unit
(** Set [tempagg_build_info{version=...} 1] in [m].  Idempotent; the
    server registers it as a {!Metrics.source}. *)
