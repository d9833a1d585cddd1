(* Binary identity for scrapes: a constant build_info gauge (value 1,
   identity in the labels, the Prometheus convention), so a dashboard
   can tell which binary answered.  The version string matches the
   CLI's [Cmd.info ~version]; packaging can override it via
   TEMPAGG_VERSION without rebuilding. *)

let default_version = "1.0.0"

let version =
  match Sys.getenv_opt "TEMPAGG_VERSION" with
  | Some v when v <> "" -> v
  | _ -> default_version

let to_metrics m =
  Metrics.set_int
    (Metrics.gauge m
       ~help:"Build identity; the version is in the labels"
       ~labels:[ ("version", version) ]
       "tempagg_build_info")
    1
