(* Glue between the SLO engine (obs, evaluation-agnostic) and the query
   engine: compiles nothing itself, just answers Obs.Slo's TSQL queries
   against a catalog holding the scraped self-relations, converting the
   engine's closed result intervals to the half-open window coordinates
   Slo integrates over. *)

open Temporal
open Relation

let rows_of_relation rel =
  let n = Schema.arity (Trel.schema rel) in
  List.filter_map
    (fun tu ->
      (* Single-aggregate queries: the value is the last column. *)
      match Value.to_float (Tuple.value tu (n - 1)) with
      | None -> None
      | Some v ->
          let iv = Tuple.valid tu in
          let stop = Interval.stop iv in
          Some
            {
              Obs.Slo.row_start = Chronon.to_int (Interval.start iv);
              row_stop =
                (if Chronon.is_finite stop then Chronon.to_int stop + 1
                 else max_int);
              row_value = v;
            })
    (Trel.tuples rel)

let source catalog =
  {
    Obs.Slo.query =
      (fun q ->
        match Tsql.Eval.query ~adaptive:false catalog q with
        | Error _ as e -> e
        | Ok rel -> Ok (rows_of_relation rel));
  }

let evaluate ~now_us scrape objectives =
  Obs.Slo.evaluate ~now_us (source (Scrape.catalog scrape)) objectives
