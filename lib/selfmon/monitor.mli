(** SLO evaluation against the scraped self-relations.

    {!Obs.Slo} compiles objectives to TSQL and integrates the rows it
    gets back; this module is the bridge that actually runs those
    queries through {!Tsql.Eval} — so SLO verdicts are computed by the
    same temporal-aggregation engine the server serves. *)

val rows_of_relation : Relation.Trel.t -> Obs.Slo.row list
(** Result rows of a single-aggregate query as [Obs.Slo] rows: the last
    column is the value (NULL rows dropped), closed valid intervals
    become half-open ([stop + 1]; [forever] becomes [max_int]). *)

val source : Tsql.Catalog.t -> Obs.Slo.source
(** Answer SLO queries against [catalog] (non-adaptively — monitoring
    queries should not steer the optimizer's statistics). *)

val evaluate :
  now_us:int ->
  Scrape.t ->
  Obs.Slo.objective list ->
  (Obs.Slo.report, string) result
(** Evaluate objectives against a scraper's current relations at
    [now_us] (a {!Obs.Trace.now_us} reading). *)
