open Temporal
open Relation

(* One (interval, value) pair per tuple relevant to this aggregate:
   COUNT( * ) consumes every tuple; column aggregates skip SQL NULLs. *)
let data_for tuples (spec : Semant.agg_spec) =
  match spec.Semant.column with
  | None -> List.to_seq (List.map (fun t -> (Tuple.valid t, Value.Null)) tuples)
  | Some i ->
      List.to_seq tuples
      |> Seq.filter_map (fun t ->
             let v = Tuple.value t i in
             if Value.is_null v then None else Some (Tuple.valid t, v))

(* Mutable context for one plan execution: the budgets to enforce, the
   degradation events accumulated across every per-aggregate, per-group
   engine evaluation, and the un-coalesced constant intervals the
   evaluation produced (what [record_outcome] feeds the planner). *)
type ctx = {
  memory_budget : int option;
  deadline_ms : float option;
  profile : Obs.Profile.t option;
  mutable events : Tempagg.Engine.degradation list;
  mutable intervals : int;
}

(* Carries a structured engine error out of the evaluation loops;
   intercepted in [evaluate], never escapes this module. *)
exception Eval_error of Tempagg.Engine.error

(* The one call into the engine.  It always goes through the robust
   entry point under the plan's own recovery policy; with no budget, no
   profile and [Fail], that costs what a bare [Engine.eval] costs. *)
let run_engine ctx ?shard_offsets (plan : Semant.plan) monoid data =
  let origin, horizon =
    match plan.Semant.window with
    | Some w -> (Interval.start w, Interval.stop w)
    | None -> (Chronon.origin, Chronon.forever)
  in
  let result =
    match plan.Semant.granule with
    | Some granule ->
        Tempagg.Span.eval_robust ~origin ~horizon
          ~algorithm:plan.Semant.algorithm ~on_error:plan.Semant.on_error
          ?memory_budget:ctx.memory_budget ?deadline_ms:ctx.deadline_ms
          ?profile:ctx.profile ~granule monoid data
    | None ->
        Tempagg.Engine.eval_robust ~origin ~horizon
          ~on_error:plan.Semant.on_error ?memory_budget:ctx.memory_budget
          ?deadline_ms:ctx.deadline_ms ?profile:ctx.profile ?shard_offsets
          plan.Semant.algorithm monoid data
  in
  match result with
  | Ok (timeline, degradations) ->
      ctx.events <- ctx.events @ degradations;
      timeline
  | Error e -> raise (Eval_error e)

let int_value n = Value.Int n

let option_value = function None -> Value.Null | Some v -> v

type value_monoid =
  | Value_monoid : (Value.t, 's, Value.t) Tempagg.Monoid.t -> value_monoid

let monoid_of_spec (spec : Semant.agg_spec) =
  let module M = Tempagg.Monoid in
  match (spec.Semant.fn, spec.Semant.column_ty) with
  | Ast.Count, _ -> Value_monoid (M.map_output int_value M.count)
  | Ast.Sum, Some Value.Tfloat ->
      Value_monoid
        (M.contramap
           (fun v -> Option.value (Value.to_float v) ~default:0.)
           M.sum_float
        |> M.map_output (fun f -> Value.Float f))
  | Ast.Sum, _ ->
      Value_monoid
        (M.contramap (fun v -> Option.value (Value.to_int v) ~default:0)
           M.sum_int
        |> M.map_output int_value)
  | Ast.Avg, _ ->
      Value_monoid
        (M.contramap
           (fun v -> Option.value (Value.to_float v) ~default:0.)
           M.avg_float
        |> M.map_output (function
             | None -> Value.Null
             | Some f -> Value.Float f))
  | Ast.Min, _ ->
      Value_monoid (M.map_output option_value (M.minimum ~compare:Value.compare))
  | Ast.Max, _ ->
      Value_monoid (M.map_output option_value (M.maximum ~compare:Value.compare))

(* Merge per-storage-shard stream sizes into at most [target] evaluation
   shards of roughly equal tuple count, as cut offsets into the
   concatenated stream ([0; ...; total]).  Adjacent storage shards stay
   adjacent, so each evaluation shard still covers a contiguous slice. *)
let group_offsets ~target sizes =
  let total = List.fold_left ( + ) 0 sizes in
  let per = Stdlib.max 1 ((total + Stdlib.max 1 target - 1) / Stdlib.max 1 target) in
  let cuts = ref [] in
  let pos = ref 0 in
  let last = ref 0 in
  List.iter
    (fun s ->
      pos := !pos + s;
      if !pos - !last >= per && !pos < total then begin
        cuts := !pos :: !cuts;
        last := !pos
      end)
    sizes;
  Array.of_list ((0 :: List.rev !cuts) @ [ total ])

let agg_timeline ctx ?shard_blocks plan tuples (spec : Semant.agg_spec) =
  (* A partitioned plan under a Parallel algorithm evaluates each
     storage shard's slice in its own evaluation shard: the per-shard
     streams (after this aggregate's NULL filtering) give the explicit
     offsets [Engine.eval] pins the parallel split to.  DISTINCT
     re-sorts by value and span grouping goes through [Span.eval], so
     both keep the unpinned path. *)
  let sharded =
    match (shard_blocks, plan.Semant.algorithm, plan.Semant.granule) with
    | Some blocks, Tempagg.Engine.Parallel { domains; _ }, None
      when not spec.Semant.distinct ->
        Some (blocks, domains)
    | _ -> None
  in
  let data, shard_offsets =
    match sharded with
    | Some (blocks, domains) ->
        let data_blocks =
          List.map (fun b -> List.of_seq (data_for b spec)) blocks
        in
        ( List.to_seq (List.concat data_blocks),
          Some
            (group_offsets ~target:domains
               (List.map List.length data_blocks)) )
    | None -> (data_for tuples spec, None)
  in
  let data =
    (* Duplicate elimination happens before the relation is processed
       (paper Section 7); the prepared stream is value-ordered. *)
    if spec.Semant.distinct then
      List.to_seq (Tempagg.Distinct.prepare ~compare:Value.compare data)
    else data
  in
  (* The value-ordered distinct stream is no longer k-ordered, even
     inside a parallel shard (contiguous sharding preserves input order,
     but the distinct preparation re-sorts by value first). *)
  let rec needs_time_order = function
    | Tempagg.Engine.Korder_tree _ -> true
    | Tempagg.Engine.Parallel { inner; _ } -> needs_time_order inner
    | _ -> false
  in
  let rec without_korder = function
    | Tempagg.Engine.Korder_tree _ -> Tempagg.Engine.Aggregation_tree
    | Tempagg.Engine.Parallel { domains; inner } ->
        Tempagg.Engine.Parallel { domains; inner = without_korder inner }
    | a -> a
  in
  let plan =
    if spec.Semant.distinct && needs_time_order plan.Semant.algorithm then
      { plan with Semant.algorithm = without_korder plan.Semant.algorithm }
    else plan
  in
  match monoid_of_spec spec with
  | Value_monoid monoid -> run_engine ctx ?shard_offsets plan monoid data

(* Pair up the per-aggregate timelines into one timeline of value lists.
   All of them cover the full [origin,horizon], so refine never fails. *)
let zip_timelines = function
  | [] -> assert false
  | first :: rest ->
      List.fold_left
        (fun acc tl -> Timeline.map (fun (l, v) -> l @ [ v ]) (Timeline.refine acc tl))
        (Timeline.map (fun v -> [ v ]) first)
        rest

(* Restrict a timeline to the segments intersecting [hull], trimming the
   first and last. *)
let clip_to hull tl =
  let segments =
    List.filter_map
      (fun (ivl, v) ->
        Option.map (fun i -> (i, v)) (Interval.intersect ivl hull))
      (Timeline.to_list tl)
  in
  match segments with [] -> None | _ -> Some (Timeline.of_list segments)

let clip_tuple w t =
  Option.map
    (fun clipped -> Tuple.with_valid t clipped)
    (Interval.intersect (Tuple.valid t) w)

(* The relation's tuples that pass [keep], clipped to the window, block
   by storage shard.  A partitioned relation's physical tuple list is
   its shards concatenated in order, so it is walked block by block: a
   shard whose time span misses the DURING window is skipped wholesale —
   its tuples are never filtered, clipped or even looked at, which is
   where partition pruning actually saves work.  An unpartitioned
   relation is one block. *)
let windowed_blocks ~window ~keep ~layout relation =
  let push acc t =
    if not (keep t) then acc
    else
      match window with
      | None -> t :: acc
      | Some w -> (
          match clip_tuple w t with Some c -> c :: acc | None -> acc)
  in
  (* A kept block's first [n] tuples are filtered and clipped in one
     walk; a pruned shard's are skipped without allocating. *)
  let rec select_block n acc tuples =
    match tuples with
    | t :: tl when n > 0 -> select_block (n - 1) (push acc t) tl
    | _ -> (List.rev acc, tuples)
  in
  let rec skip n tuples =
    match tuples with _ :: tl when n > 0 -> skip (n - 1) tl | _ -> tuples
  in
  match (layout : (Interval.t * int) list) with
  | [] -> [ fst (select_block max_int [] (Trel.tuples relation)) ]
  | layout ->
      let rec split tuples = function
        | [] -> []
        | (span, count) :: rest ->
            let kept, tail =
              match window with
              | Some w when not (Interval.overlaps span w) ->
                  ([], skip count tuples)
              | _ -> select_block count [] tuples
            in
            kept :: split tail rest
      in
      split (Trel.tuples relation) layout

(* Materialize one join side, pruned by its own shard layout.  No WHERE
   filtering here — a join query's WHERE is compiled against the
   combined schema and runs on the joined stream. *)
let side_tuples ~window ~layout relation =
  List.concat (windowed_blocks ~window ~keep:(fun _ -> true) ~layout relation)

(* Execute the plan's interval join: materialize both sides (each
   pruned by its own shard layout and clipped to the window), pair
   them under the ON predicate with the planned strategy, and build
   the joined tuples — left values then right values, valid time from
   {!Join.Predicate.result_interval}.

   The join runs under one Guard spanning both attempts (a retry does
   not restart the deadline clock, matching [Engine.eval_robust]); with
   a memory budget the sweep's active-map slots are metered through an
   Instrument, so a sweep that blows the budget retries as the nested
   loop — which keeps no per-tuple state — when the recovery policy
   allows, recorded as a degradation and counted by
   {!Join.Telemetry}. *)
let joined_tuples ctx (plan : Semant.plan) (j : Semant.join_spec) =
  let left =
    Array.of_list
      (side_tuples ~window:plan.Semant.window ~layout:plan.Semant.shard_layout
         plan.Semant.relation)
  and right =
    Array.of_list
      (side_tuples ~window:plan.Semant.window
         ~layout:j.Semant.right_shard_layout j.Semant.right_relation)
  in
  let livs = Array.map Tuple.valid left
  and rivs = Array.map Tuple.valid right in
  let pairs = ref [] in
  let npairs = ref 0 in
  let guard =
    Tempagg.Guard.create ?memory_budget:ctx.memory_budget
      ?deadline_ms:ctx.deadline_ms ()
  in
  let span_label s = "join:" ^ Join.Engine.strategy_to_string s in
  let attempt strategy =
    pairs := [];
    npairs := 0;
    (* Without budgets the join runs unguarded and unmetered. *)
    let guard, instrument =
      if Tempagg.Guard.unlimited guard then (None, None)
      else begin
        let i = Tempagg.Instrument.create () in
        Tempagg.Guard.attach guard i;
        (Some guard, Some i)
      end
    in
    let result, us =
      Obs.Trace.timed (span_label strategy) (fun () ->
          Join.Engine.run ?guard ?instrument strategy j.Semant.predicate
            ~left:livs ~right:rivs (fun l r ->
              pairs := (l, r) :: !pairs;
              incr npairs))
    in
    (* The profile's join phase is the sum of the join:* spans. *)
    Option.iter (fun p -> Obs.Profile.add_phase p "join" us) ctx.profile;
    result
  in
  let fail e = raise (Eval_error (Tempagg.Engine.error_of_exn e)) in
  let used =
    match (attempt j.Semant.strategy, plan.Semant.on_error, j.Semant.strategy) with
    | Ok (), _, strategy -> strategy
    | ( Error (Tempagg.Guard.Budget_exceeded _ as e),
        (Tempagg.Engine.Fallback | Tempagg.Engine.Skip),
        Join.Engine.Sweep ) -> (
        let d =
          {
            Tempagg.Engine.stage = span_label Join.Engine.Sweep;
            reason =
              Option.value (Tempagg.Guard.describe e)
                ~default:"memory budget exceeded";
            action = "retried as nested-loop-join (no live state)";
          }
        in
        ctx.events <- ctx.events @ [ d ];
        Option.iter
          (fun p ->
            Obs.Profile.note_degradation p
              (Tempagg.Engine.degradation_to_string d))
          ctx.profile;
        Join.Telemetry.record_fallback ();
        (* Same guard: the deadline keeps counting across the retry; the
           nested loop allocates nothing, so the budget cannot trip
           again. *)
        match attempt Join.Engine.Nested_loop with
        | Ok () -> Join.Engine.Nested_loop
        | Error e -> fail e)
    | Error e, _, _ -> fail e
  in
  Join.Telemetry.record ~strategy:used ~pairs:!npairs;
  List.rev_map
    (fun (l, r) ->
      Tuple.make
        (Array.append (Tuple.values left.(l)) (Tuple.values right.(r)))
        (Join.Predicate.result_interval j.Semant.predicate livs.(l) rivs.(r)))
    !pairs

let partitions (plan : Semant.plan) tuples =
  match plan.Semant.group_columns with
  | [] -> [ ([], tuples) ]
  | cols ->
      let groups = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun t ->
          let key = List.map (fun (_, i) -> Tuple.value t i) cols in
          (match Hashtbl.find_opt groups key with
          | None ->
              order := key :: !order;
              Hashtbl.add groups key [ t ]
          | Some ts -> Hashtbl.replace groups key (t :: ts)))
        tuples;
      List.sort
        (fun (a, _) (b, _) -> List.compare Value.compare a b)
        (List.map
           (fun key -> (key, List.rev (Hashtbl.find groups key)))
           !order)

let run_aux ctx (plan : Semant.plan) =
  let tuples, shard_blocks =
    match plan.Semant.join with
    | Some j ->
        (* A join query prunes and windows each side in [joined_tuples];
           its WHERE runs on the combined tuples. *)
        (List.filter plan.Semant.filter (joined_tuples ctx plan j), None)
    | None ->
        let blocks =
          windowed_blocks ~window:plan.Semant.window ~keep:plan.Semant.filter
            ~layout:plan.Semant.shard_layout plan.Semant.relation
        in
        (* Shard blocks stay usable as evaluation-shard boundaries only
           while the concatenation order is untouched: a pre-sort
           reorders across blocks, and grouping partitions the tuples by
           value. *)
        ( (match blocks with [ b ] -> b | bs -> List.concat bs),
          if
            plan.Semant.shard_layout <> []
            && plan.Semant.group_columns = []
            && not plan.Semant.sort_first
          then Some blocks
          else None )
  in
  let tuples =
    if plan.Semant.sort_first then
      List.stable_sort Tuple.compare_by_time tuples
    else tuples
  in
  let grouped = plan.Semant.group_columns <> [] in
  let rows =
    List.concat_map
      (fun (key, group_tuples) ->
        let timelines =
          List.map (agg_timeline ctx ?shard_blocks plan group_tuples)
            plan.Semant.aggregates
        in
        let refined = zip_timelines timelines in
        ctx.intervals <- ctx.intervals + Timeline.length refined;
        let zipped =
          Timeline.coalesce ~equal:(List.equal Value.equal) refined
        in
        let clipped =
          if grouped then
            let hull =
              List.fold_left
                (fun acc t ->
                  match acc with
                  | None -> Some (Tuple.valid t)
                  | Some h -> Some (Interval.hull h (Tuple.valid t)))
                None group_tuples
            in
            match hull with
            | None -> None
            | Some h -> clip_to h zipped
          else Some zipped
        in
        match clipped with
        | None -> []
        | Some tl ->
            List.map
              (fun (ivl, values) ->
                Tuple.make (Array.of_list (key @ values)) ivl)
              (Timeline.to_list tl))
      (partitions plan tuples)
  in
  Trel.create plan.Semant.out_schema rows

type outcome = {
  result : Trel.t;
  degradations : Tempagg.Engine.degradation list;
}

(* Evaluate without recording anything: the result, the degradations
   and the un-coalesced interval count, or the rendered error. *)
let evaluate ?memory_budget ?deadline_ms ?profile plan =
  let ctx = { memory_budget; deadline_ms; profile; events = []; intervals = 0 } in
  match run_aux ctx plan with
  | rel -> Ok ({ result = rel; degradations = ctx.events }, ctx.intervals)
  | exception Eval_error e ->
      Error ("evaluation failed: " ^ Tempagg.Engine.error_to_string e)
  | exception Invalid_argument msg -> Error ("evaluation failed: " ^ msg)

let run plan =
  match evaluate plan with
  | Ok (o, _) -> o.result
  | Error msg -> failwith msg

let ( let* ) = Result.bind

(* Command-line overrides: --algorithm replaces the planned algorithm
   outright; --domains N (N > 1) wraps whatever was chosen in a parallel
   divide-and-conquer over N OCaml domains; --on-error replaces the
   recovery policy; --join-strategy pins the interval-join strategy
   (ignored for join-free queries). *)
let apply_overrides ?algorithm ?domains ?on_error ?join_strategy plan =
  let plan =
    match on_error with
    | None -> plan
    | Some p -> { plan with Semant.on_error = p }
  in
  let plan =
    match (join_strategy, plan.Semant.join) with
    | Some s, Some j ->
        {
          plan with
          Semant.join =
            Some
              {
                j with
                Semant.strategy = s;
                join_rationale =
                  Printf.sprintf "--join-strategy override: %s"
                    (Join.Engine.strategy_to_string s);
                join_stats_source = "--join-strategy override";
              };
        }
    | _ -> plan
  in
  let plan =
    match algorithm with
    | None -> plan
    | Some a ->
        {
          plan with
          Semant.algorithm = a;
          rationale =
            Printf.sprintf "--algorithm override: %s" (Tempagg.Engine.name a);
          stats_source = "--algorithm override";
        }
  in
  match domains with
  | Some d when d > 1 ->
      {
        plan with
        Semant.algorithm =
          Tempagg.Engine.Parallel { domains = d; inner = plan.Semant.algorithm };
        rationale =
          plan.Semant.rationale
          ^ Printf.sprintf "; sharded across %d domains (--domains)" d;
      }
  | _ -> plan

(* Harvest one outcome record into the statistics store after a
   successful run: what ran, how long it took, and — only when the plan
   was a plain scan of the relation — what the run proved about the
   relation itself.  The constant-interval count is the un-coalesced
   one: it depends on the relation's endpoints only, where the coalesced
   result size depends on the aggregate (MAX over a few salary levels
   coalesces to a handful of rows and would make the planner expect a
   tiny result for every later query).  A k-ordered tree completing
   without an order violation proves the evaluated stream k-ordered;
   that transfers to the relation only when the stream was the relation
   (bare tree, not a parallel shard whose per-shard success says nothing
   globally) and every aggregate consumed every tuple (a column
   aggregate skips SQL NULLs, and a subsequence can be *worse*-ordered
   than its source). *)
let record_outcome ?profile ?intervals catalog (plan : Semant.plan)
    ~elapsed_ms ~degradations _result =
  let bare_korder = function
    | Tempagg.Engine.Korder_tree { k } -> Some k
    | _ -> None
  in
  let full_streams =
    List.for_all
      (fun (s : Semant.agg_spec) -> s.Semant.column = None)
      plan.Semant.aggregates
  in
  let k_observed =
    if plan.Semant.plain_scan && degradations = 0 && full_streams then
      bare_korder plan.Semant.algorithm
    else None
  in
  let segments = if plan.Semant.plain_scan then intervals else None in
  Obs.Stats.record
    (Catalog.stats catalog plan.Semant.source_name)
    {
      Obs.Stats.cardinality = Trel.cardinality plan.Semant.relation;
      algorithm = Tempagg.Engine.name plan.Semant.algorithm;
      elapsed_ms;
      peak_bytes =
        (match profile with Some p -> Obs.Profile.peak_bytes p | None -> 0);
      k_observed;
      segments;
      degradations;
    }

(* What EXPLAIN ANALYZE prints about the plan itself. *)
let describe_plan profile (plan : Semant.plan) =
  Obs.Profile.set_plan profile
    ~algorithm:(Tempagg.Engine.name plan.Semant.algorithm)
    ~rationale:plan.Semant.rationale;
  Obs.Profile.set_stats_source profile plan.Semant.stats_source;
  Option.iter
    (fun (j : Semant.join_spec) ->
      Obs.Profile.set_join profile
        ~strategy:(Join.Engine.strategy_to_string j.Semant.strategy)
        ~rationale:j.Semant.join_rationale
        ~stats_source:j.Semant.join_stats_source)
    plan.Semant.join;
  (* The k the optimizer (or an override) settled on, when a k-ordered
     tree is anywhere in the plan. *)
  let rec k_of = function
    | Tempagg.Engine.Korder_tree { k } -> Some k
    | Tempagg.Engine.Parallel { inner; _ } -> k_of inner
    | _ -> None
  in
  Option.iter (Obs.Profile.set_k_estimate profile) (k_of plan.Semant.algorithm)

(* One "execute-plan" span: its duration is what the statistics store
   records and the rest of the profile's total. *)
let execute ?memory_budget ?deadline_ms ?profile catalog plan =
  Option.iter (fun p -> describe_plan p plan) profile;
  let result, us =
    Obs.Trace.timed "execute-plan" (fun () ->
        evaluate ?memory_budget ?deadline_ms ?profile plan)
  in
  Option.iter (fun p -> Obs.Profile.add_total p us) profile;
  let* outcome, intervals = match result with Ok r -> r | Error e -> raise e in
  Option.iter
    (fun p -> Obs.Profile.set_segments p (Trel.cardinality outcome.result))
    profile;
  record_outcome ?profile ~intervals catalog plan
    ~elapsed_ms:(Obs.Trace.to_ms us)
    ~degradations:(List.length outcome.degradations)
    outcome.result;
  Ok outcome

(* Parsing (for [prepare]) and analysis run in one "parse+analyze" span:
   the profile's first phase and the first part of its total. *)
let analyze ?(adaptive = true) ?algorithm ?domains ?on_error ?join_strategy
    ?profile catalog parse =
  let result, us =
    Obs.Trace.timed "parse+analyze" (fun () ->
        let* ast = parse () in
        let* plan = Semant.analyze ~adaptive catalog ast in
        Option.iter (fun p -> Obs.Profile.set_query p (Ast.to_string ast)) profile;
        Ok (apply_overrides ?algorithm ?domains ?on_error ?join_strategy plan))
  in
  Option.iter
    (fun p ->
      Obs.Profile.add_phase p "parse+analyze" us;
      Obs.Profile.add_total p us)
    profile;
  match result with Ok r -> r | Error e -> raise e

let plan ?adaptive ?algorithm ?domains ?on_error ?join_strategy ?profile
    catalog ast =
  analyze ?adaptive ?algorithm ?domains ?on_error ?join_strategy ?profile
    catalog (fun () -> Ok ast)

let prepare ?adaptive ?algorithm ?domains ?on_error ?join_strategy ?profile
    catalog text =
  analyze ?adaptive ?algorithm ?domains ?on_error ?join_strategy ?profile
    catalog (fun () -> Parser.parse text)

let query ?adaptive ?algorithm ?domains ?join_strategy catalog text =
  let* plan = prepare ?adaptive ?algorithm ?domains ?join_strategy catalog text in
  let* outcome = execute catalog plan in
  Ok outcome.result

let explain ?adaptive ?algorithm ?domains ?on_error ?join_strategy catalog
    text =
  let* plan =
    prepare ?adaptive ?algorithm ?domains ?on_error ?join_strategy catalog text
  in
  let join_scan =
    match plan.Semant.join with
    | None -> ""
    | Some j ->
        Printf.sprintf "; %s %s (%d tuples)%s on vt %s vt"
          (Join.Engine.strategy_to_string j.Semant.strategy)
          j.Semant.right_name
          (Trel.cardinality j.Semant.right_relation)
          (match j.Semant.right_shard_layout with
          | [] -> ""
          | layout ->
              Printf.sprintf " [%d shard(s): %d scanned, %d pruned]"
                (List.length layout) j.Semant.right_scanned
                j.Semant.right_pruned)
          (Join.Predicate.to_string j.Semant.predicate)
  in
  let join_why =
    match plan.Semant.join with
    | None -> ""
    | Some j ->
        Printf.sprintf "\n  join why: %s\n  join stats: %s"
          j.Semant.join_rationale j.Semant.join_stats_source
  in
  let grouping =
    match plan.Semant.granule with
    | None -> "by instant"
    | Some g ->
        Printf.sprintf "by span of %d instants"
          (g : Granule.t).Granule.length
  in
  Ok
    (Printf.sprintf
       "scan %s (%d tuples)%s%s%s; aggregate %s grouped %s%s using %s%s\n\
       \  why: %s"
       plan.Semant.source_name
       (Trel.cardinality plan.Semant.relation)
       ((match plan.Semant.window with
        | Some w -> Printf.sprintf " during %s" (Interval.to_string w)
        | None -> "")
       ^
       match plan.Semant.shard_layout with
       | [] -> ""
       | layout ->
           Printf.sprintf " [%d shard(s): %d scanned, %d pruned]"
             (List.length layout) plan.Semant.scanned_shards
             plan.Semant.pruned_shards)
       join_scan
       (if plan.Semant.sort_first then ", sort by time" else "")
       (String.concat ", "
          (List.map
             (fun (s : Semant.agg_spec) -> s.Semant.out_name)
             plan.Semant.aggregates))
       grouping
       (match plan.Semant.group_columns with
       | [] -> ""
       | cols ->
           Printf.sprintf " and by (%s)"
             (String.concat ", " (List.map fst cols)))
       (Tempagg.Engine.name plan.Semant.algorithm)
       (match plan.Semant.on_error with
       | Tempagg.Engine.Fail -> ""
       | p ->
           Printf.sprintf " (on error: %s)"
             (Tempagg.Engine.on_error_to_string p))
       plan.Semant.rationale
     ^ join_why
     ^ Printf.sprintf "\n  stats: %s" plan.Semant.stats_source)
