open Temporal

type algorithm =
  | Linked_list
  | Aggregation_tree
  | Korder_tree of { k : int }
  | Balanced_tree
  | Two_scan
  | Sweep
  | Parallel of { domains : int; inner : algorithm }

let rec name = function
  | Linked_list -> "linked-list"
  | Aggregation_tree -> "aggregation-tree"
  | Korder_tree { k } -> Printf.sprintf "ktree(%d)" k
  | Balanced_tree -> "balanced-tree"
  | Two_scan -> "two-scan"
  | Sweep -> "sweep"
  | Parallel { domains; inner } ->
      Printf.sprintf "parallel(%d,%s)" domains (name inner)

let of_string s =
  (* Accept underscores for contexts (like TSQL identifiers) where hyphens
     cannot appear. *)
  let s = String.map (function '_' -> '-' | c -> c) s in
  let err s =
    Error
      (Printf.sprintf
         "unknown algorithm %S (expected linked-list, aggregation-tree, \
          ktree(K), balanced-tree, two-scan, sweep or parallel(D[,ALGO]))"
         s)
  in
  (* The body of [prefix(body)], when [s] has that shape. *)
  let paren_body s prefix =
    let lp = String.length prefix in
    if
      String.length s > lp + 1
      && String.sub s 0 lp = prefix
      && s.[String.length s - 1] = ')'
    then Some (String.sub s lp (String.length s - lp - 1))
    else None
  in
  let rec go s =
    match s with
    | "linked-list" -> Ok Linked_list
    | "aggregation-tree" -> Ok Aggregation_tree
    | "balanced-tree" -> Ok Balanced_tree
    | "two-scan" -> Ok Two_scan
    | "sweep" -> Ok Sweep
    | _ -> (
        match paren_body s "ktree(" with
        | Some body -> (
            match int_of_string_opt body with
            | Some k when k >= 0 -> Ok (Korder_tree { k })
            | Some k ->
                Error
                  (Printf.sprintf
                     "ktree(%d): k must be non-negative (k is a bound on how \
                      far a tuple may sit from its sorted position)"
                     k)
            | None -> err s)
        | None -> (
            match paren_body s "parallel(" with
            | None -> err s
            | Some body -> (
                (* parallel(D) defaults the inner algorithm to the sweep;
                   parallel(D,ALGO) nests, e.g. parallel(4,ktree(1)). *)
                let domains_str, inner =
                  match String.index_opt body ',' with
                  | None -> (body, Ok Sweep)
                  | Some i ->
                      ( String.sub body 0 i,
                        go
                          (String.trim
                             (String.sub body (i + 1)
                                (String.length body - i - 1))) )
                in
                match int_of_string_opt (String.trim domains_str) with
                | Some d when d >= 1 ->
                    Result.map
                      (fun inner -> Parallel { domains = d; inner })
                      inner
                | Some d ->
                    Error
                      (Printf.sprintf
                         "parallel(%d): the domain count must be at least 1" d)
                | None -> err s)))
  in
  go s

let all =
  [ Linked_list; Aggregation_tree; Korder_tree { k = 1 }; Balanced_tree;
    Two_scan; Sweep; Parallel { domains = 2; inner = Sweep } ]

let rec node_bytes = function
  | Balanced_tree -> Balanced_tree.node_bytes
  | Parallel { inner; _ } -> node_bytes inner
  | Linked_list | Aggregation_tree | Korder_tree _ | Two_scan | Sweep -> 16

let rec eval : type v s r.
    ?origin:Chronon.t ->
    ?horizon:Chronon.t ->
    ?instrument:Instrument.t ->
    ?shard_offsets:int array ->
    algorithm ->
    (v, s, r) Monoid.t ->
    (Interval.t * v) Seq.t ->
    r Timeline.t =
 fun ?origin ?horizon ?instrument ?shard_offsets algorithm monoid data ->
  let run () =
    match algorithm with
    | Linked_list -> Linked_list.eval ?origin ?horizon ?instrument monoid data
    | Aggregation_tree -> Agg_tree.eval ?origin ?horizon ?instrument monoid data
    | Korder_tree { k } ->
        Korder_tree.eval ?origin ?horizon ?instrument ~k monoid data
    | Balanced_tree ->
        Balanced_tree.eval ?origin ?horizon ?instrument monoid data
    | Two_scan -> Two_scan.eval ?origin ?horizon ?instrument monoid data
    | Sweep -> Sweep.eval ?origin ?horizon ?instrument monoid data
    | Parallel { domains; inner } ->
        (* Shards evaluate to state timelines (output deferred) so that the
           pairwise merge can run under the monoid's combine.
           [shard_offsets] applies to this outermost parallel level only:
           it aligns evaluation shards with a partitioned relation's
           storage shards; a nested Parallel re-slices its own shard. *)
        let state_monoid = { monoid with Monoid.output = Fun.id } in
        Parallel.eval ?instrument ?offsets:shard_offsets ~domains
          ~eval_shard:(fun ~instrument shard ->
            eval ?origin ?horizon ?instrument inner state_monoid shard)
          monoid (Array.of_seq data)
  in
  Obs.Trace.with_span ~attrs:[ ("algorithm", name algorithm) ] "eval" run

let eval_with_stats ?origin ?horizon ?shard_offsets algorithm monoid data =
  let inst = Instrument.create ~node_bytes:(node_bytes algorithm) () in
  let timeline =
    eval ?origin ?horizon ~instrument:inst ?shard_offsets algorithm monoid data
  in
  (timeline, Instrument.snapshot inst)

(* ------------------------------------------------------------------ *)
(* Robust evaluation: budgets, deadlines and declarative fallbacks.   *)
(* ------------------------------------------------------------------ *)

type on_error = Fail | Fallback | Skip

let on_error_to_string = function
  | Fail -> "fail"
  | Fallback -> "fallback"
  | Skip -> "skip"

let on_error_of_string = function
  | "fail" -> Ok Fail
  | "fallback" -> Ok Fallback
  | "skip" -> Ok Skip
  | s ->
      Error
        (Printf.sprintf
           "unknown on-error policy %S (expected fail, fallback or skip)" s)

type degradation = { stage : string; reason : string; action : string }

let degradation_to_string { stage; reason; action } =
  Printf.sprintf "%s: %s; %s" stage reason action

type error =
  | Not_k_ordered of { position : int }
  | Budget_exhausted of { budget_bytes : int; used_bytes : int }
  | Deadline_exhausted of { deadline_ms : float; elapsed_ms : float }
  | Eval_failed of string

let error_to_string = function
  | Not_k_ordered { position } ->
      Printf.sprintf
        "input is not k-ordered (tuple %d starts before the emitted \
         frontier); sort the relation, raise k, or use --on-error \
         fallback/skip"
        position
  | Budget_exhausted { budget_bytes; used_bytes } ->
      Printf.sprintf "memory budget exhausted (%d bytes live, budget %d)"
        used_bytes budget_bytes
  | Deadline_exhausted { deadline_ms; elapsed_ms } ->
      Printf.sprintf "deadline exceeded (%.1f ms elapsed, deadline %.1f ms)"
        elapsed_ms deadline_ms
  | Eval_failed msg -> msg

let reason_of_exn = function
  | Korder_tree.Order_violation { position; _ } ->
      Printf.sprintf
        "input not k-ordered (tuple %d starts before the emitted frontier)"
        position
  | Guard.Budget_exceeded { budget_bytes; used_bytes } ->
      Printf.sprintf "memory budget exceeded (%d of %d bytes)" used_bytes
        budget_bytes
  | Guard.Deadline_exceeded { deadline_ms; elapsed_ms } ->
      Printf.sprintf "deadline exceeded (%.1f of %.1f ms)" elapsed_ms
        deadline_ms
  | Invalid_argument msg -> msg
  | e -> Printexc.to_string e

let error_of_exn = function
  | Korder_tree.Order_violation { position; _ } -> Not_k_ordered { position }
  | Guard.Budget_exceeded { budget_bytes; used_bytes } ->
      Budget_exhausted { budget_bytes; used_bytes }
  | Guard.Deadline_exceeded { deadline_ms; elapsed_ms } ->
      Deadline_exhausted { deadline_ms; elapsed_ms }
  | Invalid_argument msg -> Eval_failed msg
  | e -> raise e

(* The k-ordered tree retries at most up to this k before conceding that
   the input is essentially unsorted and the aggregation tree (which
   needs no order at all) is the right tool. *)
let k_retry_cap = 4096

(* The declarative fallback chain: which algorithm to try next after
   [alg] failed with [exn], or [None] when the failure is terminal.
   Deadlines are always terminal — retrying cannot recover time already
   spent. *)
let rec fallback_step exn alg =
  match (alg, exn) with
  | Korder_tree { k }, Korder_tree.Order_violation _ ->
      let k' = if k = 0 then 1 else 2 * k in
      if k' <= k_retry_cap then Some (Korder_tree { k = k' })
      else Some Aggregation_tree
  | ( (Linked_list | Aggregation_tree | Korder_tree _ | Balanced_tree | Two_scan),
      Guard.Budget_exceeded _ ) ->
      (* The flat sweep allocates one slot per distinct endpoint — the
         cheapest memory profile of any algorithm here. *)
      Some Sweep
  | Parallel { domains; inner }, exn ->
      Option.map
        (fun inner -> Parallel { domains; inner })
        (fallback_step exn inner)
  | _ -> None

(* Inline recovery for a single failed shard of a parallel evaluation:
   order violations re-run under the order-oblivious aggregation tree,
   blown budgets under the flat sweep.  Anything else (deadline, real
   bugs) is terminal and propagates. *)
let shard_fallback_algorithm = function
  | Korder_tree.Order_violation _ -> Aggregation_tree
  | Guard.Budget_exceeded _ -> Sweep
  | e -> raise e

let eval_robust : type v s r.
    ?origin:Chronon.t ->
    ?horizon:Chronon.t ->
    ?on_error:on_error ->
    ?memory_budget:int ->
    ?deadline_ms:float ->
    ?profile:Obs.Profile.t ->
    ?shard_offsets:int array ->
    algorithm ->
    (v, s, r) Monoid.t ->
    (Interval.t * v) Seq.t ->
    (r Timeline.t * degradation list, error) result =
 fun ?origin ?horizon ?(on_error = Fallback) ?memory_budget ?deadline_ms
     ?profile ?shard_offsets algorithm monoid data ->
  (* Materialize once so every retry sees the same tuples even if the
     caller's Seq is ephemeral (e.g. a single-pass storage scan).  Only
     a retry (a policy other than [Fail]) or a profile (which reports
     the tuple count) needs the copy; otherwise the one attempt consumes
     the caller's sequence directly, as a plain [eval] does.  A
     [Parallel] attempt shards this one copy in place. *)
  let tuples =
    if on_error = Fail && profile = None then None
    else
      match Obs.Trace.timed "materialize" (fun () -> Array.of_seq data) with
      | Ok tuples, us ->
          Option.iter
            (fun p ->
              Obs.Profile.set_tuples p (Array.length tuples);
              Obs.Profile.add_phase p "materialize" us)
            profile;
          Some tuples
      | Error e, _ -> raise e
  in
  let data = match tuples with Some a -> Array.to_seq a | None -> data in
  let guard = Guard.create ?memory_budget ?deadline_ms () in
  let degradations = ref [] in
  let note ~stage ~reason ~action =
    let d = { stage; reason; action } in
    degradations := d :: !degradations;
    Option.iter
      (fun p -> Obs.Profile.note_degradation p (degradation_to_string d))
      profile
  in
  (* One attempt with algorithm [alg], under [guard].  Returns the
     failure; the caller decides whether the policy and chain allow a
     retry. *)
  let attempt alg =
    (* With no limits configured and no profile requested, skip the
       instrument entirely so the happy path costs exactly what a plain
       [eval] does (the <3% guard-overhead bar in the bench's [guard]
       section). *)
    let inst =
      if Guard.unlimited guard && profile = None then None
      else begin
        let i = Instrument.create ~node_bytes:(node_bytes alg) () in
        (* Parallel shards inherit this instrument's hook and run
           concurrently, so each shard is held to an equal split of the
           memory budget (their live bytes add up); the deadline clock
           is shared.  An unlimited guard attaches no hook. *)
        Guard.attach
          (match alg with
          | Parallel { domains; _ } ->
              Guard.split guard
                (match shard_offsets with
                | Some o -> Stdlib.max 1 (Array.length o - 1)
                | None -> domains)
          | _ -> guard)
          i;
        Some i
      end
    in
    let data () = Guard.wrap_seq guard data in
    let body () =
      match (alg, tuples) with
      | Korder_tree { k }, _ when on_error = Skip ->
          (* Skip mode: drop (and count) each misordered tuple instead of
             abandoning the k-ordered tree. *)
          let t =
            Korder_tree.create ?origin ?horizon ?instrument:inst ~k monoid
          in
          let skipped = ref 0 in
          Seq.iter
            (fun (iv, v) ->
              match Korder_tree.insert t iv v with
              | () -> ()
              | exception Korder_tree.Order_violation _ -> incr skipped)
            (data ());
          let timeline = Korder_tree.finish t in
          if !skipped > 0 then
            note ~stage:(name alg) ~reason:"input not k-ordered"
              ~action:(Printf.sprintf "skipped %d misordered tuples" !skipped);
          timeline
      | Parallel { domains; inner }, Some tuples ->
          (* Each shard wraps its slice for the per-tuple deadline checks. *)
          let state_monoid = { monoid with Monoid.output = Fun.id } in
          let fallback_shard ~shard ~exn ~instrument shard_data =
            let fb = shard_fallback_algorithm exn in
            note
              ~stage:(Printf.sprintf "%s shard %d" (name inner) shard)
              ~reason:(reason_of_exn exn)
              ~action:(Printf.sprintf "re-evaluated inline with %s" (name fb));
            eval ?origin ?horizon ?instrument fb state_monoid
              (Guard.wrap_seq guard shard_data)
          in
          Parallel.eval ?instrument:inst
            ?fallback_shard:
              (if on_error = Fail then None else Some fallback_shard)
            ?offsets:shard_offsets ~domains
            ~eval_shard:(fun ~instrument shard ->
              eval ?origin ?horizon ?instrument inner state_monoid
                (Guard.wrap_seq guard shard))
            monoid tuples
      | _ ->
          eval ?origin ?horizon ?instrument:inst ?shard_offsets alg monoid
            (data ())
    in
    let result, us =
      Obs.Trace.timed ~attrs:[ ("algorithm", name alg) ] "attempt" body
    in
    (* Record the attempt in the profile whether it succeeded or not:
       a failed attempt's instrument snapshot used to vanish with the
       exception, under-reporting peak memory for fallback chains. *)
    (match (profile, inst) with
    | Some p, Some i ->
        let s = Instrument.snapshot i in
        Obs.Profile.add_attempt p ~algorithm:(name alg)
          ~outcome:(match result with Ok _ -> "ok" | Error e -> reason_of_exn e)
          ~allocated_nodes:s.Instrument.allocated
          ~peak_live:s.Instrument.peak_live ~node_bytes:s.Instrument.node_bytes
          ~peak_bytes:s.Instrument.peak_bytes ~elapsed_ms:(Obs.Trace.to_ms us)
    | _ -> ());
    result
  in
  let rec go alg =
    match attempt alg with
    | Ok timeline -> Ok (timeline, List.rev !degradations)
    | Error e -> (
        match (on_error, fallback_step e alg) with
        | (Fallback | Skip), Some alg' ->
            note ~stage:(name alg) ~reason:(reason_of_exn e)
              ~action:("retrying with " ^ name alg');
            go alg'
        | _ -> Error (error_of_exn e))
  in
  let result, us =
    Obs.Trace.timed ~attrs:[ ("algorithm", name algorithm) ] "eval-robust"
      (fun () -> go algorithm)
  in
  Option.iter (fun p -> Obs.Profile.add_phase p "evaluate" us) profile;
  match result with Ok r -> r | Error e -> raise e
