(* The correctness gate, run after the timed phase and never timed.

   Every reply is compared, by digest, with an in-process Tsql.Session
   replay of the same statement sequence against the same input files.
   A seeded sample of replies is also parsed back into rows and checked
   at seeded instants against the per-instant snapshot oracle
   (Tempagg.Snapshot.at), computed from the benchmark's own copy of the
   input and its own record of the writes. *)

open Temporal
open Relation

(* The reply payload exactly as the server frames it. *)
let payload_lines = function
  | Tsql.Session.Ack msg -> String.split_on_char '\n' msg
  | Tsql.Session.Rows rel ->
      List.filter (fun l -> l <> "")
        (String.split_on_char '\n' (Tsql.Pretty.result_to_string rel))

(* A session configured like the server's per-connection session: the
   built-in catalog plus heap relations, a private statistics store, the
   default 128-entry query cache, adaptive planning, and every partition
   directory loaded as a live partitioned base.  [on_load] receives the
   duration of each relation load. *)
let session ?(on_load = fun _ -> ()) bindings =
  let parts, files =
    List.partition (fun (_, p) -> Storage.Partition.is_partition_dir p) bindings
  in
  let catalog =
    List.fold_left
      (fun cat (name, path) ->
        let rel, ns =
          Clock.timed (fun () ->
              Storage.Heap_file.read_relation ~stats:(Storage.Io_stats.create ())
                path)
        in
        on_load ns;
        Tsql.Catalog.add cat name rel)
      (Tsql.Catalog.with_builtins ())
      files
  in
  let s =
    Tsql.Session.create ~cache_capacity:128 ~adaptive:true
      (Tsql.Catalog.with_store catalog (Obs.Stats.create_store ()))
  in
  List.iter
    (fun (name, dir) ->
      let (), ns =
        Clock.timed (fun () ->
            Tsql.Session.add_partition s name (Storage.Partition.load dir))
      in
      on_load ns)
    parts;
  s

let run_statement s text =
  match Tsql.Session.exec s text with
  | Ok outcome -> Ok (Loop.digest_lines (payload_lines outcome))
  | Error msg -> Error msg
  | exception e -> Error ("internal error: " ^ Printexc.to_string e)

(* Plain replay.  A read repeated with no write since is answered from
   the first run: the data it reads is unchanged,
   so its answer must be too. *)
let plain_replay s =
  let memo = Hashtbl.create 16 in
  fun (stmt : Workloads.stmt) ->
    match stmt with
    | Workloads.Read { text; _ } -> (
        match Hashtbl.find_opt memo text with
        | Some r -> r
        | None ->
            let r = run_statement s text in
            Hashtbl.replace memo text r;
            r)
    | _ ->
        Hashtbl.reset memo;
        run_statement s (Workloads.text stmt)

(* ---- the snapshot oracle ---- *)

let chronon_of_string = function
  | "oo" -> Some Chronon.forever
  | s -> Option.map Chronon.of_int (int_of_string_opt s)

let parse_interval cell =
  let n = String.length cell in
  if n < 5 || cell.[0] <> '[' || cell.[n - 1] <> ']' then None
  else
    match String.split_on_char ',' (String.sub cell 1 (n - 2)) with
    | [ a; b ] -> (
        match (chronon_of_string a, chronon_of_string b) with
        | Some a, Some b when Chronon.(a <= b) -> Some (Interval.make a b)
        | _ -> None)
    | _ -> None

(* Rows of a rendered result table: the value cells and the valid
   interval of each data row (rule lines and the header skipped). *)
let parse_rows lines =
  let cells line =
    match String.split_on_char '|' line with
    | "" :: rest -> (
        match List.rev rest with
        | "" :: cells -> Some (List.rev_map String.trim cells)
        | _ -> None)
    | _ -> None
  in
  match List.filter (fun l -> String.length l > 0 && l.[0] = '|') lines with
  | [] -> Error "no header row"
  | _header :: rows ->
      List.fold_right
        (fun line acc ->
          Result.bind acc (fun parsed ->
              match Option.map List.rev (cells line) with
              | Some (valid :: rev_values) -> (
                  match parse_interval valid with
                  | Some iv -> Ok ((List.rev rev_values, iv) :: parsed)
                  | None -> Error ("bad interval cell " ^ valid))
              | _ -> Error ("malformed row " ^ line)))
        rows (Ok [])

let oracle_value agg tuples at =
  let module M = Tempagg.Monoid in
  let at = Chronon.of_int at in
  let opt = function None -> Value.Null | Some v -> Value.Int v in
  match (agg : Workloads.agg) with
  | Count_star -> Value.Int (Tempagg.Snapshot.at ~at M.count tuples)
  | Sum -> Value.Int (Tempagg.Snapshot.at ~at M.sum_int tuples)
  | Min -> opt (Tempagg.Snapshot.at ~at M.min_int tuples)
  | Max -> opt (Tempagg.Snapshot.at ~at M.max_int tuples)
  | Avg -> (
      match Tempagg.Snapshot.at ~at M.avg_int tuples with
      | None -> Value.Null
      | Some f -> Value.Float f)

(* A rendered cell against the oracle's value; floats are printed with
   six significant digits. *)
let cell_matches v cell =
  match v with
  | Value.Int n -> cell = string_of_int n
  | Value.Null -> cell = ""
  | Value.Float f -> (
      match float_of_string_opt cell with
      | Some g -> Float.abs (g -. f) <= (1e-5 *. Float.abs f) +. 1e-9
      | None -> false)
  | Value.Str s -> cell = s

(* Check one sampled reply: the rows tile the queried range without gaps,
   adjacent rows differ (the result is coalesced), and at three seeded
   instants every aggregate equals the snapshot oracle's. *)
let check_rows ~seed ~aggs ~window ~tuples payload =
  let ( let* ) = Result.bind in
  let* rows = parse_rows payload in
  let lo, hi =
    match window with
    | Some (a, b) -> (Chronon.of_int a, Chronon.of_int b)
    | None -> (Chronon.origin, Chronon.forever)
  in
  let* () =
    match rows with
    | [] -> Error "empty result"
    | (_, first) :: _ ->
        let rec tiles = function
          | (v1, i1) :: ((v2, i2) :: _ as rest) ->
              if not (Chronon.equal (Chronon.succ (Interval.stop i1)) (Interval.start i2))
              then Error "rows leave a gap or overlap"
              else if v1 = v2 && not (List.mem Workloads.Avg aggs) then
                (* Floats print with six digits: distinct averages can
                   render alike. *)
                Error "adjacent rows are not coalesced"
              else tiles rest
          | [ (_, last) ] ->
              if Chronon.equal (Interval.start first) lo
                 && Chronon.equal (Interval.stop last) hi
              then Ok ()
              else Error "rows do not cover the queried range"
          | [] -> Ok ()
        in
        tiles rows
  in
  let prng = Workload.Prng.create ~seed in
  let a, b =
    match window with
    | Some w -> w
    | None -> (0, Workloads.lifespan + 1_000)
  in
  let rec instants n =
    if n = 0 then Ok ()
    else
      let at = Workload.Prng.int_in prng ~lo:a ~hi:b in
      match
        List.find_opt (fun (_, iv) -> Interval.contains iv (Chronon.of_int at)) rows
      with
      | None -> Error (Printf.sprintf "no row covers instant %d" at)
      | Some (cells, _) ->
          if List.length cells <> List.length aggs then
            Error "wrong number of columns"
          else
            let bad =
              List.find_opt
                (fun (agg, cell) -> not (cell_matches (oracle_value agg tuples at) cell))
                (List.combine aggs cells)
            in
            (match bad with
            | Some (agg, cell) ->
                Error
                  (Printf.sprintf "%s = %S at instant %d; the oracle says %s"
                     (Workloads.agg_text agg) cell at
                     (Value.to_string (oracle_value agg tuples at)))
            | None -> instants (n - 1))
  in
  instants 3

(* ---- verdicts ---- *)

type verdict = { checked : int; oracle_checked : int; failures : (int * string) list }

(* Judge the records in sequence order.  [replay] answers each record's
   statement in-process; the oracle's copy of the relation starts from
   [base] and follows the statements' writes. *)
let judge ~seed ~base ~replay (records : Loop.record list) =
  let live = Hashtbl.create (Array.length base) in
  Array.iter (fun (id, iv, s) -> Hashtbl.replace live id (iv, s)) base;
  (* The live tuples as an array, rebuilt only after a write. *)
  let snapshot = ref None in
  let tuples () =
    match !snapshot with
    | Some a -> a
    | None ->
        let a = Array.of_seq (Hashtbl.to_seq_values live) in
        snapshot := Some a;
        a
  in
  let oracle_checked = ref 0 in
  let failures =
    List.concat
      (List.mapi
         (fun i (r : Loop.record) ->
           let replayed = replay r in
           (match r.Loop.stmt with
           | Workloads.Insert { id; valid; salary; _ } ->
               Hashtbl.replace live id (valid, salary);
               snapshot := None
           | Workloads.Delete { id; _ } ->
               Hashtbl.remove live id;
               snapshot := None
           | _ -> ());
           let digest_verdict =
             match (r.Loop.outcome, replayed) with
             | Loop.Failure msg, _ -> [ msg ]
             | Loop.Answer { digest; _ }, Ok d when Digest.equal d digest -> []
             | Loop.Answer _, Ok _ ->
                 [ "wrong answer: reply differs from the in-process replay" ]
             | Loop.Answer _, Error msg ->
                 [ "the in-process replay failed: " ^ msg ]
           in
           let oracle_verdict =
             match (r.Loop.stmt, r.Loop.outcome) with
             | Workloads.Read { aggs; window; _ }, Loop.Answer { payload = Some p; _ }
               -> (
                 incr oracle_checked;
                 let tuples = Array.to_seq (tuples ()) in
                 match
                   check_rows ~seed:(Hashtbl.hash (seed, i)) ~aggs ~window
                     ~tuples p
                 with
                 | Ok () -> []
                 | Error msg -> [ "wrong answer (oracle): " ^ msg ])
             | _ -> []
           in
           List.map
             (fun msg -> (i, Workloads.text r.Loop.stmt ^ ": " ^ msg))
             (digest_verdict @ oracle_verdict))
         records)
  in
  { checked = List.length records; oracle_checked = !oracle_checked; failures }
