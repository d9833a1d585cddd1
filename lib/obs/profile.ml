(* EXPLAIN-ANALYZE-style per-query report.

   The profile is a mutable builder that the engine and the TSQL
   planner fill in as a query executes: the plan and its rationale from
   the optimizer, one attempt record per evaluation (including the ones
   a fallback chain aborted — their instrument snapshots land here
   instead of being dropped), degradations, phase timings, I/O counters
   and output size.  The profile reads no clock: every duration it
   holds is the duration of a span, handed over by [Trace.timed] at the
   call site, in microseconds.  Aggregate memory numbers fold attempts as
   *sequential* retries: allocations sum, peaks take the max — unlike
   Instrument.absorb, whose sum-of-peaks models concurrent shards. *)

type attempt = {
  algorithm : string;
  outcome : string;  (* "ok" or the failure reason *)
  allocated_nodes : int;
  peak_live : int;
  node_bytes : int;
  peak_bytes : int;
  elapsed_ms : float;
}

type io = {
  pages_read : int;
  pages_written : int;
  io_retries : int;
  corrupt_pages : int;
}

type t = {
  mutable query : string option;
  mutable algorithm : string option;
  mutable rationale : string option;
  mutable stats_source : string option;
  mutable join_strategy : string option;
  mutable join_rationale : string option;
  mutable join_stats_source : string option;
  mutable k_estimate : int option;
  mutable tuples : int option;
  mutable attempts_rev : attempt list;
  mutable degradations_rev : string list;
  mutable phases : (string * int) list;  (* label, total µs; first seen first *)
  mutable allocated_nodes : int;
  mutable peak_live : int;
  mutable node_bytes : int;
  mutable peak_bytes : int;
  mutable segments : int option;
  mutable io : io option;
  mutable total_us : int option;  (* sum of the query's top-level spans *)
}

let create () =
  {
    query = None;
    algorithm = None;
    rationale = None;
    stats_source = None;
    join_strategy = None;
    join_rationale = None;
    join_stats_source = None;
    k_estimate = None;
    tuples = None;
    attempts_rev = [];
    degradations_rev = [];
    phases = [];
    allocated_nodes = 0;
    peak_live = 0;
    node_bytes = 0;
    peak_bytes = 0;
    segments = None;
    io = None;
    total_us = None;
  }

let set_query t q = t.query <- Some q

let set_plan t ~algorithm ~rationale =
  t.algorithm <- Some algorithm;
  t.rationale <- Some rationale

let set_stats_source t s = t.stats_source <- Some s
let stats_source t = t.stats_source

let set_join t ~strategy ~rationale ~stats_source =
  t.join_strategy <- Some strategy;
  t.join_rationale <- Some rationale;
  t.join_stats_source <- Some stats_source
let set_k_estimate t k = t.k_estimate <- Some k
let set_tuples t n = t.tuples <- Some n
let set_segments t n = t.segments <- Some n
let add_total t us = t.total_us <- Some (Option.value t.total_us ~default:0 + us)

let set_io t ~pages_read ~pages_written ~retries ~corrupt_pages =
  t.io <- Some { pages_read; pages_written; io_retries = retries; corrupt_pages }

let add_attempt t ~algorithm ~outcome ~allocated_nodes ~peak_live ~node_bytes
    ~peak_bytes ~elapsed_ms =
  t.attempts_rev <-
    { algorithm; outcome; allocated_nodes; peak_live; node_bytes; peak_bytes;
      elapsed_ms }
    :: t.attempts_rev;
  t.allocated_nodes <- t.allocated_nodes + allocated_nodes;
  t.peak_live <- max t.peak_live peak_live;
  t.peak_bytes <- max t.peak_bytes peak_bytes;
  if node_bytes > 0 then t.node_bytes <- node_bytes

let note_degradation t d = t.degradations_rev <- d :: t.degradations_rev

(* Phases accumulate by label (a fallback chain materializes once but
   may evaluate several times); first-seen order is preserved. *)
let add_phase t label us =
  let rec bump = function
    | [] -> [ (label, us) ]
    | (l, total) :: rest when l = label -> (l, total + us) :: rest
    | entry :: rest -> entry :: bump rest
  in
  t.phases <- bump t.phases

let attempts t = List.rev t.attempts_rev
let degradations t = List.rev t.degradations_rev
let allocated_nodes t = t.allocated_nodes
let peak_live t = t.peak_live
let peak_bytes t = t.peak_bytes
let segments t = t.segments

let to_string t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  Option.iter (fun q -> line "query: %s" q) t.query;
  Option.iter (fun a -> line "plan: %s" a) t.algorithm;
  Option.iter (fun r -> line "  why: %s" r) t.rationale;
  Option.iter (fun s -> line "  stats: %s" s) t.stats_source;
  Option.iter (fun s -> line "join: %s" s) t.join_strategy;
  Option.iter (fun r -> line "  join why: %s" r) t.join_rationale;
  Option.iter (fun s -> line "  join stats: %s" s) t.join_stats_source;
  Option.iter (fun k -> line "  k estimate: %d" k) t.k_estimate;
  Option.iter (fun n -> line "input: %d tuple(s)" n) t.tuples;
  (match attempts t with
  | [] -> ()
  | attempts ->
      line "attempts:";
      List.iteri
        (fun i (a : attempt) ->
          line "  %d. %-18s %-10s %9.3f ms  allocated_nodes=%d peak_bytes=%d"
            (i + 1) a.algorithm a.outcome a.elapsed_ms a.allocated_nodes
            a.peak_bytes)
        attempts);
  (match degradations t with
  | [] -> ()
  | ds ->
      line "degradations:";
      List.iter (fun d -> line "  - %s" d) ds);
  (* The total's time that no phase span claims: phases nest inside
     the top-level spans, so the row is never negative. *)
  let attributed = List.fold_left (fun acc (_, us) -> acc + us) 0 t.phases in
  let unattributed =
    Option.map
      (fun total -> ("unattributed", max 0 (total - attributed)))
      t.total_us
  in
  (match t.phases @ Option.to_list unattributed with
  | [] -> ()
  | ps ->
      line "phases:";
      List.iter (fun (l, us) -> line "  %-14s %9.3f ms" l (Trace.to_ms us)) ps);
  line "memory: allocated_nodes=%d peak_live=%d node_bytes=%d peak_bytes=%d"
    t.allocated_nodes t.peak_live t.node_bytes t.peak_bytes;
  Option.iter
    (fun io ->
      line "io: pages_read=%d pages_written=%d retries=%d corrupt_pages=%d"
        io.pages_read io.pages_written io.io_retries io.corrupt_pages)
    t.io;
  Option.iter (fun n -> line "output: %d segment(s)" n) t.segments;
  Option.iter (fun us -> line "total: %.3f ms" (Trace.to_ms us)) t.total_us;
  Buffer.contents buf
