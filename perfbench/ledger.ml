(* The traced run's per-layer ledger.

   After the TCP phase, the statements are replayed in-process and every call into a layer's public function is timed
   from here: Parser.parse_statement, Session.catalog, Semant.analyze,
   Eval.run, Pretty.result_to_string and Protocol.encode on the path a
   server worker takes for a base-relation SELECT; Session.exec_statement
   for view reads and writes.  Nested layers are timed by repeating their
   part of the work on the same inputs, outside the statement's blocking
   path: Tempagg.Engine.eval and Timeline.coalesce on the plan's clipped
   input (their answer must be the relation Eval.run returned, or the
   statement counts as failed), and a write's Storage.Partition and Live.View work on the
   benchmark's own partition copy and views.  The spans go to a Chrome
   trace file; the self-time table splits the mean TCP latency across
   the layers and shows what no layer claims as net.unattributed. *)

open Temporal
open Relation

type acc = { mutable ns : int; mutable calls : int }

type t = {
  epoch_ns : int;
  mutable spans : Obs.Trace.span list;
  mutable next_id : int;
  accs : (string, acc) Hashtbl.t;
  mutable recording : bool;
  (* Counters over the timed statements of the traced prefix. *)
  mutable statements : int;
  mutable tcp_ns : int;
  mutable inproc_ns : int;
  mutable reply_bytes : int;
  mutable replies : int;
  mutable examined : int;
  mutable result_rows : int;
  mutable shards_scanned : int;
  mutable shards_pruned : int;
  mutable peak_bytes : int;
  mutable base_reads : int;
  (* Counters over every timed statement of the run. *)
  mutable run_statements : int;
  mutable pages_read : int;
  mutable pages_written : int;
  mutable inserts : int;
  mutable cache_hits : int;
  mutable cache_lookups : int;
}

let create () =
  {
    epoch_ns = Clock.now_ns ();
    spans = [];
    next_id = 1;
    accs = Hashtbl.create 32;
    recording = false;
    statements = 0;
    tcp_ns = 0;
    inproc_ns = 0;
    reply_bytes = 0;
    replies = 0;
    examined = 0;
    result_rows = 0;
    shards_scanned = 0;
    shards_pruned = 0;
    peak_bytes = 0;
    base_reads = 0;
    run_statements = 0;
    pages_read = 0;
    pages_written = 0;
    inserts = 0;
    cache_hits = 0;
    cache_lookups = 0;
  }

let acc t label =
  match Hashtbl.find_opt t.accs label with
  | Some a -> a
  | None ->
      let a = { ns = 0; calls = 0 } in
      Hashtbl.replace t.accs label a;
      a

let add t label ns =
  let a = acc t label in
  a.ns <- a.ns + ns;
  a.calls <- a.calls + 1

let us t ns = (ns - t.epoch_ns) / 1000

(* Time [f] as one call into the layer [label], recorded as a span under
   [parent] when the ledger is recording.  Returns the result and the
   duration. *)
let span t ?parent ~trace label f =
  let t0 = Clock.now_ns () in
  let r = f () in
  let t1 = Clock.now_ns () in
  if t.recording then begin
    add t label (t1 - t0);
    let id = t.next_id in
    t.next_id <- id + 1;
    t.spans <-
      {
        Obs.Trace.id;
        parent;
        label;
        trace;
        domain = 0;
        start_us = us t t0;
        stop_us = us t t1;
        attrs = [];
      }
      :: t.spans
  end;
  (r, t1 - t0)

(* ---- nested layers, re-run on the plan's clipped input ---- *)

let take n l =
  let rec go n acc l =
    if n = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: tl -> go (n - 1) (x :: acc) tl
  in
  go n [] l

(* The tuples Eval.run feeds the engine, block by storage shard: shards
   outside the window skipped, WHERE applied, valid times clipped. *)
let clipped_blocks (plan : Tsql.Semant.plan) =
  let keep tu =
    if not (plan.Tsql.Semant.filter tu) then None
    else
      match plan.Tsql.Semant.window with
      | None -> Some tu
      | Some w ->
          Option.map (Tuple.with_valid tu) (Interval.intersect (Tuple.valid tu) w)
  in
  let all = Trel.tuples plan.Tsql.Semant.relation in
  match plan.Tsql.Semant.shard_layout with
  | [] -> ([ List.filter_map keep all ], List.length all)
  | layout ->
      let rec split tuples examined = function
        | [] -> ([], examined)
        | (span, count) :: rest ->
            let block, tail = take count tuples in
            let kept, examined =
              match plan.Tsql.Semant.window with
              | Some w when not (Interval.overlaps span w) -> ([], examined)
              | _ -> (List.filter_map keep block, examined + count)
            in
            let blocks, examined = split tail examined rest in
            (kept :: blocks, examined)
      in
      split all 0 layout

let data_for tuples (spec : Tsql.Semant.agg_spec) =
  match spec.Tsql.Semant.column with
  | None -> List.map (fun tu -> (Tuple.valid tu, Value.Null)) tuples
  | Some i ->
      List.filter_map
        (fun tu ->
          let v = Tuple.value tu i in
          if Value.is_null v then None else Some (Tuple.valid tu, v))
        tuples

(* Cut offsets pinning a parallel plan's evaluation shards to storage
   shards, grouped down to [target] shards of similar size. *)
let group_offsets ~target sizes =
  let total = List.fold_left ( + ) 0 sizes in
  let per = max 1 ((total + max 1 target - 1) / max 1 target) in
  let cuts = ref [] and pos = ref 0 and last = ref 0 in
  List.iter
    (fun s ->
      pos := !pos + s;
      if !pos - !last >= per && !pos < total then begin
        cuts := !pos :: !cuts;
        last := !pos
      end)
    sizes;
  Array.of_list ((0 :: List.rev !cuts) @ [ total ])

let engine_probe t ~parent ~trace (plan : Tsql.Semant.plan) blocks =
  let origin, horizon =
    match plan.Tsql.Semant.window with
    | Some w -> (Interval.start w, Interval.stop w)
    | None -> (Chronon.origin, Chronon.forever)
  in
  let sorted = plan.Tsql.Semant.sort_first in
  let tuples =
    let all = List.concat blocks in
    if sorted then List.stable_sort Tuple.compare_by_time all else all
  in
  let alg = plan.Tsql.Semant.algorithm in
  let timelines, peak =
    List.fold_left
      (fun (tls, peak) spec ->
        let data, shard_offsets =
          match alg with
          | Tempagg.Engine.Parallel { domains; _ }
            when (not sorted) && plan.Tsql.Semant.shard_layout <> [] ->
              let per_block = List.map (fun b -> data_for b spec) blocks in
              ( List.concat per_block,
                Some (group_offsets ~target:domains (List.map List.length per_block)) )
          | _ -> (data_for tuples spec, None)
        in
        match Tsql.Eval.monoid_of_spec spec with
        | Tsql.Eval.Value_monoid m ->
            let tl, _ =
              span t ~parent ~trace "core.eval" (fun () ->
                  Tempagg.Engine.eval ~origin ~horizon ?shard_offsets alg m
                    (List.to_seq data))
            in
            let _, stats =
              Tempagg.Engine.eval_with_stats ~origin ~horizon ?shard_offsets alg m
                (List.to_seq data)
            in
            (tl :: tls, max peak stats.Tempagg.Instrument.peak_bytes))
      ([], 0) plan.Tsql.Semant.aggregates
  in
  let zipped = Tsql.Eval.zip_timelines (List.rev timelines) in
  let coalesced, _ =
    span t ~parent ~trace "temporal.coalesce" (fun () ->
        Timeline.coalesce ~equal:(List.equal Value.equal) zipped)
  in
  (coalesced, peak)

(* The probe re-creates Eval's input preparation, so its figures measure
   the program only while its answer is the relation Eval.run returned:
   the same rows, values and valid times, in the same order. *)
let probe_matches coalesced rel =
  List.equal
    (fun (iv, values) (iv', values') ->
      Interval.equal iv iv' && List.equal Value.equal values values')
    (Timeline.to_list coalesced)
    (List.map (fun tu -> (Tuple.valid tu, Array.to_list (Tuple.values tu))) (Trel.tuples rel))

(* The benchmark's own copy of a written relation and of its view's
   aggregates, patched by every write the way the session patches its
   own: a write's storage and view-maintenance work, timed apart. *)
type view_probe =
  | View_probe : {
      view : (Value.t, 's, Value.t) Live.View.t;
      column : int option;
      handles : (int, Live.View.handle) Hashtbl.t;
    }
      -> view_probe

type write_probe = { part : Storage.Partition.t; views : view_probe list }

let write_probe ~dir ~rel ~view_definition catalog =
  let part =
    Storage.Partition.create ~boundaries:[] ~dir (Trel.schema rel)
  in
  Trel.iter (Storage.Partition.insert part) rel;
  Storage.Partition.flush part;
  let plan =
    match Tsql.Parser.parse_statement view_definition with
    | Ok (Tsql.Ast.Create_view { definition; _ }) -> (
        match Tsql.Semant.analyze catalog definition with
        | Ok plan -> plan
        | Error e -> failwith e)
    | _ -> failwith ("not a view definition: " ^ view_definition)
  in
  let views =
    List.map
      (fun (spec : Tsql.Semant.agg_spec) ->
        match Tsql.Eval.monoid_of_spec spec with
        | Tsql.Eval.Value_monoid m ->
            let view = Live.View.create ~stats:(Live.Stats.create ()) m in
            let column = spec.Tsql.Semant.column in
            let value tu =
              match column with None -> Value.Null | Some i -> Tuple.value tu i
            in
            let tuples = Trel.tuples rel in
            let hs =
              Live.View.load view
                (List.to_seq (List.map (fun tu -> (Tuple.valid tu, value tu)) tuples))
            in
            let handles = Hashtbl.create (List.length tuples) in
            List.iter2
              (fun tu h ->
                match Tuple.value tu 0 with
                | Value.Int id -> Hashtbl.replace handles id h
                | _ -> ())
              tuples hs;
            View_probe { view; column; handles })
      plan.Tsql.Semant.aggregates
  in
  { part; views }

let apply_write t ~parent ~trace probe (stmt : Workloads.stmt) =
  match stmt with
  | Workloads.Insert { id; valid; salary; _ } ->
      let tu = Tuple.make [| Value.Int id; Value.Int salary |] valid in
      ignore
        (span t ~parent ~trace "storage.write" (fun () ->
             Storage.Partition.insert probe.part tu;
             Storage.Partition.flush probe.part));
      ignore
        (span t ~parent ~trace "live.view_maint" (fun () ->
             List.iter
               (fun (View_probe { view; column; handles }) ->
                 let v =
                   match column with None -> Value.Null | Some i -> Tuple.value tu i
                 in
                 Hashtbl.replace handles id (Live.View.insert view valid v))
               probe.views))
  | Workloads.Delete { id; _ } ->
      ignore
        (span t ~parent ~trace "storage.write" (fun () ->
             Storage.Partition.delete probe.part (fun tu ->
                 Value.equal (Tuple.value tu 0) (Value.Int id))));
      ignore
        (span t ~parent ~trace "live.view_maint" (fun () ->
             List.iter
               (fun (View_probe { view; handles; _ }) ->
                 match Hashtbl.find_opt handles id with
                 | Some h ->
                     Hashtbl.remove handles id;
                     ignore (Live.View.delete view h)
                 | None -> ())
               probe.views))
  | _ -> ()

(* ---- one statement along the server worker's path ---- *)

let fold = String.lowercase_ascii

let record_pruning s (plan : Tsql.Semant.plan) =
  if plan.Tsql.Semant.shard_layout <> [] then
    match
      List.assoc_opt (fold plan.Tsql.Semant.source_name)
        (List.map (fun (n, p) -> (fold n, p)) (Tsql.Session.partitions s))
    with
    | Some p ->
        Storage.Partition.record_pruning p ~scanned:plan.Tsql.Semant.scanned_shards
          ~pruned:plan.Tsql.Semant.pruned_shards
    | None -> ()

(* Replay one statement through the layers; returns the reply digest (or
   the statement's error) and the in-process time on its blocking path. *)
let traced_statement t s ~trace ~probe (stmt : Workloads.stmt) =
  let parent = t.next_id in
  t.next_id <- parent + 1;
  let t0 = Clock.now_ns () in
  let span label f = span t ~parent ~trace label f in
  let reply payload =
    let encoded, encode_ns =
      span "net.encode" (fun () ->
          Net.Protocol.encode
            (Net.Protocol.Ok_reply { degraded = false; trace = Some trace; payload }))
    in
    if t.recording then begin
      t.reply_bytes <- t.reply_bytes + String.length encoded;
      t.replies <- t.replies + 1
    end;
    (Ok (Loop.digest_lines payload), encode_ns)
  in
  let render outcome = span "tsql.render" (fun () -> Gate.payload_lines outcome) in
  let parsed, parse_ns =
    span "tsql.parse" (fun () -> Tsql.Parser.parse_statement (Workloads.text stmt))
  in
  let result, path_ns =
    match (parsed, stmt) with
    | Error e, _ -> (Error e, 0)
    | Ok (Tsql.Ast.Select q), Workloads.Read { view = false; _ } -> (
        let catalog, catalog_ns = span "tsql.catalog" (fun () -> Tsql.Session.catalog s) in
        match span "tsql.analyze" (fun () -> Tsql.Semant.analyze ~adaptive:true catalog q) with
        | Error e, ns -> (Error e, catalog_ns + ns)
        | Ok plan, analyze_ns -> (
            record_pruning s plan;
            match
              span "tsql.eval" (fun () ->
                  let e0 = Clock.now_ns () in
                  let rel = Tsql.Eval.run plan in
                  Tsql.Eval.record_outcome (Tsql.Session.catalog s) plan
                    ~elapsed_ms:(Clock.ms (Clock.now_ns () - e0))
                    ~degradations:0 rel;
                  rel)
            with
            | exception e -> (Error (Printexc.to_string e), catalog_ns + analyze_ns)
            | rel, eval_ns ->
                let payload, render_ns = render (Tsql.Session.Rows rel) in
                let digest, encode_ns = reply payload in
                let digest =
                  if not t.recording then digest
                  else begin
                    let blocks, examined = clipped_blocks plan in
                    let coalesced, peak = engine_probe t ~parent ~trace plan blocks in
                    t.base_reads <- t.base_reads + 1;
                    t.peak_bytes <- t.peak_bytes + peak;
                    t.examined <- t.examined + examined;
                    t.result_rows <- t.result_rows + Trel.cardinality rel;
                    t.shards_scanned <- t.shards_scanned + plan.Tsql.Semant.scanned_shards;
                    t.shards_pruned <- t.shards_pruned + plan.Tsql.Semant.pruned_shards;
                    if probe_matches coalesced rel then digest
                    else Error "the ledger's engine probe disagrees with Eval.run"
                  end
                in
                (digest, catalog_ns + analyze_ns + eval_ns + render_ns + encode_ns)))
    | Ok parsed, _ -> (
        let label =
          match stmt with
          | Workloads.Read _ -> "live.view_read"
          | Workloads.Insert _ | Workloads.Delete _ -> "tsql.write"
          | Workloads.Ddl _ -> "tsql.ddl"
        in
        let outcome, exec_ns =
          span label (fun () -> Tsql.Session.exec_statement s parsed)
        in
        Option.iter (fun p -> apply_write t ~parent ~trace p stmt) probe;
        match outcome with
        | Error e -> (Error e, exec_ns)
        | Ok outcome ->
            let payload, render_ns = render outcome in
            let digest, encode_ns = reply payload in
            (digest, exec_ns + render_ns + encode_ns))
  in
  let t1 = Clock.now_ns () in
  if t.recording then
    t.spans <-
      {
        Obs.Trace.id = parent;
        parent = None;
        label = "statement";
        trace;
        domain = 0;
        start_us = us t t0;
        stop_us = us t t1;
        attrs = [ ("sql", Workloads.text stmt) ];
      }
      :: t.spans;
  (result, parse_ns + path_ns)

let io_sum s =
  List.fold_left
    (fun (r, w) (_, p) ->
      let io = Storage.Partition.io_totals p in
      (r + io.Storage.Io_stats.pages_read, w + io.Storage.Io_stats.pages_written))
    (0, 0) (Tsql.Session.partitions s)

(* A replay session set up like the server's; its loads count as
   storage.load. *)
let session t bindings = Gate.session ~on_load:(add t "storage.load") bindings

(* Replay the statements in order, the timed ones traced until
   [budget_ns] of replay time is spent, the rest (and the untimed setup
   and warm-up) replayed plainly.  Returns the replay function the gate
   judges the replies with. *)
let replay t s ~budget_ns ~probe =
  let plain = ref (Gate.plain_replay s) in
  let deadline = ref None in
  let k = ref 0 in
  let start_io = ref (0, 0) and start_cache = ref (0, 0) in
  let replay (r : Loop.record) =
    let stmt = r.Loop.stmt and timed = r.Loop.timed in
    if timed && !deadline = None then begin
      deadline := Some (Clock.now_ns () + budget_ns);
      start_io := io_sum s;
      let st = Tsql.Session.stats s in
      start_cache := (st.Live.Stats.cache_hits, st.Live.Stats.cache_misses)
    end;
    let tracing =
      match !deadline with
      | Some d -> timed && Clock.now_ns () < d
      | None -> false
    in
    let result =
      if tracing then begin
        t.recording <- true;
        let trace = Printf.sprintf "s%d" !k in
        let result, inproc = traced_statement t s ~trace ~probe stmt in
        t.recording <- false;
        t.statements <- t.statements + 1;
        t.tcp_ns <- t.tcp_ns + r.Loop.latency_ns;
        t.inproc_ns <- t.inproc_ns + inproc;
        (* The plain replay's remembered reads are stale after a write. *)
        (match stmt with Workloads.Read _ -> () | _ -> plain := Gate.plain_replay s);
        result
      end
      else begin
        (* The probes must see every write until tracing stops. *)
        (match (!deadline, probe) with
        | None, Some p -> apply_write t ~parent:0 ~trace:"" p stmt
        | _ -> ());
        !plain stmt
      end
    in
    if timed then begin
      t.run_statements <- t.run_statements + 1;
      match stmt with Workloads.Insert _ -> t.inserts <- t.inserts + 1 | _ -> ()
    end;
    incr k;
    result
  in
  let finish () =
    let r, w = io_sum s and r0, w0 = !start_io in
    t.pages_read <- t.pages_read + (r - r0);
    t.pages_written <- t.pages_written + (w - w0);
    let st = Tsql.Session.stats s and h0, m0 = !start_cache in
    let h = st.Live.Stats.cache_hits - h0 and m = st.Live.Stats.cache_misses - m0 in
    t.cache_hits <- t.cache_hits + h;
    t.cache_lookups <- t.cache_lookups + h + m
  in
  (replay, finish)

(* ---- results ---- *)

let mean_ms t label =
  match Hashtbl.find_opt t.accs label with
  | Some a when a.calls > 0 -> (Clock.ms a.ns /. float_of_int a.calls, a.calls)
  | _ -> (0., 0)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Every per-layer metric: (name, unit, value, samples).  A layer the
   workload never calls reads 0 with 0 samples. *)
let metrics t ~ping:(ping_us, pings) ~p50_ms =
  let n = max 1 t.statements in
  let unattributed = Clock.ms (t.tcp_ns - t.inproc_ns) /. float_of_int n in
  let ms = mean_ms t in
  let m name unit_ (v, c) = (name, unit_, v, c) in
  [
    m "net.ping_rtt_us" "us" (ping_us, pings);
    m "net.unattributed_ms" "ms" (unattributed, t.statements);
    m "net.unattributed_pct" "%"
      ((if p50_ms > 0. then 100. *. unattributed /. p50_ms else 0.), t.statements);
    m "net.encode_ms" "ms" (ms "net.encode");
    m "net.reply_kb" "KiB"
      (ratio t.reply_bytes t.replies /. 1024., t.replies);
    m "tsql.parse_us" "us" (let v, c = ms "tsql.parse" in (v *. 1000., c));
    m "tsql.catalog_ms" "ms" (ms "tsql.catalog");
    m "tsql.analyze_ms" "ms" (ms "tsql.analyze");
    m "tsql.eval_ms" "ms" (ms "tsql.eval");
    m "tsql.rows_examined_per_row" "ratio" (ratio t.examined t.result_rows, t.base_reads);
    m "tsql.render_ms" "ms" (ms "tsql.render");
    m "tsql.write_ms" "ms" (ms "tsql.write");
    m "core.eval_ms" "ms"
      ( (let a = acc t "core.eval" in Clock.ms a.ns /. float_of_int (max 1 t.base_reads)),
        t.base_reads );
    m "core.peak_kb" "KiB" (ratio t.peak_bytes t.base_reads /. 1024., t.base_reads);
    m "temporal.coalesce_ms" "ms" (ms "temporal.coalesce");
    m "storage.load_ms" "ms" (ms "storage.load");
    m "storage.shards_pruned_ratio" "ratio"
      (ratio t.shards_pruned (t.shards_scanned + t.shards_pruned), t.base_reads);
    m "storage.write_ms" "ms" (ms "storage.write");
    m "storage.pages_read" "count" (ratio t.pages_read t.run_statements, t.run_statements);
    m "storage.bytes_written_per_user_byte" "ratio"
      (* A user's tuple is two int columns and two chronons: 32 bytes. *)
      ( ratio (t.pages_written * Storage.Heap_file.default_page_size) (32 * t.inserts),
        t.inserts );
    m "live.view_maint_ms" "ms" (ms "live.view_maint");
    m "live.view_read_ms" "ms" (ms "live.view_read");
    m "live.cache_hit_ratio" "ratio" (ratio t.cache_hits t.cache_lookups, t.cache_lookups);
  ]

(* Self time per timed statement: each layer's own calls minus the
   nested layers re-run beneath it, with what no layer claims last. *)
let self_table t ~p50_ms =
  let n = float_of_int (max 1 t.statements) in
  let total label = match Hashtbl.find_opt t.accs label with Some a -> a.ns | None -> 0 in
  let rows =
    [
      ("tsql.parse", total "tsql.parse");
      ("tsql.catalog", total "tsql.catalog");
      ("tsql.analyze", total "tsql.analyze");
      ("tsql.eval (self)", total "tsql.eval" - total "core.eval" - total "temporal.coalesce");
      ("  core.eval", total "core.eval");
      ("  temporal.coalesce", total "temporal.coalesce");
      ("tsql.write (self)", total "tsql.write" - total "storage.write" - total "live.view_maint");
      ("  storage.write", total "storage.write");
      ("  live.view_maint", total "live.view_maint");
      ("live.view_read", total "live.view_read");
      ("tsql.render", total "tsql.render");
      ("net.encode", total "net.encode");
      ("net.unattributed", t.tcp_ns - t.inproc_ns);
    ]
  in
  let tcp_mean = Clock.ms t.tcp_ns /. n in
  let b = Buffer.create 1024 in
  Printf.bprintf b "self time per statement over %d traced statements (mean TCP latency %.3f ms, p50 %.3f ms):\n"
    t.statements tcp_mean p50_ms;
  List.iter
    (fun (label, ns) ->
      let per = Clock.ms ns /. n in
      Printf.bprintf b "  %-22s %10.3f ms  %6.1f%% of mean latency\n" label per
        (if tcp_mean > 0. then 100. *. per /. tcp_mean else 0.))
    rows;
  let unattributed = Clock.ms (t.tcp_ns - t.inproc_ns) /. n in
  Printf.bprintf b "  net.unattributed is %.1f%% of the wall-clock p50\n"
    (if p50_ms > 0. then 100. *. unattributed /. p50_ms else 0.);
  Buffer.contents b

let metrics_table metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-36s %14s %-6s %s\n" "per-layer metric" "value" "unit" "samples";
  List.iter
    (fun (name, unit_, v, c) ->
      Printf.bprintf b "%-36s %14.4f %-6s %d%s\n" name v unit_ c
        (if c = 0 then "  (not exercised by this workload)" else ""))
    metrics;
  Buffer.contents b

let write_chrome t path =
  let spans =
    List.sort (fun a b -> compare a.Obs.Trace.start_us b.Obs.Trace.start_us) t.spans
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Obs.Trace.to_chrome_json spans))
