type transport = Tcp of int | Stdio

type config = {
  transport : transport;
  domains : int;
  queue_depth : int;
  degrade_watermark : int option;
  drain_timeout_ms : int;
  idle_timeout_ms : int;
  max_connections : int;
  memory_budget : int option;
  deadline_ms : float option;
  degrade_deadline_ms : float option;
  on_error : Tempagg.Engine.on_error option;
  cache_capacity : int;
  adaptive : bool;
  data_dir : string option;
  partitions : (string * string) list;
  split_threshold : int option;
  slowlog : Obs.Slowlog.t option;
  recorder_out : string option;
  scrape_every_ms : int option;
      (* Self-scrape period; None turns the scraper (and the [_metrics]
         / [_requests] self-relations) off. *)
  scrape_config : Selfmon.Scrape.config option;
      (* Retention/downsampling overrides; the period above wins over
         its [tick_us]. *)
  slo : Obs.Slo.objective list;
      (* Objectives evaluated on every scrape tick (needs scraping). *)
}

let default_config =
  {
    transport = Tcp 7411;
    domains = 4;
    queue_depth = 64;
    degrade_watermark = None;
    drain_timeout_ms = 5_000;
    idle_timeout_ms = 60_000;
    max_connections = 1024;
    memory_budget = None;
    deadline_ms = None;
    degrade_deadline_ms = None;
    on_error = None;
    cache_capacity = 128;
    adaptive = true;
    data_dir = None;
    partitions = [];
    split_threshold = None;
    slowlog = None;
    recorder_out = None;
    scrape_every_ms = None;
    scrape_config = None;
    slo = [];
  }

type report = {
  accepted : int;
  requests : int;
  shed : int;
  errors : int;
  degraded : int;
  timed_out : int;
  elapsed_s : float;
  drained : bool;
  metrics : Obs.Metrics.t;
  per_kind : (string * Obs.Histogram.t) list;
      (* The tempagg_net_latency_us histogram of each statement kind
         seen, by kind name. *)
  live : Live.Stats.t;  (* live-maintenance counters of every session *)
  scrapes : int;  (* self-scrape ticks taken (0 with scraping off) *)
  slo_summary : string option;
      (* Final rendered burn-rate report, alerts and worst windows
         included — what the serve report prints below its totals. *)
}

(* A statement handed to a worker, carrying its request-trace context:
   the trace id, the request root span (opened at dispatch, closed at
   completion) and the queue-wait span (opened at submit, closed by
   whichever worker takes the job). *)
type job = {
  j_conn : int;
  j_line : string;
  j_session : Tsql.Session.t;
  j_degraded : bool;
  j_trace : string;
  j_root : int;
  j_queue : int;
}

(* A worker's finished reply, travelling back to the event loop. *)
type completion = {
  c_conn : int;
  c_session : Tsql.Session.t;
  c_reply : Protocol.reply;
  c_kind : string;
  c_statement : string;
  c_elapsed_us : int;  (* the "execute" span's duration *)
  c_trace : string;
  c_root : int;
  c_join : string option;
}

(* One partitioned relation's counters in one session. *)
type part_counts = { shards : int; queries : int; scanned : int; pruned : int }

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;  (* read side *)
  c_wfd : Unix.file_descr;  (* write side (differs from c_fd on Stdio) *)
  c_tcp : bool;  (* close fds on teardown *)
  c_inbuf : Buffer.t;
  mutable c_pending : string list;  (* complete lines awaiting dispatch *)
  mutable c_out : string;
  mutable c_out_off : int;
  mutable c_outstanding : bool;  (* a worker owns this conn's request *)
  mutable c_last_us : int;
  mutable c_eof : bool;  (* no more input; still serving buffered lines *)
  mutable c_closing : bool;  (* discard pending, flush output, close *)
  mutable c_seq : int;  (* statements dispatched, for minted request ids *)
  mutable c_scrape_version : int;
      (* Scraper version the session's self-relations reflect; refreshed
         on the event loop before a statement is submitted, the one
         point where no worker owns the session. *)
  c_session : Tsql.Session.t;
  mutable c_live : Live.Stats.t;
  mutable c_parts : (string * part_counts) list;
      (* The session's live-maintenance and partition counters as last
         read on the event loop while no worker owned the session. *)
}

type t = {
  cfg : config;
  catalog : Tsql.Catalog.t;
  listen_fd : Unix.file_descr option;
  bound_port : int option;
  admission : job Admission.t;
  stop_requested : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  comp_mutex : Mutex.t;
  mutable completions : completion list;  (* newest first *)
  conns : (int, conn) Hashtbl.t;
  mutable next_conn_id : int;
  registry : Obs.Metrics.t;
  dump_requested : bool Atomic.t;  (* SIGUSR1 asked for a recorder dump *)
  scraper : Selfmon.Scrape.t option;
  mutable started_us : int;  (* set by [run]; feeds the uptime gauge *)
  mutable slo_text : string;  (* SLO-verb body, rebuilt per scrape tick *)
  mutable slo_report : Obs.Slo.report option;  (* latest evaluation *)
  retired_live : Live.Stats.t;
  mutable retired_parts : (string * part_counts) list;
      (* Counters of closed connections, kept so the server-wide totals
         never go backwards. *)
}

let max_line_bytes = 65_536

let port t = t.bound_port

let wake t =
  (* Best-effort: a full pipe already guarantees a pending wakeup, and a
     closed one means the loop is gone — neither may raise (this runs
     from worker domains and signal handlers). *)
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

let shutdown t =
  Atomic.set t.stop_requested true;
  wake t

(* ---- metrics ---- *)

let counter t name help = Obs.Metrics.counter t.registry ~help name
let gauge t name help = Obs.Metrics.gauge t.registry ~help name

let m_accepted t =
  counter t "tempagg_net_accepted_total" "Connections accepted"

let m_active t = gauge t "tempagg_net_active_connections" "Open connections"

let m_shed t =
  counter t "tempagg_net_shed_total" "Requests refused with BUSY"

let m_timed_out t =
  counter t "tempagg_net_timed_out_total" "Connections reaped for idleness"

let m_errors t =
  counter t "tempagg_net_errors_total" "Statements answered with ERR"

let m_degraded t =
  counter t "tempagg_net_degraded_total" "Replies marked degraded"

let m_queued t = gauge t "tempagg_net_queued" "Requests waiting in admission"
let m_inflight t = gauge t "tempagg_net_in_flight" "Requests being executed"

let m_requests t kind =
  Obs.Metrics.counter t.registry ~help:"Admitted statements by kind"
    ~labels:[ ("kind", kind) ]
    "tempagg_net_requests_total"

let m_latency t kind =
  Obs.Metrics.histogram t.registry
    ~help:"Request latency in microseconds, by statement kind"
    ~labels:[ ("kind", kind) ]
    "tempagg_net_latency_us"

(* ---- session counters (event loop only) ---- *)

(* Re-read a connection's session counters, unless a worker owns the
   session right now; then the last reading stands. *)
let read_session_counts conn =
  if not conn.c_outstanding then begin
    let live = Live.Stats.create () in
    Live.Stats.add ~into:live (Tsql.Session.stats conn.c_session);
    conn.c_live <- live;
    conn.c_parts <-
      List.map
        (fun (name, p) ->
          let queries, scanned, pruned = Storage.Partition.pruning_totals p in
          ( name,
            { shards = Storage.Partition.shard_count p; queries; scanned; pruned }
          ))
        (Tsql.Session.partitions conn.c_session)
  end

(* Per relation: counts add up across sessions; each session loads its
   own copy of a partition, so the shard count is the largest copy's. *)
let merge_parts into parts =
  List.fold_left
    (fun acc (name, c) ->
      match List.assoc_opt name acc with
      | None -> (name, c) :: acc
      | Some a ->
          ( name,
            {
              shards = max a.shards c.shards;
              queries = a.queries + c.queries;
              scanned = a.scanned + c.scanned;
              pruned = a.pruned + c.pruned;
            } )
          :: List.remove_assoc name acc)
    into parts

(* Server-wide totals of the sessions' counters: open connections (re-read
   now) and closed ones. *)
let session_totals t =
  let live = Live.Stats.create () in
  Live.Stats.add ~into:live t.retired_live;
  let parts =
    Hashtbl.fold
      (fun _ c parts ->
        read_session_counts c;
        Live.Stats.add ~into:live c.c_live;
        merge_parts parts c.c_parts)
      t.conns t.retired_parts
  in
  (live, parts)

(* The tempagg_live_* totals and per-relation tempagg_partition_*
   gauges. *)
let set_session_metrics t =
  let live, parts = session_totals t in
  Live.Stats.to_metrics t.registry live;
  List.iter
    (fun (relation, c) ->
      let set metric help v =
        Obs.Metrics.set
          (Obs.Metrics.gauge t.registry ~help
             ~labels:[ ("relation", relation) ]
             metric)
          v
      in
      let seti metric help v = set metric help (float_of_int v) in
      seti "tempagg_partition_shards" "Storage shards per partitioned relation"
        c.shards;
      seti "tempagg_partition_queries"
        "Planned queries against the partitioned relation" c.queries;
      seti "tempagg_partition_shards_scanned"
        "Shards scanned by planned queries" c.scanned;
      seti "tempagg_partition_shards_pruned" "Shards pruned by planned queries"
        c.pruned;
      set "tempagg_partition_pruning_ratio"
        "Fraction of candidate shards pruned across planned queries"
        (if c.scanned + c.pruned = 0 then 0.
         else float_of_int c.pruned /. float_of_int (c.scanned + c.pruned)))
    parts

let create ?(config = default_config) catalog =
  let listen_fd, bound_port =
    match config.transport with
    | Stdio -> (None, None)
    | Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_any, port));
        Unix.listen fd 128;
        Unix.set_nonblock fd;
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (Some fd, Some bound)
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let registry = Obs.Metrics.create () in
  let t =
    {
      cfg = config;
      catalog;
      listen_fd;
      bound_port;
      admission =
        Admission.create ?degrade_watermark:config.degrade_watermark
          ~workers:config.domains ~queue_depth:config.queue_depth ();
      stop_requested = Atomic.make false;
      wake_r;
      wake_w;
      comp_mutex = Mutex.create ();
      completions = [];
      conns = Hashtbl.create 64;
      next_conn_id = 0;
      registry;
      dump_requested = Atomic.make false;
      scraper =
        (match config.scrape_every_ms with
        | None -> None
        | Some ms ->
            let base =
              Option.value config.scrape_config
                ~default:Selfmon.Scrape.default_config
            in
            Some
              (Selfmon.Scrape.create
                 ~config:{ base with Selfmon.Scrape.tick_us = ms * 1000 }
                 registry));
      started_us = Obs.Trace.now_us ();
      slo_text = "no SLO objectives configured (serve with --slo FILE)";
      slo_report = None;
      retired_live = Live.Stats.create ();
      retired_parts = [];
    }
  in
  (* What the registry reads from elsewhere on every exposition, scrape
     tick and report: admission depth, session totals, join counters,
     recorder pressure, binary identity and uptime.  Every read of the
     registry happens on the event loop (or after the workers are
     joined), where re-reading a session cannot race a worker. *)
  let source = Obs.Metrics.source registry in
  source (fun () ->
      Obs.Metrics.set_int (m_queued t) (Admission.queued t.admission);
      Obs.Metrics.set_int (m_inflight t) (Admission.in_flight t.admission));
  source (fun () -> set_session_metrics t);
  List.iter
    (fun to_metrics -> source (fun () -> to_metrics registry))
    [ Join.Telemetry.to_metrics; Obs.Recorder.to_metrics;
      Obs.Build_info.to_metrics ];
  source (fun () ->
      Obs.Metrics.set
        (gauge t "tempagg_uptime_seconds"
           "Seconds since the server started serving")
        (float_of_int (Obs.Trace.now_us () - t.started_us) /. 1e6));
  t

(* ---- self-scraping and SLO evaluation (event loop only) ---- *)

(* One scrape tick: sample the registry into the self-relations, then
   re-evaluate the objectives against them — through the engine itself,
   so the SLO verdicts exercise the same aggregation path the verdicts
   are about.  Also where the SLO verb's report text is rebuilt. *)
let scrape_tick t scraper ~now =
  Selfmon.Scrape.scrape ~now_us:now scraper;
  match t.cfg.slo with
  | [] -> ()
  | objectives -> (
      match Selfmon.Monitor.evaluate ~now_us:now scraper objectives with
      | Ok report ->
          Obs.Slo.to_metrics t.registry report;
          t.slo_report <- Some report;
          t.slo_text <- Obs.Slo.report_to_string report
      | Error msg -> t.slo_text <- "SLO evaluation failed: " ^ msg)

(* Bring one connection's self-relations up to the scraper's current
   version.  Called on the event loop while no worker owns the session
   (dispatch only submits from that state), so the swap cannot race a
   statement. *)
let refresh_self_relations t conn =
  match t.scraper with
  | None -> ()
  | Some scraper ->
      let v = Selfmon.Scrape.version scraper in
      if conn.c_scrape_version <> v then begin
        conn.c_scrape_version <- v;
        Tsql.Session.replace_base conn.c_session Selfmon.Scrape.metrics_name
          (Selfmon.Scrape.metrics_relation scraper);
        Tsql.Session.replace_base conn.c_session Selfmon.Scrape.requests_name
          (Selfmon.Scrape.requests_relation scraper)
      end

(* ---- worker domains ---- *)

let payload_of_outcome = function
  | Tsql.Session.Ack msg -> String.split_on_char '\n' msg
  | Tsql.Session.Rows rel ->
      let text = Tsql.Pretty.result_to_string rel in
      List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

(* Execute one admitted request.  Runs on a worker domain: the only
   shared state it touches is the job's own session (one outstanding
   request per connection serializes access) and the completion queue. *)
let execute t job =
  (* The queue wait ends the moment a worker picks the job up; the
     span was opened on the event loop at submit time. *)
  Obs.Trace.close_span job.j_queue;
  let body () =
    match Protocol.sleep_request job.j_line with
    | Some ms ->
        Unix.sleepf (ms /. 1000.);
        ( "sleep",
          Protocol.Ok_reply
            {
              degraded = job.j_degraded;
              trace = Some job.j_trace;
              payload = [ Printf.sprintf "slept %g ms" ms ];
            },
          None )
    | None -> (
        match Tsql.Parser.parse_statement job.j_line with
        | Error msg -> ("parse-error", Protocol.Err msg, None)
        | Ok stmt -> (
            let kind = Tsql.Ast.kind_of stmt in
            (* Degraded requests trade the planned fast path for a
               bounded one: at least a Fallback recovery policy (Skip
               stays Skip — it is already lossier) and a tighter
               deadline, so saturated work cannot occupy a worker
               indefinitely. *)
            let on_error =
              if job.j_degraded then
                match t.cfg.on_error with
                | Some Tempagg.Engine.Skip -> Some Tempagg.Engine.Skip
                | _ -> Some Tempagg.Engine.Fallback
              else t.cfg.on_error
            in
            let deadline_ms =
              if job.j_degraded then
                match t.cfg.degrade_deadline_ms with
                | Some d -> Some d
                | None -> (
                    match t.cfg.deadline_ms with
                    | Some d -> Some (d /. 2.)
                    | None -> Some 500.)
              else t.cfg.deadline_ms
            in
            match
              Tsql.Session.exec_statement ?memory_budget:t.cfg.memory_budget
                ?deadline_ms ?on_error job.j_session stmt
            with
            | Ok outcome ->
                let degraded =
                  job.j_degraded
                  || Tsql.Session.last_degradations job.j_session > 0
                in
                ( kind,
                  Protocol.Ok_reply
                    {
                      degraded;
                      trace = Some job.j_trace;
                      payload = payload_of_outcome outcome;
                    },
                  Tsql.Session.last_join job.j_session )
            | Error msg -> (kind, Protocol.Err msg, None)
            | exception e ->
                (* A worker must never die: any stray evaluation
                   exception becomes a structured per-statement error. *)
                ( kind,
                  Protocol.Err ("internal error: " ^ Printexc.to_string e),
                  None )))
  in
  (* Run under an "execute" span parented to the request root, so every
     engine/storage/join span the statement records on this domain (and
     on Parallel shard domains) nests under the request's trace.  Its
     duration is the statement's latency: the histogram and the slowlog
     report the span. *)
  let result, elapsed_us =
    Obs.Trace.timed
      ?parent:(if job.j_root = 0 then None else Some job.j_root)
      ~trace:job.j_trace
      ~attrs:[ ("conn", string_of_int job.j_conn) ]
      "execute" body
  in
  let kind, reply, join = match result with Ok r -> r | Error e -> raise e in
  {
    c_conn = job.j_conn;
    c_session = job.j_session;
    c_reply = reply;
    c_kind = kind;
    c_statement = job.j_line;
    c_elapsed_us = elapsed_us;
    c_trace = job.j_trace;
    c_root = job.j_root;
    c_join = join;
  }

let worker_loop t () =
  let rec loop () =
    match Admission.take t.admission with
    | None -> ()
    | Some job ->
        let completion = execute t job in
        Admission.finish t.admission;
        Mutex.lock t.comp_mutex;
        t.completions <- completion :: t.completions;
        Mutex.unlock t.comp_mutex;
        wake t;
        loop ()
  in
  loop ()

(* ---- connections ---- *)

let conn_data_dir t id =
  Option.map
    (fun dir -> Filename.concat dir (Printf.sprintf "conn-%d" id))
    t.cfg.data_dir

let new_session t id =
  (* A private statistics store per connection: worker domains then
     share nothing mutable across connections, and ANALYZE results are
     scoped to the connection that ran them.  Partition bindings are
     loaded per session for the same reason — no shared handles. *)
  let session =
    Tsql.Session.create ~cache_capacity:t.cfg.cache_capacity
      ~adaptive:t.cfg.adaptive
      ?data_dir:(conn_data_dir t id)
      ?split_threshold:t.cfg.split_threshold
      (Tsql.Catalog.with_store t.catalog (Obs.Stats.create_store ()))
  in
  List.iter
    (fun (name, dir) ->
      Tsql.Session.add_partition session name (Storage.Partition.load dir))
    t.cfg.partitions;
  session

let add_conn t ~tcp ~fd ~wfd =
  let id = t.next_conn_id in
  t.next_conn_id <- id + 1;
  let conn =
    {
      c_id = id;
      c_fd = fd;
      c_wfd = wfd;
      c_tcp = tcp;
      c_inbuf = Buffer.create 256;
      c_pending = [];
      c_out = "";
      c_out_off = 0;
      c_outstanding = false;
      c_last_us = Obs.Trace.now_us ();
      c_eof = false;
      c_closing = false;
      c_seq = 0;
      c_scrape_version = -1;  (* force a refresh before the first statement *)
      c_session = new_session t id;
      c_live = Live.Stats.create ();
      c_parts = [];
    }
  in
  refresh_self_relations t conn;
  Hashtbl.replace t.conns id conn;
  Obs.Metrics.inc (m_accepted t);
  Obs.Metrics.set_int (m_active t) (Hashtbl.length t.conns);
  conn

let close_conn t conn =
  if Hashtbl.mem t.conns conn.c_id then begin
    read_session_counts conn;
    Live.Stats.add ~into:t.retired_live conn.c_live;
    t.retired_parts <- merge_parts t.retired_parts conn.c_parts;
    Hashtbl.remove t.conns conn.c_id;
    Obs.Metrics.set_int (m_active t) (Hashtbl.length t.conns);
    (* A session a worker still runs is closed when its completion
       arrives instead. *)
    if not conn.c_outstanding then Tsql.Session.close conn.c_session;
    if conn.c_tcp then try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
  end

let send conn text = conn.c_out <- conn.c_out ^ text

(* A connection is finished once no worker owns it, its output is
   flushed, and it either asked to close (QUIT, oversize, reap) or hit
   EOF with nothing left to dispatch. *)
let maybe_close t conn =
  if
    Hashtbl.mem t.conns conn.c_id
    && (not conn.c_outstanding)
    && conn.c_out = ""
    && (conn.c_closing || (conn.c_eof && conn.c_pending = []))
  then close_conn t conn

(* Split buffered input into complete lines; the partial tail stays. *)
let extract_lines conn =
  let data = Buffer.contents conn.c_inbuf in
  match String.rindex_opt data '\n' with
  | None -> []
  | Some last ->
      Buffer.clear conn.c_inbuf;
      Buffer.add_string conn.c_inbuf
        (String.sub data (last + 1) (String.length data - last - 1));
      String.split_on_char '\n' (String.sub data 0 last)

(* ---- dispatch ---- *)

let observe_completion t (c : completion) =
  let degraded, is_err =
    match c.c_reply with
    | Protocol.Ok_reply { degraded; _ } -> (degraded, false)
    | Protocol.Err _ -> (false, true)
    | _ -> (false, false)
  in
  let kind_ok =
    match c.c_reply with
    | Protocol.Ok_reply _ ->
        if degraded then Obs.Metrics.inc (m_degraded t);
        true
    | Protocol.Err _ ->
        Obs.Metrics.inc (m_errors t);
        true
    | _ -> false
  in
  let elapsed_ms = Obs.Trace.to_ms c.c_elapsed_us in
  let slow =
    match t.cfg.slowlog with
    | Some log -> elapsed_ms >= Obs.Slowlog.threshold_ms log
    | None -> false
  in
  (* Close the request root before deciding retention, so the root span
     itself is in the ring when the recorder copies the trace out. *)
  let outcome =
    if is_err then "error"
    else if degraded then "degraded"
    else if slow then "slow"
    else "ok"
  in
  Obs.Trace.close_span
    ~attrs:
      (("outcome", outcome)
      :: (match c.c_join with Some j -> [ ("join", j) ] | None -> []))
    c.c_root;
  if is_err || degraded || slow then
    Obs.Recorder.pin ~trace:c.c_trace ~reason:outcome;
  if kind_ok then begin
    Obs.Metrics.inc (m_requests t c.c_kind);
    Obs.Histogram.observe (m_latency t c.c_kind) (float_of_int c.c_elapsed_us);
    match t.cfg.slowlog with
    | Some log ->
        if slow then
          ignore
            (Obs.Slowlog.observe log ~kind:c.c_kind ~statement:c.c_statement
               ~elapsed_ms ?join:c.c_join ~trace:c.c_trace ())
    | None -> ()
  end

(* Dispatch a connection's buffered lines until a statement goes
   outstanding (or the connection starts closing).  Control verbs are
   answered inline — PING works even at full saturation, which is what
   makes it a useful liveness probe. *)
let rec dispatch t conn =
  if (not conn.c_outstanding) && not conn.c_closing then
    match conn.c_pending with
    | [] -> ()
    | line :: rest ->
        conn.c_pending <- rest;
        let line = Protocol.strip_request line in
        if line = "" || (String.length line >= 2 && String.sub line 0 2 = "--")
        then dispatch t conn
        else if String.uppercase_ascii line = "PING" then begin
          send conn (Protocol.encode Protocol.Pong);
          dispatch t conn
        end
        else if String.uppercase_ascii line = "QUIT" then begin
          send conn (Protocol.encode Protocol.Bye);
          conn.c_closing <- true
        end
        else if String.length line > max_line_bytes then begin
          send conn
            (Protocol.encode
               (Protocol.Err
                  (Printf.sprintf "request exceeds %d bytes" max_line_bytes)));
          dispatch t conn
        end
        else if Protocol.metrics_request line then begin
          (* Prometheus exposition inline, like PING: a scrape must work
             even when every worker is busy. *)
          let payload =
            List.filter
              (fun l -> l <> "")
              (String.split_on_char '\n' (Obs.Metrics.expose t.registry))
          in
          send conn
            (Protocol.encode
               (Protocol.Ok_reply { degraded = false; trace = None; payload }));
          dispatch t conn
        end
        else if Protocol.slo_request line then begin
          (* Latest burn-rate report inline, like METRICS: the alerting
             path must answer even at full saturation. *)
          let payload =
            List.filter
              (fun l -> l <> "")
              (String.split_on_char '\n' t.slo_text)
          in
          send conn
            (Protocol.encode
               (Protocol.Ok_reply { degraded = false; trace = None; payload }));
          dispatch t conn
        end
        else
          match Protocol.trace_dump_request line with
          | Some (Error msg) ->
              send conn (Protocol.encode (Protocol.Err msg));
              dispatch t conn
          | Some (Ok trace) ->
              let payload =
                List.filter
                  (fun l -> l <> "")
                  (String.split_on_char '\n' (Obs.Recorder.dump ?trace ()))
              in
              send conn
                (Protocol.encode
                   (Protocol.Ok_reply
                      { degraded = false; trace; payload }));
              dispatch t conn
          | None -> (
              match Protocol.split_trace line with
              | Error msg ->
                  send conn (Protocol.encode (Protocol.Err msg));
                  dispatch t conn
              | Ok (supplied, stmt) ->
                  (* The last race-free moment to swap in fresh
                     self-relations: no worker owns this session yet. *)
                  refresh_self_relations t conn;
                  (* The request id: client-chosen via the TRACE prefix,
                     else minted here — every statement gets one. *)
                  let trace =
                    match supplied with
                    | Some id -> id
                    | None ->
                        Printf.sprintf "r%d-%d" conn.c_id conn.c_seq
                  in
                  conn.c_seq <- conn.c_seq + 1;
                  let root =
                    Obs.Trace.open_span ~trace
                      ~attrs:
                        [
                          ("conn", string_of_int conn.c_id);
                          ( "statement",
                            if String.length stmt > 120 then
                              String.sub stmt 0 120 ^ "..."
                            else stmt );
                        ]
                      "request"
                  in
                  match
                    Admission.submit t.admission (fun ~degraded ->
                        {
                          j_conn = conn.c_id;
                          j_line = stmt;
                          j_session = conn.c_session;
                          j_degraded = degraded;
                          j_trace = trace;
                          j_root = root;
                          j_queue =
                            Obs.Trace.open_span ~trace ~parent:root
                              "queue-wait";
                        })
                  with
                  | Admission.Shed reason ->
                      Obs.Metrics.inc (m_shed t);
                      Obs.Trace.close_span
                        ~attrs:[ ("outcome", "shed"); ("reason", reason) ]
                        root;
                      Obs.Recorder.pin ~trace ~reason:"shed";
                      send conn (Protocol.encode (Protocol.Busy reason));
                      dispatch t conn
                  | Admission.Admitted _ -> conn.c_outstanding <- true)

(* ---- the event loop ---- *)

let handle_completions t =
  Mutex.lock t.comp_mutex;
  let batch = List.rev t.completions in
  t.completions <- [];
  Mutex.unlock t.comp_mutex;
  List.iter
    (fun c ->
      observe_completion t c;
      match Hashtbl.find_opt t.conns c.c_conn with
      | None ->
          (* The connection died while the worker ran. *)
          Tsql.Session.close c.c_session
      | Some conn ->
          conn.c_outstanding <- false;
          send conn (Protocol.encode c.c_reply);
          dispatch t conn;
          maybe_close t conn)
    batch

let drain_wake_pipe t =
  let buf = Bytes.create 64 in
  let rec loop () =
    match Unix.read t.wake_r buf 0 64 with
    | n when n > 0 -> loop ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  loop ()

let accept_burst t fd =
  let rec loop () =
    match Unix.accept fd with
    | cfd, _addr ->
        Unix.set_nonblock cfd;
        if Hashtbl.length t.conns >= t.cfg.max_connections then begin
          (* Over capacity: structured refusal, then close.  Counted as
             accepted + shed so saturation is visible in the metrics. *)
          Obs.Metrics.inc (m_accepted t);
          Obs.Metrics.inc (m_shed t);
          let refusal =
            Protocol.encode
              (Protocol.Busy
                 (Printf.sprintf "too many connections (max %d)"
                    t.cfg.max_connections))
          in
          (try
             ignore (Unix.write_substring cfd refusal 0 (String.length refusal))
           with Unix.Unix_error _ -> ());
          try Unix.close cfd with Unix.Unix_error _ -> ()
        end
        else ignore (add_conn t ~tcp:true ~fd:cfd ~wfd:cfd);
        loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let read_conn t conn =
  let buf = Bytes.create 4096 in
  match Unix.read conn.c_fd buf 0 4096 with
  | 0 ->
      (* EOF: no more input, but everything already buffered (including
         a final unterminated line) is still served before closing —
         this is what lets a piped script run to completion in Stdio
         mode. *)
      conn.c_eof <- true;
      conn.c_pending <- conn.c_pending @ extract_lines conn;
      let tail = Buffer.contents conn.c_inbuf in
      Buffer.clear conn.c_inbuf;
      if String.trim tail <> "" then
        conn.c_pending <- conn.c_pending @ [ tail ];
      dispatch t conn;
      maybe_close t conn
  | n ->
      conn.c_last_us <- Obs.Trace.now_us ();
      Buffer.add_subbytes conn.c_inbuf buf 0 n;
      if Buffer.length conn.c_inbuf > max_line_bytes then begin
        send conn
          (Protocol.encode
             (Protocol.Err
                (Printf.sprintf "request exceeds %d bytes" max_line_bytes)));
        conn.c_closing <- true
      end
      else begin
        conn.c_pending <- conn.c_pending @ extract_lines conn;
        dispatch t conn
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
    ->
      close_conn t conn

let write_conn t conn =
  let len = String.length conn.c_out - conn.c_out_off in
  if len > 0 then
    match Unix.write_substring conn.c_wfd conn.c_out conn.c_out_off len with
    | n ->
        conn.c_last_us <- Obs.Trace.now_us ();
        conn.c_out_off <- conn.c_out_off + n;
        if conn.c_out_off >= String.length conn.c_out then begin
          conn.c_out <- "";
          conn.c_out_off <- 0;
          maybe_close t conn
        end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
      ->
        (* The client went away mid-reply.  SIGPIPE is ignored, so this
           is a clean per-connection error, never process death. *)
        close_conn t conn

let recorder_dump_path t =
  Option.value t.cfg.recorder_out ~default:"tempagg-recorder.json"

(* Flight-recorder dump to disk, atomically (temp + rename) so a reader
   racing SIGUSR1 never sees half a JSON document. *)
let write_recorder_dump t =
  let path = recorder_dump_path t in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Obs.Recorder.dump ()));
  Sys.rename tmp path

let run ?(signals = false) t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if signals then begin
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> shutdown t));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> shutdown t));
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle
         (fun _ ->
           Atomic.set t.dump_requested true;
           wake t))
  end;
  t.started_us <- Obs.Trace.now_us ();
  (* Touch every metric family once so a zero-traffic exposition still
     shows the full instrument panel. *)
  ignore (m_accepted t);
  ignore (m_shed t);
  ignore (m_timed_out t);
  ignore (m_errors t);
  ignore (m_degraded t);
  (* The first scrape only records the delta baseline; intervals start
     accruing from server start, not from the first later tick. *)
  Option.iter (fun s -> scrape_tick t s ~now:t.started_us) t.scraper;
  let workers =
    Array.init t.cfg.domains (fun _ -> Domain.spawn (worker_loop t))
  in
  (match t.cfg.transport with
  | Stdio -> ignore (add_conn t ~tcp:false ~fd:Unix.stdin ~wfd:Unix.stdout)
  | Tcp _ -> ());
  let accepting = ref (t.listen_fd <> None) in
  let draining = ref false in
  let drain_deadline_us = ref 0 in
  let forced = ref false in
  let stop_listening () =
    if !accepting then begin
      accepting := false;
      Option.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        t.listen_fd
    end
  in
  let begin_drain () =
    if not !draining then begin
      draining := true;
      drain_deadline_us :=
        Obs.Trace.now_us () + (t.cfg.drain_timeout_ms * 1000);
      stop_listening ();
      Admission.drain ~reason:"draining: server is shutting down" t.admission
    end
  in
  let conn_list () = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let all_flushed () =
    List.for_all
      (fun c -> (not c.c_outstanding) && c.c_out = "" && c.c_pending = [])
      (conn_list ())
  in
  let rec loop () =
    handle_completions t;
    Option.iter
      (fun s ->
        let now = Obs.Trace.now_us () in
        if Selfmon.Scrape.due s ~now_us:now then scrape_tick t s ~now)
      t.scraper;
    if Atomic.exchange t.dump_requested false then begin
      try write_recorder_dump t
      with Sys_error _ | Unix.Unix_error _ -> ()
    end;
    if Atomic.get t.stop_requested then begin_drain ();
    (* Stdio mode drains itself once its one connection is gone. *)
    if t.cfg.transport = Stdio && Hashtbl.length t.conns = 0 then
      begin_drain ();
    if !draining && Admission.idle t.admission && all_flushed () then ()
    else if !draining && Obs.Trace.now_us () > !drain_deadline_us then begin
      (* Past the drain deadline: shed what is still queued and force
         the connections closed.  In-flight work finishes on its worker
         (bounded by the guard deadline when one is configured) but its
         reply has nowhere to go. *)
      forced := true;
      let evicted = Admission.shed_queued t.admission in
      List.iter
        (fun job ->
          Obs.Metrics.inc (m_shed t);
          Obs.Trace.close_span job.j_queue;
          Obs.Trace.close_span
            ~attrs:
              [ ("outcome", "shed"); ("reason", "draining: deadline reached") ]
            job.j_root;
          Obs.Recorder.pin ~trace:job.j_trace ~reason:"shed";
          match Hashtbl.find_opt t.conns job.j_conn with
          | None -> ()
          | Some conn ->
              conn.c_outstanding <- false;
              send conn
                (Protocol.encode (Protocol.Busy "draining: deadline reached"));
              write_conn t conn)
        evicted;
      List.iter (fun c -> close_conn t c) (conn_list ())
    end
    else begin
      let now = Obs.Trace.now_us () in
      (* Reap idle connections (never one whose reply is in flight). *)
      let idle_cutoff = now - (t.cfg.idle_timeout_ms * 1000) in
      List.iter
        (fun c ->
          if
            c.c_tcp
            && (not c.c_outstanding)
            && c.c_out = ""
            && (not c.c_closing)
            && (not c.c_eof)
            && c.c_last_us < idle_cutoff
          then begin
            Obs.Metrics.inc (m_timed_out t);
            close_conn t c
          end)
        (conn_list ());
      let reads =
        t.wake_r
        :: (if !accepting then Option.to_list t.listen_fd else [])
        @ List.filter_map
            (fun c ->
              if c.c_outstanding || c.c_closing || c.c_eof then None
              else Some c.c_fd)
            (conn_list ())
      in
      let writes =
        List.filter_map
          (fun c ->
            if String.length c.c_out > c.c_out_off then Some c.c_wfd else None)
          (conn_list ())
      in
      let timeout =
        let next_idle =
          List.fold_left
            (fun acc c ->
              if c.c_outstanding || not c.c_tcp then acc
              else min acc (c.c_last_us + (t.cfg.idle_timeout_ms * 1000)))
            max_int (conn_list ())
        in
        let next =
          if !draining then min next_idle !drain_deadline_us else next_idle
        in
        let next =
          match t.scraper with
          | Some s -> min next (Selfmon.Scrape.next_due_us s)
          | None -> next
        in
        if next = max_int then 1.0
        else Float.max 0.01 (Float.min 1.0 (float_of_int (next - now) /. 1e6))
      in
      (match Unix.select reads writes [] timeout with
      | rs, ws, _ ->
          if List.mem t.wake_r rs then drain_wake_pipe t;
          (match t.listen_fd with
          | Some fd when !accepting && List.mem fd rs -> accept_burst t fd
          | _ -> ());
          List.iter
            (fun c -> if List.mem c.c_fd rs then read_conn t c)
            (conn_list ());
          List.iter
            (fun c ->
              if List.mem c.c_wfd ws && Hashtbl.mem t.conns c.c_id then
                write_conn t c)
            (conn_list ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* A fd closed under us (e.g. a reaped connection raced the
             select set); drop closed conns and carry on. *)
          ());
      loop ()
    end
  in
  loop ();
  stop_listening ();
  List.iter (fun c -> close_conn t c) (conn_list ());
  Admission.stop t.admission;
  Array.iter Domain.join workers;
  handle_completions t;
  (* A configured dump path gets a final dump at exit, so a drained
     server leaves its retained traces behind for post-mortems. *)
  (match t.cfg.recorder_out with
  | Some _ -> (
      try write_recorder_dump t with Sys_error _ | Unix.Unix_error _ -> ())
  | None -> ());
  (* One last scrape-and-evaluate so the report's SLO summary covers the
     traffic right up to the drain. *)
  Option.iter (fun s -> scrape_tick t s ~now:(Obs.Trace.now_us ())) t.scraper;
  let cval c = int_of_float (Obs.Metrics.counter_value c) in
  {
    accepted = cval (m_accepted t);
    requests = Admission.admitted_total t.admission;
    shed = cval (m_shed t);
    errors = cval (m_errors t);
    degraded = cval (m_degraded t);
    timed_out = cval (m_timed_out t);
    elapsed_s = float_of_int (Obs.Trace.now_us () - t.started_us) /. 1e6;
    drained = not !forced;
    metrics = t.registry;
    per_kind =
      List.filter_map
        (fun (s : Obs.Metrics.sample) ->
          match List.assoc_opt "kind" s.Obs.Metrics.s_labels with
          | Some kind when s.Obs.Metrics.s_name = "tempagg_net_latency_us" ->
              Some (kind, m_latency t kind)
          | _ -> None)
        (Obs.Metrics.samples t.registry);
    live = fst (session_totals t);
    scrapes = (match t.scraper with Some s -> Selfmon.Scrape.ticks s | None -> 0);
    slo_summary =
      Option.map (fun r -> Obs.Slo.report_to_string r) t.slo_report;
  }

let report_to_string r =
  let kind_rows =
    match r.per_kind with
    | [] -> ""
    | rows ->
        Printf.sprintf "  %-16s %6s %10s %10s %10s %10s %10s\n" "kind" "ops"
          "mean-us" "p50-us" "p90-us" "p99-us" "max-us"
        ^ String.concat ""
            (List.map
               (fun (kind, h) ->
                 Printf.sprintf
                   "  %-16s %6d %10.1f %10.1f %10.1f %10.1f %10.1f\n" kind
                   (Obs.Histogram.count h) (Obs.Histogram.mean h)
                   (Obs.Histogram.percentile h 0.5)
                   (Obs.Histogram.percentile h 0.9)
                   (Obs.Histogram.percentile h 0.99)
                   (Obs.Histogram.max_value h))
               rows)
  in
  Printf.sprintf
    "server: %d connection(s), %d request(s) in %.3f s — %d shed, %d \
     error(s), %d degraded, %d idle-reaped, drain %s%s\n%s  live: %s\n%s"
    r.accepted r.requests r.elapsed_s r.shed r.errors r.degraded r.timed_out
    (if r.drained then "clean" else "forced")
    (if r.scrapes > 0 then Printf.sprintf ", %d self-scrape(s)" r.scrapes
     else "")
    kind_rows
    (Live.Stats.to_string r.live)
    (match r.slo_summary with None -> "" | Some s -> s ^ "\n")
