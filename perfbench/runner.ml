(* One benchmark run: set up, drive the closed loop over TCP, stop the
   server, judge every reply, report.

   Set-up runs from an empty directory to the first timed statement:
   writing the inputs through Storage, starting the server, its loads,
   connecting, the setup statements and one untimed warm-up.  The
   setup_s metric is the CPU time the server and this process spend on
   it.  It is repeated three times and the median reported; the last
   set-up serves the timed phase.  A traced run, and
   the benchmark's own tiny-scale test, set up once; a traced run
   replays the statements through the ledger instead of the plain
   replay. *)

type config = {
  workload : Workloads.name;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;  (** The tempagg executable. *)
  scale : Workloads.scale;
  work_dir : string;  (** Working files, removed when the run ends. *)
  out_dir : string;  (** Where the traced run writes its spans. *)
  tamper : Loop.tamper option;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  report : string;
  failures : string list;
}

(* One worker domain: with one connection a second worker would only
   idle, and on a small shared host every extra runnable thread adds
   scheduling noise to the timings. *)
let domains = 1

let started = Clock.now_ns ()

(* Progress on stderr, so stdout stays the report and the JSON line. *)
let log fmt =
  Printf.ksprintf
    (fun s -> Printf.eprintf "[bench %7.2fs] %s\n%!" (Clock.ms (Clock.now_ns () - started) /. 1000.) s)
    fmt

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the latency of an actual statement, [q] of the way up
   the sorted samples. *)
let quantile q sorted =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

type session = {
  srv : Proc.t;
  client : Net.Client.t;
  next : unit -> Workloads.stmt option;
  cpu : unit -> int;  (** CPU time of the server and this client so far, in ns. *)
  untimed : Loop.record list;
  bindings : (string * string) list;
  dir : string;
}

(* Returns the session, the set-up's wall time and its CPU time, in ns. *)
let set_up cfg (w : Workloads.t) dir =
  let self = Unix.getpid () in
  let t0 = Clock.now_ns () and c0 = Proc.cpu_ns self in
  Proc.mkdir_p dir;
  let bindings = Workloads.write_inputs w dir in
  let srv = Proc.start ~cli:cfg.cli ~dir ~domains bindings in
  let client = Net.Client.connect ~port:srv.Proc.port () in
  let next = w.Workloads.stream () in
  let cpu () = Proc.cpu_ns srv.Proc.pid + Proc.cpu_ns self in
  let untimed = Loop.warm_up ~cpu client w next in
  ( { srv; client; next; cpu; untimed; bindings; dir },
    (Clock.now_ns () - t0, cpu () - c0) )

let tear_down s =
  (try ignore (Net.Client.request s.client "QUIT") with _ -> ());
  Net.Client.close s.client;
  Proc.stop s.srv

let set_up_repeatedly cfg w root =
  let reps = if cfg.trace || cfg.scale = Workloads.Tiny then 1 else 3 in
  let rec go k times =
    let s, ns = set_up cfg w (Filename.concat root (Printf.sprintf "setup%d" k)) in
    if k + 1 < reps then begin
      tear_down s;
      Proc.remove_tree s.dir;
      go (k + 1) (ns :: times)
    end
    else (s, List.rev (ns :: times))
  in
  go 0 []

let judge_plain cfg (w : Workloads.t) bindings records =
  let plain = Gate.plain_replay (Gate.session bindings) in
  Gate.judge ~seed:cfg.seed ~base:w.Workloads.oracle_base
    ~replay:(fun r -> plain r.Loop.stmt)
    records

(* Traced replay: [seconds] of it are traced. *)
let judge_traced cfg (w : Workloads.t) root ledger bindings records =
  let s = Ledger.session ledger bindings in
  let probe =
    match (Workloads.written_input w, w.Workloads.setup) with
    | Some (Workloads.Partitioned { rel; _ }), Workloads.Ddl view_definition :: _ ->
        let dir = Filename.concat root "probe" in
        Some (Ledger.write_probe ~dir ~rel ~view_definition (Tsql.Session.catalog s))
    | _ -> None
  in
  let replay, finish =
    Ledger.replay ledger s ~budget_ns:(int_of_float (cfg.seconds *. 1e9)) ~probe
  in
  let v = Gate.judge ~seed:cfg.seed ~base:w.Workloads.oracle_base ~replay records in
  finish ();
  v

(* CPU time and latency quantiles per statement shape, so a shift in
   the mix shows. *)
let shape_summary b timed =
  let shapes = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let k = Workloads.shape r.Loop.stmt in
      Hashtbl.replace shapes k (r :: Option.value (Hashtbl.find_opt shapes k) ~default:[]))
    timed;
  let sorted f l =
    let a = Array.of_list (List.map (fun r -> Clock.ms (f r)) l) in
    Array.sort compare a;
    a
  in
  Printf.bprintf b "  %-36s %10s  %-28s %s\n" "" "" "CPU p10/p50/p90 ms" "latency p50/p90 ms";
  List.iter
    (fun (k, l) ->
      let c = sorted (fun r -> r.Loop.cpu_ns) l and w = sorted (fun r -> r.Loop.latency_ns) l in
      Printf.bprintf b "  %-36s %5d stmts  %8.3f %8.3f %8.3f   %8.3f %8.3f\n" k (Array.length c)
        (quantile 0.1 c) (quantile 0.5 c) (quantile 0.9 c) (quantile 0.5 w) (quantile 0.9 w))
    (List.sort compare (List.of_seq (Hashtbl.to_seq shapes)))

let run cfg =
  let w = Workloads.make ~scale:cfg.scale ~seed:cfg.seed cfg.workload in
  let name = Workloads.to_string cfg.workload in
  let root =
    Filename.concat cfg.work_dir (Printf.sprintf "%s-%d-%d" name cfg.seed (Unix.getpid ()))
  in
  Proc.remove_tree root;
  Proc.mkdir_p root;
  Fun.protect
    ~finally:(fun () ->
      Proc.stop_all ();
      Proc.remove_tree root)
    (fun () ->
      let s, setup_ns = set_up_repeatedly cfg w root in
      let setup_s = List.map (fun (_, ns) -> float_of_int ns /. 1e9) setup_ns in
      log "set up %d time(s): %s s wall, %s s CPU" (List.length setup_s)
        (String.concat ", "
           (List.map (fun (ns, _) -> Printf.sprintf "%.2f" (float_of_int ns /. 1e9)) setup_ns))
        (String.concat ", " (List.map (Printf.sprintf "%.2f") setup_s));
      let timed, elapsed_ns =
        Loop.run_timed ?tamper:cfg.tamper ~cpu:s.cpu ~seed:cfg.seed
          ~cycle:w.Workloads.cycle
          ~seconds:cfg.seconds s.client s.next
      in
      let rss_mb = Proc.peak_rss_mb s.srv in
      let pings = 200 in
      let ping_us = if cfg.trace then Loop.ping_us s.client pings else 0. in
      tear_down s;
      log "timed phase done";
      let records = s.untimed @ timed in
      (* The replay needs the inputs as they were before the run's writes. *)
      let bindings =
        if w.Workloads.writes then begin
          let dir = Filename.concat root "replay" in
          Proc.mkdir_p dir;
          Workloads.write_inputs w dir
        end
        else s.bindings
      in
      let ledger = Ledger.create () in
      let verdict =
        if cfg.trace then judge_traced cfg w root ledger bindings records
        else judge_plain cfg w bindings records
      in
      log "replay and oracle done";
      let failed_at = List.sort_uniq compare (List.map fst verdict.Gate.failures) in
      let failures = List.map snd verdict.Gate.failures in
      let attempted = List.length records in
      let failed = List.length failed_at in
      let timed_failed =
        List.length (List.filter (fun i -> i >= List.length s.untimed) failed_at)
      in
      let lat = Array.of_list (List.map (fun r -> Clock.ms r.Loop.latency_ns) timed) in
      Array.sort compare lat;
      let n = Array.length lat in
      let p50 = quantile 0.5 lat and p90 = quantile 0.9 lat in
      let cpu = Array.of_list (List.map (fun r -> Clock.ms r.Loop.cpu_ns) timed) in
      Array.sort compare cpu;
      let cpu_s = Array.fold_left ( +. ) 0. cpu /. 1e3 in
      let elapsed_s = float_of_int elapsed_ns /. 1e9 in
      let fail_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
      let b = Buffer.create 1024 in
      Printf.bprintf b "workload %s, seed %d: %s\n" name cfg.seed w.Workloads.sizes;
      Printf.bprintf b
        "%d statements timed over %.2f s (%d attempted in all, %d failed); %d \
         replies checked against the in-process replay, %d against the \
         snapshot oracle\n"
        n elapsed_s attempted failed verdict.Gate.checked verdict.Gate.oracle_checked;
      shape_summary b timed;
      let metrics =
        if not cfg.trace then begin
          let ok = float_of_int (n - timed_failed) in
          let m =
            [
              ("capacity_sps", "1/s", ok /. cpu_s);
              ("cpu_p50_ms", "ms", quantile 0.5 cpu);
              ("cpu_p90_ms", "ms", quantile 0.9 cpu);
              ("ok_ratio", "ratio", 1. -. fail_ratio);
              ("setup_s", "s", median setup_s);
              ("server_rss_mb", "MiB", rss_mb);
            ]
          in
          List.iter (fun (n, u, v) -> Printf.bprintf b "  %-16s %12.4f %s\n" n v u) m;
          Printf.bprintf b "  fail_ratio       %12.4f ratio (%d of %d)\n" fail_ratio failed attempted;
          Printf.bprintf b
            "  cpu_p90_ms is over %d samples, %d of them beyond it; setup_s is \
             the median of %d set-ups\n"
            n (n - int_of_float (Float.ceil (0.9 *. float_of_int n)))
            (List.length setup_s);
          (* Wall-clock figures, not in the JSON: on a shared host they
             move with the neighbours' load (see README.md). *)
          Printf.bprintf b
            "  wall clock: %.4f statements/s, latency p50 %.4f ms, p90 %.4f ms; \
             CPU was %.0f%% of latency\n"
            (ok /. elapsed_s) p50 p90
            (100. *. cpu_s /. (Array.fold_left ( +. ) 0. lat /. 1e3));
          m
        end
        else begin
          let m = Ledger.metrics ledger ~ping:(ping_us, pings) ~p50_ms:p50 in
          Buffer.add_string b (Ledger.metrics_table m);
          Buffer.add_string b (Ledger.self_table ledger ~p50_ms:p50);
          Proc.mkdir_p cfg.out_dir;
          let path =
            Filename.concat cfg.out_dir (Printf.sprintf "%s-seed%d.trace.json" name cfg.seed)
          in
          Ledger.write_chrome ledger path;
          Printf.bprintf b "spans written to %s\n" path;
          List.map (fun (n, u, v, _) -> (n, u, v)) m
        end
      in
      List.iteri (fun i f -> if i < 5 then Printf.bprintf b "FAILED: %s\n" f) failures;
      { correct = failed = 0; attempted; failed; metrics; report = Buffer.contents b; failures })

let json r =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "a metric is not a finite number"
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          r.metrics))
